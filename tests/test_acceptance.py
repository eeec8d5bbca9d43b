"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from embedit import (
    BalanceMode,
    BalancerParams,
    BiasEditRequest,
    EditEntry,
    EditHyperparams,
    EditLedger,
    EditRequest,
    EncoderBundle,
    LossPositions,
    Tensor,
    alpha_weight,
    balanced_loss,
    edit_balance,
    edit_single,
    encode,
    evaluate_edit,
    filter_sequential_dataset,
    finite_difference_grad,
    init_random_weights,
    merge_budget_reports,
    mse_hidden,
    param_budget_report,
    revert,
    tokenize,
)
from embedit.autodiff import Tape, backward
from embedit.editor import EditResult, LedgerEntry, _taped_mse
from embedit.encoder import HiddenStates

from conftest import make_bundle, make_config, make_vocab
from test_evaluation import brute_force_filter, synthetic_entries
from test_probe import gaussian_wte_fixture


@contextmanager
def criterion(number, description, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, (
        f"criterion {number} runtime {elapsed:.2f}s exceeds budget {limit_s}s"
    )
    print(f"\nACCEPTANCE {number:2d} PASS ({elapsed:.2f}s): {description}")


def wide_vocab(n_extra=64):
    words = [f"word{i}" for i in range(n_extra)]
    return make_vocab(words=words)


def test_01_gradient_correctness():
    with criterion(1, "analytic gradient matches central finite differences "
                      "(h=1e-5, max rel err < 1e-5)", limit_s=5.0):
        bundle = make_bundle(seed=42)  # d_model=8, 2 layers, 2 heads, context 8
        config, weights, vocab = bundle.config, bundle.weights, bundle.vocab
        src = tokenize("a bear", vocab, config)
        dst = tokenize("a polar bear", vocab, config)
        h_new = encode(dst, weights, config)
        bear = vocab.tokens["bear"]

        tape = Tape()
        leaf = Tensor(weights.wte.array[[bear]])
        h = encode(src, weights, config, tape, edit_rows=([bear], leaf))
        loss_t = _taped_mse(h, h_new, config.context_length, tape)
        analytic = backward(tape, loss_t)[leaf].array[0]

        row0 = weights.wte.array[bear].copy()

        def loss_of_row(row):
            weights.set_wte_rows([bear], row.array[None, :])
            value = mse_hidden(encode(src, weights, config), h_new,
                               LossPositions.FULL_SEQUENCE)
            return value

        fd = finite_difference_grad(loss_of_row, Tensor(row0), h=1e-5).array
        weights.set_wte_rows([bear], row0[None, :])

        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
        assert rel.max() < 1e-5, f"max relative error {rel.max():.3g}"


def test_02_tau_law_and_check_then_step():
    with criterion(2, "tau == lambda * initial_loss exactly over 200+ randomized "
                      "requests; lambda=1 / identical prompts take 0 steps",
                   limit_s=30.0):
        rng = np.random.default_rng(20)
        bundle = make_bundle(seed=2)
        words = list(bundle.vocab.tokens)

        def random_prompt():
            k = int(rng.integers(1, 4))
            return " ".join(rng.choice(words, size=k, replace=True))

        checked = 0
        for case in range(220):
            source = random_prompt()
            target = str(rng.choice(source.split()))
            if case % 15 == 0:
                lam, destination = 1.0, random_prompt()
            elif case % 15 == 1:
                lam, destination = float(rng.uniform(0, 1)), source
            else:
                lam, destination = float(rng.uniform(0, 1)), random_prompt()
            hyper = EditHyperparams(stop_ratio=lam, max_iters=25, learning_rate=1e-2)
            res = edit_single(bundle, EditRequest(source, destination, target),
                              hyper, EditLedger())
            assert res.threshold_tau == lam * res.initial_loss
            assert res.converged == (res.final_loss <= res.threshold_tau)
            assert res.optimizer_steps <= res.iterations_run <= hyper.max_iters
            if lam == 1.0 or destination == source:
                assert res.optimizer_steps == 0
            checked += 1
        assert checked >= 200


def test_03_side_effect_freedom():
    with criterion(3, "after 50 sequential edits, 1000 disjoint prompts encode "
                      "bitwise identically; strict specificity 100%", limit_s=60.0):
        rng = np.random.default_rng(30)
        vocab = wide_vocab(64)
        config = make_config(vocab)
        edited = EncoderBundle(config, init_random_weights(config, 5), vocab)
        reference = EncoderBundle(config, init_random_weights(config, 5), vocab)

        words = list(vocab.tokens)
        edit_pool, probe_pool = words[:20], words[20:]
        ledger = EditLedger()
        hyper = EditHyperparams(stop_ratio=0.3, max_iters=40, learning_rate=1e-2)
        for _ in range(50):
            s, d = (str(w) for w in rng.choice(edit_pool, size=2, replace=False))
            edit_single(edited, EditRequest(s, d, s), hyper, ledger)
        edited_ids = {i for e in ledger.entries for i in e.edited_token_ids}

        checked = 0
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            prompt = " ".join(rng.choice(probe_pool, size=k, replace=True))
            assert not (set(vocab.prompt_token_ids(prompt)) & edited_ids)
            a = edited.encode_prompt(prompt)
            b = reference.encode_prompt(prompt)
            assert a.sequence.array.tobytes() == b.sequence.array.tobytes()
            checked += 1
        assert checked == 1000

        entry = EditEntry(
            source=str(edit_pool[0]), destination=str(edit_pool[1]),
            target_word=str(edit_pool[0]),
            negatives=tuple((str(w), f"{edit_pool[1]} {w}") for w in probe_pool[:20]),
        )
        report = evaluate_edit(entry, edited, reference)
        assert report.strict_specificity == 100.0


def _budget_fixture_ledger(token_ids):
    rows = {i: Tensor(np.zeros(4)) for i in token_ids}
    ledger = EditLedger()
    ledger.append(LedgerEntry(
        source_prompt="s", destination_prompt="d", target_word="t",
        edited_token_ids=tuple(token_ids), original_rows=rows, new_rows=rows,
        result=EditResult(1.0, 0.5, 0.4, 1, 1, True, tuple(token_ids)),
    ))
    return ledger


def test_04_budget_law_table_numbers():
    with criterion(4, "single-token edit: 768 scalars / 1536 FLOPs; dual encoder "
                      "768+1280: 2048 / 4096 exactly", limit_s=1.0):
        single = param_budget_report(_budget_fixture_ledger([9]), 10 ** 9, d_model=768)
        assert single.per_edit[0].modified_scalars == 768
        assert single.per_edit[0].update_flops == 1536

        wide = param_budget_report(_budget_fixture_ledger([9]), 10 ** 9, d_model=1280)
        dual = merge_budget_reports([single, wide], total_model_params=10 ** 9)
        assert dual.per_edit[0].modified_scalars == 2048
        assert dual.per_edit[0].update_flops == 4096


def test_05_convergence_rate():
    with criterion(5, "lambda=0.2, T=500, lr=1e-2: at least 90% of 100 random "
                      "token-pair edits converge", limit_s=60.0):
        rng = np.random.default_rng(50)
        vocab = wide_vocab(64)
        config = make_config(vocab)
        words = list(vocab.tokens)
        hyper = EditHyperparams(stop_ratio=0.2, max_iters=500, learning_rate=1e-2)
        converged = 0
        for k in range(100):
            bundle = EncoderBundle(config, init_random_weights(config, k), vocab)
            s, d = (str(w) for w in rng.choice(words, size=2, replace=False))
            res = edit_single(bundle, EditRequest(s, d, s), hyper, EditLedger())
            converged += res.converged
        assert converged >= 90, f"only {converged}/100 converged"


def test_06_revert_fidelity():
    with criterion(6, "edit+revert restores the WTE bitwise; partial revert "
                      "reproduces each intermediate state bitwise", limit_s=5.0):
        bundle = make_bundle(seed=6)
        hyper = EditHyperparams(stop_ratio=0.4, max_iters=80, learning_rate=1e-2)
        requests = [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("a bear", "a fox", "bear"),
            EditRequest("little bear", "little cat", "bear"),
        ]
        ledger = EditLedger()
        states = [bundle.weights.wte.array.tobytes()]
        for request in requests:
            edit_single(bundle, request, hyper, ledger)
            states.append(bundle.weights.wte.array.tobytes())

        for k in range(len(requests), 0, -1):
            assert bundle.weights.wte.array.tobytes() == states[k]
            revert(bundle.weights, ledger, 1)
            assert bundle.weights.wte.array.tobytes() == states[k - 1]
        assert len(ledger) == 0
        assert bundle.weights.wte.array.tobytes() == states[0]


def test_07_bias_balancer_laws():
    with criterion(7, "alpha grid {0,0.1,0.5,1} -> {2,2,5,10} exactly; "
                      "balanced loss fixture = 5 exactly; auto mode strictly "
                      "decreases its loss", limit_s=10.0):
        params = BalancerParams()
        grid = {0.0: 2.0, 0.1: 2.0, 0.5: 5.0, 1.0: 10.0}
        for delta, expected in grid.items():
            assert alpha_weight(delta, params) == expected

        def hs(matrix):
            t = Tensor(matrix)
            return HiddenStates(sequence=t, pooled=Tensor(t.array[-1]),
                                eos_position=t.shape[0] - 1)

        h_p = hs(np.zeros((2, 2)))
        h_csp = hs(np.ones((2, 2)))      # MSE(p, csp) = 1
        h_sp = hs(2.0 * np.ones((2, 2)))  # MSE(p, sp) = 4
        assert balanced_loss(h_p, h_csp, h_sp, 2.0, LossPositions.FULL_SEQUENCE) == 5.0

        bundle = make_bundle(seed=42)
        male = bundle.vocab.tokens["male"]
        female = bundle.vocab.tokens["female"]
        bundle.weights.set_wte_rows([female], bundle.weights.wte.array[male][None, :])
        res = edit_balance(
            bundle,
            BiasEditRequest(profession="teacher", stereotypical_prompt="male teacher",
                            counter_prompt="female teacher", mode=BalanceMode.AUTO),
            BalancerParams(learning_rate=1e-2),
            EditLedger(),
        )
        assert res.final_loss < res.initial_loss


def test_08_probe_sanity():
    with criterion(8, "separable synthetic WTEs reach >= 95% mean accuracy; "
                      "shuffled labels land in the 35-65% chance band", limit_s=30.0):
        from embedit import accuracy_over_seeds
        from embedit.probe import ProbeDataset

        dataset, weights, vocab = gaussian_wte_fixture(
            n_items=200, separation=4.0, sigma=1.0
        )
        mean, _ = accuracy_over_seeds(dataset, weights, vocab, seeds=[0, 1, 2, 3, 4])
        assert mean >= 95.0, f"separable mean accuracy {mean:.2f}%"

        rng = np.random.default_rng(8)
        shuffled_labels = rng.permutation([label for _, label in dataset.items])
        shuffled = ProbeDataset(
            items=[(word, int(lab)) for (word, _), lab in
                   zip(dataset.items, shuffled_labels)],
            label_names=dataset.label_names,
        )
        chance_mean, _ = accuracy_over_seeds(shuffled, weights, vocab,
                                             seeds=[0, 1, 2, 3, 4])
        assert 35.0 <= chance_mean <= 65.0, f"chance mean {chance_mean:.2f}%"


def test_09_end_to_end_proxy_efficacy():
    with criterion(9, "forced full convergence gives 100% efficacy; the identity "
                      "edit gives baseline efficacy and 100% strict specificity",
                   limit_s=10.0):
        entry = EditEntry(
            source="bear", destination="wolf", target_word="bear",
            positives=(("a bear", "a wolf"),),
            negatives=(("a cat", "a dog"), ("a panda", "a polar panda")),
        )
        reference = make_bundle(seed=42)

        forced = make_bundle(seed=42)
        edit_single(forced, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.0, max_iters=2000, learning_rate=1e-2),
                    EditLedger())
        report = evaluate_edit(entry, forced, reference)
        assert report.efficacy == 100.0

        identity = make_bundle(seed=42)
        res = edit_single(identity, EditRequest("bear", "wolf", "bear"),
                          EditHyperparams(stop_ratio=1.0), EditLedger())
        assert res.optimizer_steps == 0
        report = evaluate_edit(entry, identity, reference)
        assert report.efficacy == 0.0  # baseline regime: nothing moved
        assert report.strict_specificity == 100.0


def test_10_sequential_filter_oracle():
    with criterion(10, "filter matches an independent brute-force filter on a "
                       "104-entry fixture and is idempotent", limit_s=5.0):
        entries = synthetic_entries(104)
        excluded = tuple(f"obj{i}" for i in range(0, 104, 11))
        ours = filter_sequential_dataset(entries, excluded)
        oracle = brute_force_filter(entries, excluded)
        assert ours == oracle
        assert filter_sequential_dataset(ours) == ours
