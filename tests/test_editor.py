import numpy as np
import pytest

from embedit import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    LossPositions,
    OptimizerKind,
    Tensor,
    edit_multi_encoder,
    edit_sequential,
    edit_single,
    merge_budget_reports,
    mse_hidden,
    param_budget_report,
    revert,
    target_token_ids,
)
from embedit.editor import EditResult, LedgerEntry
from embedit.encoder import HiddenStates
from embedit.errors import (
    DimensionError,
    DivergenceError,
    InconsistentRequestError,
    LedgerRangeError,
)

from conftest import diverge_adam, make_bundle, make_vocab


def hs(matrix, eos_position=None):
    t = Tensor(matrix)
    eos = t.shape[0] - 1 if eos_position is None else eos_position
    return HiddenStates(sequence=t, pooled=Tensor(t.array[eos]), eos_position=eos)


def wte_bytes(bundle):
    return bundle.weights.wte.array.tobytes()


class TestMseHidden:
    def test_identity_is_zero(self):
        h = hs([[1.0, 2.0], [3.0, 4.0]])
        assert mse_hidden(h, h, LossPositions.FULL_SEQUENCE) == 0.0

    def test_hand_arithmetic(self):
        # single row [3,4] vs [0,0]: (9 + 16) / 2 = 12.5
        a = hs([[3.0, 4.0]])
        b = hs([[0.0, 0.0]])
        assert mse_hidden(a, b, LossPositions.FULL_SEQUENCE) == 12.5

    def test_zeros_vs_ones(self):
        a = hs(np.zeros((5, 3)))
        b = hs(np.ones((5, 3)))
        assert mse_hidden(a, b, LossPositions.FULL_SEQUENCE) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_hidden(hs(np.zeros((2, 2))), hs(np.zeros((3, 2))), LossPositions.FULL_SEQUENCE)

    def test_up_to_eos_scores_through_later_eos(self):
        # Rows 0..max(eos1, eos2) inclusive; the difference past that row is ignored.
        a = np.zeros((4, 2))
        b = np.zeros((4, 2))
        b[3] = 100.0  # beyond both EOS positions
        b[1] = 1.0
        h1 = hs(a, eos_position=1)
        h2 = hs(b, eos_position=2)
        expected = np.mean((a[:3] - b[:3]) ** 2)
        assert mse_hidden(h1, h2, LossPositions.UP_TO_EOS) == expected


class TestTargetTokenIds:
    def test_single_word(self, vocab):
        req = EditRequest("a bear", "a polar bear", "bear")
        assert target_token_ids(req, vocab) == {vocab.tokens["bear"]}

    def test_multi_word_target(self, vocab):
        req = EditRequest("a ice cream", "a red ice cream", "ice cream")
        assert target_token_ids(req, vocab) == {vocab.tokens["ice"], vocab.tokens["cream"]}

    def test_split_word_target(self, vocab):
        req = EditRequest("a icecream", "red icecream", "icecream")
        assert target_token_ids(req, vocab) == {vocab.tokens["ice"], vocab.tokens["cream"]}

    def test_target_missing_from_source(self, vocab):
        req = EditRequest("a cat", "a polar bear", "bear")
        with pytest.raises(InconsistentRequestError):
            target_token_ids(req, vocab)


class TestEditSingle:
    def test_stop_ratio_one_takes_zero_steps(self):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        res = edit_single(
            bundle, EditRequest("a bear", "a polar bear", "bear"),
            EditHyperparams(stop_ratio=1.0), ledger,
        )
        assert res.optimizer_steps == 0
        assert res.iterations_run == 1
        assert res.converged
        assert res.threshold_tau == res.initial_loss
        assert wte_bytes(bundle) == before
        assert len(ledger) == 1

    def test_identical_prompts_converge_immediately(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("a bear", "a bear", "bear"),
            EditHyperparams(stop_ratio=0.5), EditLedger(),
        )
        assert res.initial_loss == 0.0
        assert res.threshold_tau == 0.0
        assert res.converged
        assert res.optimizer_steps == 0

    def test_regression_values_frozen_from_first_run(self):
        # Recorded from this implementation's first run of this exact fixture.
        bundle = make_bundle(seed=42)
        res = edit_single(
            bundle, EditRequest("a bear", "a wolf", "bear"),
            EditHyperparams(stop_ratio=0.2, max_iters=500, learning_rate=1e-2),
            EditLedger(),
        )
        assert res.converged
        assert res.final_loss <= 0.2 * res.initial_loss
        assert res.initial_loss == pytest.approx(0.032155502615547296, rel=1e-10)
        assert res.threshold_tau == pytest.approx(0.00643110052310946, rel=1e-10)
        assert res.final_loss == pytest.approx(0.004338626768723579, rel=1e-10)
        assert res.iterations_run == 3
        assert res.optimizer_steps == 2

    def test_tau_is_exact_product(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("a bear", "a polar bear", "bear"),
            EditHyperparams(stop_ratio=0.37, max_iters=5), EditLedger(),
        )
        assert res.threshold_tau == 0.37 * res.initial_loss

    def test_only_target_rows_change(self):
        bundle = make_bundle()
        before = {n: t.array.copy() for n, t in bundle.weights.named_tensors()}
        res = edit_single(
            bundle, EditRequest("a bear with a cat", "a polar bear with a cat", "bear"),
            EditHyperparams(stop_ratio=0.8, max_iters=50, learning_rate=1e-2),
            EditLedger(),
        )
        assert res.optimizer_steps >= 1
        target = bundle.vocab.tokens["bear"]
        for name, tensor in bundle.weights.named_tensors():
            if name == "wte":
                continue
            assert np.array_equal(tensor.array, before[name]), name
        # The differing scalars are exactly the target row's d_model entries.
        wte_after = bundle.weights.wte.array
        diff = wte_after != before["wte"]
        assert np.all(diff[target])
        assert not np.any(np.delete(diff, target, axis=0))

    def test_non_finite_step_raises_divergence(self, monkeypatch):
        import embedit.optim as optim

        monkeypatch.setattr(
            optim.Adam, "step", lambda self, p, g: np.full_like(p, np.inf)
        )
        bundle = make_bundle()
        with pytest.raises(DivergenceError) as exc:
            edit_single(
                bundle, EditRequest("a bear", "a wolf", "bear"),
                EditHyperparams(stop_ratio=0.0, max_iters=3), EditLedger(),
            )
        assert exc.value.iteration == 1

    def test_divergence_mid_loop_leaves_table_and_ledger_untouched(self, monkeypatch):
        diverge_adam(monkeypatch, nth_adam=1, nth_step=2)
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        with pytest.raises(DivergenceError) as exc:
            edit_single(
                bundle, EditRequest("a bear", "a wolf", "bear"),
                EditHyperparams(stop_ratio=0.0, max_iters=5), ledger,
            )
        assert exc.value.iteration == 2
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0

    def test_sgd_optimizer_also_converges(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("bear", "wolf", "bear"),
            EditHyperparams(stop_ratio=0.5, max_iters=400, learning_rate=0.5,
                            optimizer=OptimizerKind.SGD),
            EditLedger(),
        )
        assert res.converged

    def test_up_to_eos_positions_also_converges(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("bear", "wolf", "bear"),
            EditHyperparams(stop_ratio=0.2, max_iters=500, learning_rate=1e-2,
                            loss_positions=LossPositions.UP_TO_EOS),
            EditLedger(),
        )
        assert res.converged


class TestEditSequential:
    def test_disjoint_edits_match_independent_single_edits(self):
        hyper = EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2)
        reqs = [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("cat", "dog", "cat"),
        ]

        seq_bundle = make_bundle()
        seq_results = edit_sequential(seq_bundle, reqs, hyper, EditLedger())

        single_rows = {}
        single_results = []
        for req in reqs:
            b = make_bundle()
            single_results.append(edit_single(b, req, hyper, EditLedger()))
            tid = b.vocab.tokens[req.target_word]
            single_rows[tid] = b.weights.wte.array[tid].copy()

        for rs, rss in zip(seq_results, single_results):
            assert rs == rss
        for tid, row in single_rows.items():
            assert seq_bundle.weights.wte.array[tid].tobytes() == row.tobytes()

    def test_repeated_request_starts_near_destination(self):
        bundle = make_bundle()
        hyper = EditHyperparams(stop_ratio=0.3, max_iters=300, learning_rate=1e-2)
        req = EditRequest("bear", "wolf", "bear")
        first, second = edit_sequential(bundle, [req, req], hyper, EditLedger())
        assert second.initial_loss <= first.final_loss * (1 + 1e-9)

    def test_empty_request_list(self):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        assert edit_sequential(bundle, [], EditHyperparams(), EditLedger()) == []
        assert wte_bytes(bundle) == before

    def test_failure_keeps_completed_entries(self):
        bundle = make_bundle()
        ledger = EditLedger()
        reqs = [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("a cat", "a dog", "bear"),  # target not in source
        ]
        with pytest.raises(InconsistentRequestError):
            edit_sequential(bundle, reqs, EditHyperparams(stop_ratio=0.5, max_iters=50,
                                                          learning_rate=1e-2), ledger)
        assert len(ledger) == 1
        assert ledger.entries[0].target_word == "bear"


class TestRevert:
    def test_edit_then_revert_restores_bitwise(self):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2), ledger)
        assert wte_bytes(bundle) != before
        revert(bundle.weights, ledger, 1)
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0

    def test_partial_revert_of_overlapping_edits(self):
        bundle = make_bundle()
        hyper = EditHyperparams(stop_ratio=0.5, max_iters=100, learning_rate=1e-2)
        original = wte_bytes(bundle)
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"), hyper, ledger)
        after_first = wte_bytes(bundle)
        edit_single(bundle, EditRequest("a bear", "a fox", "bear"), hyper, ledger)

        revert(bundle.weights, ledger, 1)
        assert wte_bytes(bundle) == after_first
        revert(bundle.weights, ledger, 1)
        assert wte_bytes(bundle) == original

    def test_full_revert_of_overlapping_edits_at_once(self):
        bundle = make_bundle()
        hyper = EditHyperparams(stop_ratio=0.5, max_iters=100, learning_rate=1e-2)
        original = wte_bytes(bundle)
        ledger = EditLedger()
        edit_sequential(bundle, [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("a bear", "a fox", "bear"),
        ], hyper, ledger)
        revert(bundle.weights, ledger, 2)
        assert wte_bytes(bundle) == original

    def test_revert_zero_is_noop(self):
        bundle = make_bundle()
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.5, max_iters=50, learning_rate=1e-2), ledger)
        state = wte_bytes(bundle)
        revert(bundle.weights, ledger, 0)
        assert wte_bytes(bundle) == state
        assert len(ledger) == 1

    def test_revert_too_deep_is_range_error(self):
        bundle = make_bundle()
        with pytest.raises(LedgerRangeError):
            revert(bundle.weights, EditLedger(), 1)

    def test_revert_from_reloaded_ledger(self, tmp_path):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2), ledger)
        path = tmp_path / "ledger.json"
        ledger.save(path)
        reloaded = EditLedger.load(path)
        revert(bundle.weights, reloaded, 1)
        assert wte_bytes(bundle) == before


def _ledger_with_edited_ids(*id_groups):
    ledger = EditLedger()
    for ids in id_groups:
        ids = tuple(ids)
        rows = {i: Tensor(np.zeros(4)) for i in ids}
        ledger.append(LedgerEntry(
            source_prompt="s", destination_prompt="d", target_word="t",
            edited_token_ids=ids, original_rows=rows, new_rows=rows,
            result=EditResult(1.0, 0.2, 0.1, 1, 1, True, ids),
        ))
    return ledger


class TestBudgetReport:
    def test_single_token_768(self):
        report = param_budget_report(_ledger_with_edited_ids([9]), 10 ** 9, d_model=768)
        assert report.per_edit[0].modified_scalars == 768
        assert report.per_edit[0].update_flops == 1536
        assert report.per_edit[0].weight_ratio == 768 / 1e9

    def test_dual_encoder_widths_768_and_1280(self):
        r1 = param_budget_report(_ledger_with_edited_ids([9]), 10 ** 9, d_model=768)
        r2 = param_budget_report(_ledger_with_edited_ids([9]), 10 ** 9, d_model=1280)
        merged = merge_budget_reports([r1, r2], total_model_params=2 * 10 ** 9)
        assert merged.per_edit[0].modified_scalars == 2048
        assert merged.per_edit[0].update_flops == 4096

    def test_ratio_arithmetic(self):
        report = param_budget_report(_ledger_with_edited_ids([9]), int(1.0e9), d_model=768)
        assert report.per_edit[0].weight_ratio == pytest.approx(7.68e-7)

    def test_two_token_edit(self):
        report = param_budget_report(_ledger_with_edited_ids([7, 8]), 100, d_model=8)
        assert report.per_edit[0].modified_scalars == 16
        assert report.per_edit[0].update_flops == 32


class TestMultiEncoder:
    def test_identical_encoders_give_identical_results(self):
        hyper = EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2)
        encoders = [make_bundle(seed=42), make_bundle(seed=42)]
        r1, r2 = edit_multi_encoder(encoders, EditRequest("bear", "wolf", "bear"), hyper)
        assert r1 == r2
        assert wte_bytes(encoders[0]) == wte_bytes(encoders[1])

    def test_widths_8_and_16_both_converge_under_defaults(self):
        encoders = [
            make_bundle(seed=42, d_model=8, n_heads=2, d_ff=16),
            make_bundle(seed=42, d_model=16, n_heads=4, d_ff=32),
        ]
        results = edit_multi_encoder(
            encoders, EditRequest("bear", "wolf", "bear"), EditHyperparams()
        )
        assert all(r.converged for r in results)
        assert results[0].edited_token_ids == results[1].edited_token_ids

    def test_missing_target_names_encoder(self):
        small_vocab = make_vocab(words=["a", "cat"])
        encoders = [make_bundle(seed=1), make_bundle(seed=1, vocab=small_vocab)]
        with pytest.raises(InconsistentRequestError, match="encoder 1"):
            edit_multi_encoder(encoders, EditRequest("bear", "wolf", "bear"),
                               EditHyperparams())


class TestSideEffectFreedom:
    def test_random_sequential_edits_leave_disjoint_prompts_bitwise_identical(self):
        rng = np.random.default_rng(7)
        bundle = make_bundle(seed=3)
        reference = make_bundle(seed=3)
        words = list(bundle.vocab.tokens)
        edit_pool, probe_pool = words[:10], words[10:]
        hyper = EditHyperparams(stop_ratio=0.3, max_iters=40, learning_rate=1e-2)
        ledger = EditLedger()
        for _ in range(10):
            s, d = rng.choice(edit_pool, size=2, replace=False)
            edit_single(bundle, EditRequest(str(s), str(d), str(s)), hyper, ledger)
        edited_ids = {i for e in ledger.entries for i in e.edited_token_ids}
        assert edited_ids
        for _ in range(100):
            k = int(rng.integers(1, 4))
            prompt = " ".join(rng.choice(probe_pool, size=k, replace=True))
            assert not (set(bundle.vocab.prompt_token_ids(prompt)) & edited_ids)
            a = bundle.encode_prompt(prompt).sequence.array.tobytes()
            b = reference.encode_prompt(prompt).sequence.array.tobytes()
            assert a == b


class TestHyperparamValidation:
    def test_stop_ratio_range(self):
        with pytest.raises(ValueError):
            EditHyperparams(stop_ratio=1.5)
        with pytest.raises(ValueError):
            EditHyperparams(stop_ratio=-0.1)

    def test_learning_rate_positive(self):
        with pytest.raises(ValueError):
            EditHyperparams(learning_rate=0.0)

    def test_max_iters_positive(self):
        with pytest.raises(ValueError):
            EditHyperparams(max_iters=0)
