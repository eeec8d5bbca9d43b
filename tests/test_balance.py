import json

import numpy as np
import pytest

import embedit.balance as balance
from embedit import (
    BalanceMode,
    BalancerParams,
    BiasEditRequest,
    EditHyperparams,
    EditLedger,
    EditRequest,
    LossPositions,
    Tensor,
    alpha_weight,
    balanced_loss,
    bias_rate_delta,
    edit_balance,
    edit_single,
    init_profession_embedding,
    mse_hidden,
    revert,
)
from embedit.autodiff import Tape, backward
from embedit.editor import _hidden_mse
from embedit.encoder import HiddenStates, encode, tokenize
from embedit.errors import (
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    UnknownTokenError,
)

from conftest import WORDS, diverge_adam, make_bundle, make_vocab


def hs(matrix, eos_position=None):
    t = Tensor(matrix)
    eos = t.shape[0] - 1 if eos_position is None else eos_position
    return HiddenStates(sequence=t, eos_position=eos)


def symmetric_bundle(seed=42):
    """Copy the "male" row onto "female" so gendered prompts encode identically."""
    bundle = make_bundle(seed=seed)
    male_id = bundle.vocab.tokens["male"]
    female_id = bundle.vocab.tokens["female"]
    bundle.weights.set_wte_rows([female_id], bundle.weights.wte.array[male_id][None, :])
    return bundle


class TestInitProfessionEmbedding:
    def test_three_equal_vectors(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.allclose(init_profession_embedding(v[None, :], v, v), v[None, :])

    def test_hand_arithmetic(self):
        out = init_profession_embedding(
            np.array([[3.0, 0.0], [0.0, 6.0]]), np.array([0.0, 3.0]), np.array([0.0, 0.0])
        )
        assert out.tolist() == [[1.0, 1.0], [0.0, 3.0]]

    def test_two_zero_one_triple(self):
        e = np.array([0.0, 1.0, 0.0])
        out = init_profession_embedding(3 * e[None, :], 0 * e, 0 * e)
        assert np.array_equal(out, e[None, :])

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            init_profession_embedding(np.ones((1, 1)), np.ones(2), np.ones(1))


class TestBiasRateDelta:
    def test_equal_distances_give_zero(self):
        assert bias_rate_delta(2.5, 2.5) == 0.0

    def test_hand_arithmetic(self):
        # |3-1| / (0.5*(3+1)) / 2 = (2/2)/2 = 0.5
        assert bias_rate_delta(3.0, 1.0) == 0.5

    def test_one_sided(self):
        # |2-0| / (0.5*2) / 2 = (2/1)/2 = 1.0
        assert bias_rate_delta(2.0, 0.0) == 1.0

    def test_both_zero_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            bias_rate_delta(0.0, 0.0)

    def test_result_bounded_by_one(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0, 10, size=2)
            if a == 0 and b == 0:
                continue
            assert 0.0 <= bias_rate_delta(float(a), float(b)) <= 1.0


class TestAlphaWeight:
    @pytest.mark.parametrize("delta,expected", [(0.0, 2.0), (0.1, 2.0), (0.5, 5.0), (1.0, 10.0)])
    def test_grid(self, delta, expected):
        assert alpha_weight(delta, BalancerParams()) == expected

    def test_monotone_in_delta(self):
        params = BalancerParams()
        grid = np.linspace(0, 1, 21)
        values = [alpha_weight(float(d), params) for d in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert min(values) >= params.alpha_min

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_weight(1.5, BalancerParams())


class TestBalancedLoss:
    def test_alpha_one_is_plain_sum(self):
        h_p = hs(np.zeros((2, 2)))
        h_csp = hs(np.ones((2, 2)))
        h_sp = hs(2.0 * np.ones((2, 2)))
        out = balanced_loss(h_p, h_csp, h_sp, 1.0)
        assert out == 1.0 + 4.0

    def test_all_equal_is_zero(self):
        h = hs(np.ones((3, 2)))
        assert balanced_loss(h, h, h, 2.0) == 0.0

    def test_hand_arithmetic(self):
        # alpha=2, MSE(p,csp)=1, MSE(p,sp)=4: 4*1 + 0.25*4 = 5
        h_p = hs(np.zeros((2, 2)))
        h_csp = hs(np.ones((2, 2)))
        h_sp = hs(2.0 * np.ones((2, 2)))
        assert balanced_loss(h_p, h_csp, h_sp, 2.0) == 5.0

    def test_nonnegative_random(self, rng):
        for _ in range(50):
            h_p = hs(rng.normal(size=(3, 4)))
            h_csp = hs(rng.normal(size=(3, 4)))
            h_sp = hs(rng.normal(size=(3, 4)))
            assert balanced_loss(h_p, h_csp, h_sp, 3.0) >= 0.0


class TestEditBalanceManual:
    def test_delegates_to_plain_edit(self):
        request = BiasEditRequest(
            profession="teacher",
            stereotypical_prompt="female teacher",
            counter_prompt="male teacher",
        )
        params = BalancerParams(learning_rate=1e-2, max_iters=200, stop_ratio=0.3)
        balanced = make_bundle(seed=5)
        res = edit_balance(balanced, request, params, EditLedger())

        plain = make_bundle(seed=5)
        expected = edit_single(
            plain,
            EditRequest("teacher", "male teacher", "teacher"),
            EditHyperparams(stop_ratio=0.3, max_iters=200, learning_rate=1e-2),
            EditLedger(),
        )
        assert res == expected
        assert res.threshold_tau == 0.3 * res.initial_loss

    def test_a_mode_given_as_a_string_runs_as_its_member(self):
        request = BiasEditRequest("teacher", "female teacher", "male teacher")
        ledgers = []
        for mode in ("manual", BalanceMode.MANUAL):
            params = BalancerParams(mode=mode, learning_rate=1e-2, max_iters=20, stop_ratio=0.3)
            assert params.mode is BalanceMode.MANUAL
            ledger = EditLedger()
            res = edit_balance(make_bundle(seed=5), request, params, ledger)
            # Manual mode's threshold; auto mode's is 0.
            assert res.threshold_tau == 0.3 * res.initial_loss > 0.0
            ledgers.append(json.dumps(ledger.to_json()))
        assert ledgers[0] == ledgers[1]


@pytest.mark.parametrize("mode", list(BalanceMode))
def test_edit_balance_returns_the_entry_it_appended(mode):
    request = BiasEditRequest("teacher", "female teacher", "male teacher")
    ledger = EditLedger()
    entry = edit_balance(make_bundle(seed=5), request,
                         BalancerParams(mode=mode, learning_rate=1e-2, max_iters=5), ledger)
    assert len(ledger) == 1
    assert entry is ledger.entries[0]


class TestBalancerParams:
    def test_hyper_is_the_loops_settings_in_each_mode(self):
        def params(mode):
            return BalancerParams(mode=mode, learning_rate=1e-2, max_iters=7, stop_ratio=0.3)

        loop = EditHyperparams(stop_ratio=0.3, max_iters=7, learning_rate=1e-2)
        assert params(BalanceMode.MANUAL).hyper() == loop
        assert params(BalanceMode.AUTO).hyper() == EditHyperparams(
            stop_ratio=0.0, max_iters=7, learning_rate=1e-2)
        assert params("manual").hyper() == loop
        assert params("auto").hyper() == params(BalanceMode.AUTO).hyper()

    def test_defaults_are_the_edits(self):
        assert BalancerParams().mode is BalanceMode.MANUAL
        assert BalancerParams().hyper() == EditHyperparams()

    def test_a_mode_that_names_no_member_raises(self):
        with pytest.raises(ValueError, match="is not a valid BalanceMode"):
            BalancerParams(mode="nonsense")

    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_stop_ratio_is_checked_in_auto_mode(self, value):
        # Auto mode runs with stop_ratio 0, but a bad setting is still refused.
        with pytest.raises(ValueError, match="stop_ratio must be in"):
            BalancerParams(mode="auto", stop_ratio=value)

    @pytest.mark.parametrize("field,value,message", [
        ("stop_ratio", 1.5, "stop_ratio must be in"), ("stop_ratio", -0.1, "stop_ratio must be in"),
        ("learning_rate", 0.0, "learning_rate must"), ("learning_rate", float("nan"),
                                                       "learning_rate must"),
        ("max_iters", 0, r"max_iters must be an integer in \[1, inf\), got 0"),
        ("max_iters", 2.5, "max_iters must be an integer"),
        ("max_iters", True, "max_iters must be an integer"),
    ])
    def test_loop_settings_are_checked_by_the_edits_rule(self, field, value, message):
        # Checked when made, whatever the mode it will run in.
        with pytest.raises(ValueError, match=message):
            BalancerParams(**{field: value})


class TestEditBalanceAuto:
    def request(self):
        return BiasEditRequest(
            profession="teacher",
            stereotypical_prompt="male teacher",
            counter_prompt="female teacher",
        )

    def params(self, **settings):
        return BalancerParams(mode=BalanceMode.AUTO, **settings)

    def test_a_gendered_word_split_in_two_is_refused_before_any_forward(self, monkeypatch):
        # The CLI checks the same rule, gendered_token_ids, before its reads.
        import embedit.encoder as encoder

        words = [w for w in WORDS if w != "female"] + ["fe"]
        bundle = make_bundle(vocab=make_vocab(words, {"female": ["fe", "male"]}))
        before = bundle.weights.wte.array.tobytes()
        monkeypatch.setattr(encoder, "_forward", None)  # a forward would raise TypeError
        ledger = EditLedger()
        with pytest.raises(UnknownTokenError,
                           match="'female' must map to a single token for averaging"):
            edit_balance(bundle, self.request(), self.params(), ledger)
        assert bundle.weights.wte.array.tobytes() == before
        assert len(ledger) == 0

    def test_symmetric_fixture_alpha_floor_and_loss_decrease(self):
        bundle = symmetric_bundle()
        teacher = bundle.vocab.tokens["teacher"]
        ledger = EditLedger()
        res = edit_balance(bundle, self.request(), self.params(learning_rate=1e-2), ledger)
        assert res.final_loss < res.initial_loss
        assert res.optimizer_steps >= 1
        assert res.edited_token_ids == (teacher,)
        # Gendered prompts stay interchangeable, so the measured gap is zero
        # and the weight sits at its floor; encode both to confirm.
        h_sp = bundle.encode_prompt("male teacher")
        h_csp = bundle.encode_prompt("female teacher")
        assert h_sp.sequence.array.tobytes() == h_csp.sequence.array.tobytes()

    def test_initial_loss_is_balanced_loss_at_averaged_rows(self):
        bundle = make_bundle()
        wte, tokens = bundle.weights.wte.array, bundle.vocab.tokens
        teacher = tokens["teacher"]
        averaged = (wte[teacher] + wte[tokens["female"]] + wte[tokens["male"]]) / 3.0
        rows = ([teacher], Tensor(averaged[None, :]))
        h_p0, h_csp, h_sp = (bundle.encode_prompt(p, edit_rows=rows)
                             for p in ("teacher", "female teacher", "male teacher"))
        full = LossPositions.FULL_SEQUENCE
        params = self.params(max_iters=3)
        delta = bias_rate_delta(mse_hidden(h_p0, h_sp, full), mse_hidden(h_p0, h_csp, full))
        alpha = alpha_weight(delta, params)
        res = edit_balance(bundle, self.request(), params, EditLedger())
        assert res.initial_loss == balanced_loss(h_p0, h_csp, h_sp, alpha)
        assert res.threshold_tau == 0.0

    def test_profession_is_encoded_once_per_score(self, monkeypatch):
        # max_iters=1: iteration 1 (taped, which also fixes alpha), then the
        # capped final score; no separate encode for alpha.
        import embedit.editor as editor

        bundle = make_bundle()
        p_ids = bundle.tokenize("teacher").ids
        seen = []
        for module in (balance, editor):
            def spy(tokens, *args, real=module.encode, **kwargs):
                seen.append(tokens.ids)
                return real(tokens, *args, **kwargs)
            monkeypatch.setattr(module, "encode", spy)
        res = edit_balance(bundle, self.request(), self.params(max_iters=1), EditLedger())
        assert res.optimizer_steps == 1
        assert seen.count(p_ids) == 2

    def test_only_profession_rows_change(self):
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.copy()
        edit_balance(bundle, self.request(), self.params(), EditLedger())
        teacher = bundle.vocab.tokens["teacher"]
        changed = np.any(bundle.weights.wte.array != before, axis=1)
        assert changed[teacher]
        assert not np.any(np.delete(changed, teacher))

    def test_divergence_mid_loop_leaves_table_and_ledger_untouched(self, monkeypatch):
        diverge_adam(monkeypatch, nth_adam=1, nth_step=2)
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.tobytes()
        ledger = EditLedger()
        with pytest.raises(DivergenceError) as exc:
            edit_balance(bundle, self.request(),
                         self.params(learning_rate=1e-2, max_iters=5), ledger)
        assert exc.value.iteration == 2
        assert bundle.weights.wte.array.tobytes() == before
        assert len(ledger) == 0

    def test_overflow_is_divergence_and_leaves_table_and_ledger_untouched(self):
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.tobytes()
        ledger = EditLedger()
        with pytest.raises(DivergenceError):
            edit_balance(bundle, self.request(), self.params(learning_rate=1e300), ledger)
        assert bundle.weights.wte.array.tobytes() == before
        assert len(ledger) == 0

    def test_averaged_rows_are_written_without_a_step(self):
        # The profession as both gendered prompts: the first score is 0, which
        # meets tau = 0 before any step.
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.tobytes()
        vocab, wte = bundle.vocab, bundle.weights.wte
        teacher = vocab.tokens["teacher"]
        averaged = init_profession_embedding(
            wte.array[[teacher]], wte.array[vocab.tokens["female"]],
            wte.array[vocab.tokens["male"]])
        ledger = EditLedger()
        request = BiasEditRequest("teacher", "teacher", "teacher")
        with pytest.warns(UserWarning, match="gender-neutral"):
            res = edit_balance(bundle, request, self.params(), ledger)
        assert (res.iterations_run, res.optimizer_steps) == (1, 0)
        assert np.array_equal(bundle.weights.wte.array[[teacher]], averaged)
        assert np.array_equal(ledger.entries[0].new_rows, averaged)
        revert(bundle.weights, ledger, 1)
        assert bundle.weights.wte.array.tobytes() == before

    def test_a_nonzero_loss_runs_every_iteration_and_step(self):
        # tau = 0 and no other stop: the loop ends only at max_iters.
        res = edit_balance(make_bundle(), self.request(), self.params(max_iters=4), EditLedger())
        assert res.initial_loss > 0.0
        assert (res.iterations_run, res.optimizer_steps, res.converged) == (4, 4, False)

    def test_auto_edit_is_revertible(self):
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.tobytes()
        ledger = EditLedger()
        edit_balance(bundle, self.request(), self.params(), ledger)
        assert bundle.weights.wte.array.tobytes() != before
        revert(bundle.weights, ledger, 1)
        assert bundle.weights.wte.array.tobytes() == before

    def test_degenerate_distances_warn_and_use_alpha_floor(self):
        bundle = make_bundle()
        request = BiasEditRequest(
            profession="teacher",
            stereotypical_prompt="teacher",
            counter_prompt="teacher",
        )
        with pytest.warns(UserWarning, match="gender-neutral"):
            res = edit_balance(bundle, request, self.params(max_iters=3), EditLedger())
        assert res.initial_loss == 0.0

    def test_large_alpha_direction_approaches_pure_counter_gradient(self):
        bundle = make_bundle()
        config, weights, vocab = bundle.config, bundle.weights, bundle.vocab
        teacher = vocab.tokens["teacher"]
        p_tokens = tokenize("teacher", vocab, config)
        h_csp = bundle.encode_prompt("female teacher")
        h_sp = bundle.encode_prompt("male teacher")
        full = LossPositions.FULL_SEQUENCE
        alpha = 1e6

        def grad_of(build_loss):
            tape = Tape()
            leaf = Tensor(weights.wte.array[[teacher]])
            h_p = encode(p_tokens, weights, config, tape, edit_rows=([teacher], leaf))
            loss = build_loss(tape, h_p)
            return backward(tape, loss)[leaf].array[0]

        g_pure = grad_of(lambda tape, h_p: _hidden_mse(h_p, h_csp, full, tape))
        g_balanced = grad_of(lambda tape, h_p: balance._reward_penalty(
            _hidden_mse(h_p, h_csp, full, tape), _hidden_mse(h_p, h_sp, full, tape), alpha, tape))
        rel = np.abs(g_balanced / alpha ** 2 - g_pure) / np.maximum(np.abs(g_pure), 1e-12)
        assert rel.max() < 1e-6
