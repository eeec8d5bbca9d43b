import numpy as np
import pytest

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
    revert,
)
from embedit.autodiff import Tape, backward
from embedit.editor import _taped_mse
from embedit.encoder import HiddenStates, encode, tokenize
from embedit.errors import DegenerateInputError, DimensionError, DivergenceError

from conftest import diverge_adam, make_bundle


def hs(matrix, eos_position=None):
    t = Tensor(matrix)
    eos = t.shape[0] - 1 if eos_position is None else eos_position
    return HiddenStates(sequence=t, pooled=Tensor(t.array[eos]), eos_position=eos)


def symmetric_bundle(seed=42):
    """Copy the "male" row onto "female" so gendered prompts encode identically."""
    bundle = make_bundle(seed=seed)
    male_id = bundle.vocab.tokens["male"]
    female_id = bundle.vocab.tokens["female"]
    bundle.weights.set_wte_rows([female_id], bundle.weights.wte.array[male_id][None, :])
    return bundle


class TestInitProfessionEmbedding:
    def test_three_equal_vectors(self):
        v = Tensor([1.0, -2.0, 3.0])
        assert np.allclose(init_profession_embedding(v, v, v).array, v.array)

    def test_hand_arithmetic(self):
        out = init_profession_embedding(
            Tensor([3.0, 0.0]), Tensor([0.0, 3.0]), Tensor([0.0, 0.0])
        )
        assert out.array.tolist() == [1.0, 1.0]

    def test_two_zero_one_triple(self):
        e = np.array([0.0, 1.0, 0.0])
        out = init_profession_embedding(Tensor(3 * e), Tensor(0 * e), Tensor(0 * e))
        assert np.array_equal(out.array, e)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            init_profession_embedding(Tensor([1.0]), Tensor([1.0, 2.0]), Tensor([1.0]))


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
        out = balanced_loss(h_p, h_csp, h_sp, 1.0, LossPositions.FULL_SEQUENCE)
        assert out == 1.0 + 4.0

    def test_all_equal_is_zero(self):
        h = hs(np.ones((3, 2)))
        assert balanced_loss(h, h, h, 2.0, LossPositions.FULL_SEQUENCE) == 0.0

    def test_hand_arithmetic(self):
        # alpha=2, MSE(p,csp)=1, MSE(p,sp)=4: 4*1 + 0.25*4 = 5
        h_p = hs(np.zeros((2, 2)))
        h_csp = hs(np.ones((2, 2)))
        h_sp = hs(2.0 * np.ones((2, 2)))
        assert balanced_loss(h_p, h_csp, h_sp, 2.0, LossPositions.FULL_SEQUENCE) == 5.0

    def test_nonnegative_random(self, rng):
        for _ in range(50):
            h_p = hs(rng.normal(size=(3, 4)))
            h_csp = hs(rng.normal(size=(3, 4)))
            h_sp = hs(rng.normal(size=(3, 4)))
            assert balanced_loss(h_p, h_csp, h_sp, 3.0, LossPositions.FULL_SEQUENCE) >= 0.0


class TestEditBalanceManual:
    def test_delegates_to_plain_edit(self):
        request = BiasEditRequest(
            profession="teacher",
            stereotypical_prompt="female teacher",
            counter_prompt="male teacher",
            mode=BalanceMode.MANUAL,
            lambda_manual=0.3,
        )
        params = BalancerParams(learning_rate=1e-2, max_iters=200)
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

    def test_manual_requires_lambda(self):
        with pytest.raises(ValueError):
            BiasEditRequest(
                profession="teacher",
                stereotypical_prompt="female teacher",
                counter_prompt="male teacher",
                mode=BalanceMode.MANUAL,
            )


class TestEditBalanceAuto:
    def request(self):
        return BiasEditRequest(
            profession="teacher",
            stereotypical_prompt="male teacher",
            counter_prompt="female teacher",
            mode=BalanceMode.AUTO,
        )

    def test_symmetric_fixture_alpha_floor_and_loss_decrease(self):
        bundle = symmetric_bundle()
        teacher = bundle.vocab.tokens["teacher"]
        ledger = EditLedger()
        res = edit_balance(bundle, self.request(), BalancerParams(learning_rate=1e-2), ledger)
        assert res.final_loss < res.initial_loss
        assert res.optimizer_steps >= 1
        assert res.edited_token_ids == (teacher,)
        # Gendered prompts stay interchangeable, so the measured gap is zero
        # and the weight sits at its floor; encode both to confirm.
        h_sp = bundle.encode_prompt("male teacher")
        h_csp = bundle.encode_prompt("female teacher")
        assert h_sp.sequence.array.tobytes() == h_csp.sequence.array.tobytes()

    def test_only_profession_rows_change(self):
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.copy()
        edit_balance(bundle, self.request(), BalancerParams(), EditLedger())
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
                         BalancerParams(learning_rate=1e-2, max_iters=5), ledger)
        assert exc.value.iteration == 2
        assert bundle.weights.wte.array.tobytes() == before
        assert len(ledger) == 0

    def test_auto_edit_is_revertible(self):
        bundle = symmetric_bundle()
        before = bundle.weights.wte.array.tobytes()
        ledger = EditLedger()
        edit_balance(bundle, self.request(), BalancerParams(), ledger)
        assert bundle.weights.wte.array.tobytes() != before
        revert(bundle.weights, ledger, 1)
        assert bundle.weights.wte.array.tobytes() == before

    def test_degenerate_distances_warn_and_use_alpha_floor(self):
        bundle = make_bundle()
        request = BiasEditRequest(
            profession="teacher",
            stereotypical_prompt="teacher",
            counter_prompt="teacher",
            mode=BalanceMode.AUTO,
        )
        with pytest.warns(UserWarning, match="gender-neutral"):
            res = edit_balance(bundle, request, BalancerParams(max_iters=3), EditLedger())
        assert res.initial_loss == 0.0

    def test_large_alpha_direction_approaches_pure_counter_gradient(self):
        bundle = make_bundle()
        config, weights, vocab = bundle.config, bundle.weights, bundle.vocab
        teacher = vocab.tokens["teacher"]
        p_tokens = tokenize("teacher", vocab, config)
        h_csp = bundle.encode_prompt("female teacher")
        h_sp = bundle.encode_prompt("male teacher")
        rows = config.context_length
        alpha = 1e6

        def grad_of(build_loss):
            tape = Tape()
            leaf = Tensor(weights.wte.array[[teacher]])
            h_p = encode(p_tokens, weights, config, tape, edit_rows=([teacher], leaf))
            loss = build_loss(tape, h_p)
            return backward(tape, loss)[leaf].array[0]

        g_pure = grad_of(lambda tape, h_p: _taped_mse(h_p, h_csp, rows, tape))

        from embedit.autodiff import add, scale
        g_balanced = grad_of(lambda tape, h_p: add(
            scale(_taped_mse(h_p, h_csp, rows, tape), alpha ** 2, tape),
            scale(_taped_mse(h_p, h_sp, rows, tape), (1.0 / alpha) ** 2, tape),
            tape,
        ))
        rel = np.abs(g_balanced / alpha ** 2 - g_pure) / np.maximum(np.abs(g_pure), 1e-12)
        assert rel.max() < 1e-6
