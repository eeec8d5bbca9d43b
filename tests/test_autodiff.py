import math

import numpy as np
import pytest

from embedit.autodiff import (
    Tape,
    Tensor,
    add,
    add_bias,
    backward,
    concat_cols,
    finite_difference_grad,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mean_square,
    mul,
    scale,
    slice_cols,
    slice_rows,
    softmax_rows,
    sub,
    substitute_rows,
    sum_all,
    transpose,
)
from embedit.errors import DimensionError, TapeUsageError


class TestTensor:
    def test_data_is_flat_row_major(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert t.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            Tensor([float("inf")])

    def test_backing_array_is_read_only(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_construction_copies_input(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.array[0] == 1.0


class TestMatmul:
    def test_identity(self):
        m = Tensor([[3.0, 1.0], [4.0, 1.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(matmul(eye, m).array, m.array)

    def test_hand_arithmetic(self):
        # [[1,2],[3,4]] @ [[0],[1]]: rows give 1*0+2*1=2 and 3*0+4*1=4
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        assert out.array.tolist() == [[2.0], [4.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestLayerNorm:
    def test_constant_slice_is_zero(self):
        out = layer_norm(
            Tensor([7.0, 7.0, 7.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5
        )
        assert np.allclose(out.array, 0.0)

    def test_hand_arithmetic_eps_zero(self):
        # x=[1,3]: mean 2, population var 1, so normalized values are [-1, 1]
        out = layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0)
        assert np.allclose(out.array, [-1.0, 1.0], atol=1e-15)

    def test_gamma_zero_gives_beta(self):
        beta = Tensor([3.0, -1.0, 2.0])
        out = layer_norm(Tensor([1.0, 5.0, 9.0]), Tensor(np.zeros(3)), beta, eps=1e-5)
        assert np.array_equal(out.array, beta.array)

    def test_bad_gamma_length(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor([1.0, 2.0]), Tensor([1.0]), Tensor([0.0, 0.0]), eps=1e-5)

    def test_normalization_invariant(self, rng):
        x = Tensor(rng.normal(size=(5, 16)))
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=0.0)
        mean = out.array.mean(axis=-1)
        var = out.array.var(axis=-1)
        assert np.all(np.abs(mean) <= 1e-10)
        assert np.all(np.abs(var - 1.0) <= 1e-8)


class TestSoftmax:
    def test_uniform(self):
        out = softmax_rows(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.array, [1 / 3] * 3, atol=1e-15)

    def test_hand_arithmetic(self):
        out = softmax_rows(Tensor([math.log(1.0), math.log(3.0)]))
        assert np.allclose(out.array, [0.25, 0.75], atol=1e-15)

    def test_masked_position_vanishes(self):
        out = softmax_rows(Tensor([[0.0, -1e9, 1.0]]))
        assert out.array[0, 1] < 1e-300

    def test_rows_sum_to_one(self, rng):
        out = softmax_rows(Tensor(rng.normal(size=(7, 9)) * 10))
        assert np.all(np.abs(out.array.sum(axis=-1) - 1.0) <= 1e-12)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).array[0] == 0.0

    def test_large_input_asymptote(self):
        out = gelu(Tensor([10.0])).array[0]
        assert abs(out - 10.0) / 10.0 < 1e-6

    def test_matches_scalar_oracle_at_one(self):
        # Independently coded scalar evaluation of the same formula.
        x = 1.0
        inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
        expected = 0.5 * x * (1.0 + math.tanh(inner))
        assert gelu(Tensor([x])).array[0] == pytest.approx(expected, rel=0, abs=1e-15)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        tape = Tape()
        tape.watch(x)
        loss = sum_all(x, tape)
        g = backward(tape, loss)[x]
        assert np.array_equal(g.array, np.ones((2, 3)))

    def test_mse_analytic_formula(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        y = Tensor(rng.normal(size=(3, 4)))
        tape = Tape()
        tape.watch(x)
        loss = mean_square(sub(x, y, tape), tape)
        g = backward(tape, loss)[x]
        expected = 2.0 * (x.array - y.array) / x.size
        assert np.allclose(g.array, expected, rtol=1e-14)

    def test_loss_not_on_tape_is_usage_error(self):
        x = Tensor([1.0])
        tape = Tape()
        tape.watch(x)
        stray = Tensor([2.0])
        with pytest.raises(TapeUsageError):
            backward(tape, stray)

    def test_non_scalar_loss_is_usage_error(self):
        x = Tensor([1.0, 2.0])
        tape = Tape()
        tape.watch(x)
        out = add(x, x, tape)
        with pytest.raises(TapeUsageError):
            backward(tape, out)

    def test_unreached_leaf_gets_zero_gradient(self):
        x = Tensor([1.0, 2.0])
        other = Tensor([3.0, 4.0])
        tape = Tape()
        tape.watch(x)
        tape.watch(other)
        loss = sum_all(x, tape)
        grads = backward(tape, loss)
        assert np.array_equal(grads[other].array, np.zeros(2))

    def test_unwatched_leaf_not_materialized(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0])
        tape = Tape()
        tape.watch(x)
        loss = sum_all(add(x, y, tape), tape)
        grads = backward(tape, loss)
        assert x in grads and y not in grads


class TestFiniteDifferenceGrad:
    def test_square_at_three(self):
        f = lambda t: float(t.array[0] ** 2)
        g = finite_difference_grad(f, Tensor([3.0]), h=1e-5)
        assert abs(g.array[0] - 6.0) < 1e-8

    def test_constant_function(self):
        g = finite_difference_grad(lambda t: 4.2, Tensor([1.0, 2.0, 3.0]), h=1e-5)
        assert np.array_equal(g.array, np.zeros(3))

    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        g = finite_difference_grad(lambda t: float(t.array.sum()), x, h=1e-5)
        assert np.all(np.abs(g.array - 1.0) < 1e-9)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)


def _vjp_via_backward(apply_op, inputs, wrt_index, cotangent):
    """<J^T gbar, .> through the public API: loss = sum(f(inputs) * gbar)."""
    tape = Tape()
    tape.watch(inputs[wrt_index])
    out = apply_op(tape, *inputs)
    loss = sum_all(mul(out, Tensor(cotangent), tape), tape)
    return backward(tape, loss)[inputs[wrt_index]].array


def _directional_derivative(apply_op, inputs, wrt_index, cotangent, direction, h=1e-6):
    """<gbar, Jv> by central differencing of t -> <gbar, f(x + t v)>."""
    def phi(t):
        shifted = list(inputs)
        shifted[wrt_index] = Tensor(inputs[wrt_index].array + t * direction)
        return float(np.sum(apply_op(None, *shifted).array * cotangent))

    return (phi(h) - phi(-h)) / (2.0 * h)


# (name, apply(tape, *tensors), input shapes, which inputs to differentiate)
_PRIMITIVES = [
    ("add", lambda tp, a, b: add(a, b, tp), [(3, 4), (3, 4)], (0, 1)),
    ("sub", lambda tp, a, b: sub(a, b, tp), [(3, 4), (3, 4)], (0, 1)),
    ("mul", lambda tp, a, b: mul(a, b, tp), [(3, 4), (3, 4)], (0, 1)),
    ("scale", lambda tp, a: scale(a, -1.7, tp), [(3, 4)], (0,)),
    ("add_bias", lambda tp, x, b: add_bias(x, b, tp), [(3, 4), (4,)], (0, 1)),
    ("matmul", lambda tp, a, b: matmul(a, b, tp), [(3, 4), (4, 2)], (0, 1)),
    ("transpose", lambda tp, a: transpose(a, tp), [(3, 4)], (0,)),
    ("slice_rows", lambda tp, a: slice_rows(a, 1, 3, tp), [(4, 3)], (0,)),
    ("slice_cols", lambda tp, a: slice_cols(a, 1, 3, tp), [(3, 4)], (0,)),
    ("concat_cols", lambda tp, a, b: concat_cols([a, b], tp), [(3, 2), (3, 3)], (0, 1)),
    ("gather_rows", lambda tp, t: gather_rows(t, [2, 0, 2, 1], tp), [(4, 3)], (0,)),
    # Id 2 repeats inside the leaf, 0 repeats outside it, 4 is never used.
    (
        "substitute_rows",
        lambda tp, x, leaf: substitute_rows(x, [2, 0, 2, 1, 0, 3], [3, 2, 4], leaf, tp),
        [(6, 3), (3, 3)],
        (0, 1),
    ),
    (
        "layer_norm",
        lambda tp, x, g, b: layer_norm(x, g, b, 1e-5, tp),
        [(3, 6), (6,), (6,)],
        (0, 1, 2),
    ),
    ("softmax_rows", lambda tp, m: softmax_rows(m, tp), [(3, 5)], (0,)),
    ("gelu", lambda tp, x: gelu(x, tp), [(3, 4)], (0,)),
    ("mean_square", lambda tp, x: mean_square(x, tp), [(3, 4)], (0,)),
    ("sum_all", lambda tp, x: sum_all(x, tp), [(3, 4)], (0,)),
]


@pytest.mark.parametrize("name,apply_op,shapes,wrt", _PRIMITIVES, ids=[p[0] for p in _PRIMITIVES])
def test_randomized_vjp_consistency(name, apply_op, shapes, wrt):
    """<gbar, Jv> from forward differencing equals <J^T gbar, v> from the tape."""
    rng = np.random.default_rng(1234)
    trials_per_input = max(100 // len(wrt) + 1, 50)
    for wrt_index in wrt:
        for _ in range(trials_per_input):
            inputs = [Tensor(rng.normal(size=s)) for s in shapes]
            out_shape = apply_op(None, *inputs).shape
            cotangent = rng.normal(size=out_shape)
            direction = rng.normal(size=shapes[wrt_index])
            lhs = _directional_derivative(apply_op, inputs, wrt_index, cotangent, direction)
            rhs = float(np.sum(_vjp_via_backward(apply_op, inputs, wrt_index, cotangent) * direction))
            denom = max(abs(lhs), abs(rhs), 1e-6)
            assert abs(lhs - rhs) / denom < 1e-6, f"{name} wrt input {wrt_index}"


def test_encoder_loss_gradient_matches_finite_differences():
    """Full forward pass through the tiny encoder: taped gradient of the
    hidden-state MSE w.r.t. one embedding row vs. the central-difference
    oracle, coordinate by coordinate."""
    from embedit import LossPositions, encode, mse_hidden, tokenize
    from embedit.editor import _taped_mse
    from conftest import make_bundle

    bundle = make_bundle(seed=42)
    config, weights, vocab = bundle.config, bundle.weights, bundle.vocab
    src = tokenize("a bear", vocab, config)
    dst = tokenize("a polar bear", vocab, config)
    h_new = encode(dst, weights, config)
    bear = vocab.tokens["bear"]

    tape = Tape()
    leaf = Tensor(weights.wte.array[[bear]])
    h = encode(src, weights, config, tape, edit_rows=([bear], leaf))
    loss = _taped_mse(h, h_new, config.context_length, tape)
    analytic = backward(tape, loss)[leaf].array[0]

    row0 = weights.wte.array[bear].copy()

    def f(row):
        weights.set_wte_rows([bear], row.array[None, :])
        return mse_hidden(encode(src, weights, config), h_new,
                          LossPositions.FULL_SEQUENCE)

    fd = finite_difference_grad(f, Tensor(row0), h=1e-5).array
    weights.set_wte_rows([bear], row0[None, :])
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
    assert rel.max() < 1e-6


def test_gather_rows_out_of_range_is_index_error():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.ones((2, 2))), [0, 2])


def test_gather_rows_accumulates_repeated_ids():
    table = Tensor(np.ones((3, 2)))
    tape = Tape()
    tape.watch(table)
    out = gather_rows(table, [1, 1, 1], tape)
    loss = sum_all(out, tape)
    g = backward(tape, loss)[table].array
    assert np.array_equal(g[1], [3.0, 3.0])
