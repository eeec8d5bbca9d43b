import math

import numpy as np
import pytest

from embedit.autodiff import (
    ATTENTION_MASK_VALUE,
    Tape,
    Tensor,
    add,
    add_bias,
    attention,
    backward,
    concat_cols,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mean_square,
    scale,
    slice_cols,
    slice_rows,
    softmax_rows,
    sub,
    substitute_rows,
    transpose,
)
from embedit.errors import DimensionError, NonFiniteError, TapeUsageError

from oracles import finite_difference_grad, mul, sum_all


def causal_mask(t):
    return Tensor(np.triu(np.full((t, t), ATTENTION_MASK_VALUE), k=1))


class TestTensor:
    def test_shape_and_size(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            Tensor([float("inf")])
        with pytest.raises(NonFiniteError):
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

    def test_overflowing_variance_raises_instead_of_saturating(self):
        # Entries near 1e300 square to inf; the output must not collapse to beta.
        with pytest.raises(NonFiniteError, match="variance"):
            layer_norm(Tensor([1e300, -1e300]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       eps=1e-5)

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

    def test_matches_scalar_oracle_over_a_grid(self, rng):
        xs = np.concatenate([np.linspace(-30.0, 30.0), rng.normal(size=1000)])
        got = gelu(Tensor(xs)).array
        for x, y in zip(xs.tolist(), got.tolist()):
            inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
            assert y == pytest.approx(0.5 * x * (1.0 + math.tanh(inner)), rel=0, abs=1e-15), x

    @pytest.mark.parametrize("call", ["untaped", "unrecorded", "recorded"])
    def test_forward_and_vjp_are_bitwise_the_written_out_expressions(self, call):
        # CLIP-L's MLP width, with pre-activations over +-10: there the cubic
        # term reaches the last bit, so an operation out of order shows.
        rng = np.random.default_rng(21)
        a = rng.uniform(-10.0, 10.0, size=(77, 3072))
        cot = rng.normal(size=a.shape)
        c, k = 0.044715, math.sqrt(2.0 / math.pi)
        t = np.tanh(k * (a + c * (a * a * a)))
        expected = 0.5 * a * (1.0 + t)
        du = k * (1.0 + 3.0 * c * a * a)
        expected_grad = cot * (0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * du)

        x = Tensor(a)
        tape = None if call == "untaped" else Tape()
        if call == "recorded":
            tape.watch(x)
        out = gelu(x, tape)
        assert out.array.tobytes() == expected.tobytes()
        if call == "recorded":
            grad = backward(tape, sum_all(mul(out, Tensor(cot), tape), tape))[x]
            assert grad.array.tobytes() == expected_grad.tobytes()
        elif tape is not None:
            assert tape._steps == []


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

    def test_a_step_the_loss_never_reads_is_skipped(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        grads = []
        for unread in (False, True):
            tape = Tape()
            tape.watch(x)
            if unread:
                scale(x, 3.0, tape)  # recorded, but the loss never reads it
            grads.append(backward(tape, mean_square(x, tape))[x].array)
            assert len(tape._steps) == 1 + unread
        assert grads[1].tobytes() == grads[0].tobytes()

    def test_loss_not_on_tape_is_usage_error(self):
        x = Tensor([1.0])
        tape = Tape()
        tape.watch(x)
        stray = Tensor([2.0])
        with pytest.raises(TapeUsageError):
            backward(tape, stray)

    def test_watched_leaf_or_other_tapes_output_is_not_a_loss(self):
        x = Tensor([1.0])
        tape, other = Tape(), Tape()
        tape.watch(x)
        with pytest.raises(TapeUsageError):
            backward(tape, x)
        y = Tensor([2.0])
        other.watch(y)
        with pytest.raises(TapeUsageError):
            backward(tape, sum_all(y, other))

    def test_tensor_watched_by_another_tape_is_untracked(self):
        x = Tensor([1.0, 2.0])
        z = Tensor([3.0, 4.0])
        first, second = Tape(), Tape()
        first.watch(x)
        second.watch(z)
        # Nothing is recorded for x on the second tape, so its sum is no loss there.
        with pytest.raises(TapeUsageError):
            backward(second, sum_all(x, second))
        grads = backward(second, sum_all(mul(x, z, second), second))
        assert list(grads) == [z]
        assert np.array_equal(grads[z].array, x.array)

    def test_watching_twice_gives_one_gradient(self):
        x = Tensor([1.0, 2.0])
        tape = Tape()
        tape.watch(x)
        tape.watch(x)
        grads = backward(tape, sum_all(add(x, x, tape), tape))
        assert list(grads) == [x]
        assert np.array_equal(grads[x].array, np.full(2, 2.0))

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


# (name, apply(tape, *tensors), input shapes, the inputs it records, which carry
# a gradient; any other input is a constant to the tape)
_PRIMITIVES = [
    ("add", lambda tp, a, b: add(a, b, tp), [(3, 4), (3, 4)], (0, 1)),
    ("sub", lambda tp, a, b: sub(a, b, tp), [(3, 4), (3, 4)], (0,)),
    ("mul", lambda tp, a, b: mul(a, b, tp), [(3, 4), (3, 4)], (0, 1)),
    ("scale", lambda tp, a: scale(a, -1.7, tp), [(3, 4)], (0,)),
    ("add_bias", lambda tp, x, b: add_bias(x, b, tp), [(3, 4), (4,)], (0,)),
    ("matmul", lambda tp, a, b: matmul(a, b, tp), [(3, 4), (4, 2)], (0, 1)),
    ("transpose", lambda tp, a: transpose(a, tp), [(3, 4)], (0,)),
    ("slice_rows", lambda tp, a: slice_rows(a, 1, 3, tp), [(4, 3)], (0,)),
    ("slice_cols", lambda tp, a: slice_cols(a, 1, 3, tp), [(3, 4)], (0,)),
    ("concat_cols", lambda tp, a, b: concat_cols([a, b], tp), [(3, 2), (3, 3)], (0, 1)),
    # Id 2 repeats inside the leaf, 0 repeats outside it, 4 is never used.
    (
        "substitute_rows",
        lambda tp, x, leaf: substitute_rows(x, [2, 0, 2, 1, 0, 3], [3, 2, 4], leaf, tp),
        [(6, 3), (3, 3)],
        (1,),
    ),
    (
        "layer_norm",
        lambda tp, x, g, b: layer_norm(x, g, b, 1e-5, tp),
        [(3, 6), (6,), (6,)],
        (0,),
    ),
    ("softmax_rows", lambda tp, m: softmax_rows(m, tp), [(3, 5)], (0,)),
    (
        "attention",
        lambda tp, q, k, v: attention(q, k, v, 2, [5], tp),
        [(5, 6), (5, 6), (5, 6)],
        (0, 1, 2),
    ),
    # Four sequences in three runs: lengths 3, 3 | 2 | 5.
    (
        "attention_mixed_lengths",
        lambda tp, q, k, v: attention(q, k, v, 2, [3, 3, 2, 5], tp),
        [(13, 6), (13, 6), (13, 6)],
        (0, 1, 2),
    ),
    ("gelu", lambda tp, x: gelu(x, tp), [(3, 4)], (0,)),
    ("mean_square", lambda tp, x: mean_square(x, tp), [(3, 4)], (0,)),
    ("sum_all", lambda tp, x: sum_all(x, tp), [(3, 4)], (0,)),
]


_ADOPTING = [p for p in _PRIMITIVES if p[0] in {
    "substitute_rows", "add", "add_bias", "matmul", "layer_norm", "attention",
    "attention_mixed_lengths", "gelu"}] + [
    # Untaped, so not among the differentiated primitives.
    ("gather_rows", lambda tp, t: gather_rows(t, [2, 0, 2, 1]), [(4, 3)], ()),
    # One head: the merged output is a view of the stacked product, not a copy.
    ("attention_one_head", lambda tp, q, k, v: attention(q, k, v, 1, [5], tp),
     [(5, 6), (5, 6), (5, 6)], (0, 1, 2)),
]


@pytest.mark.parametrize("name,apply_op,shapes,wrt", _ADOPTING, ids=[p[0] for p in _ADOPTING])
def test_adopted_output_is_fresh_read_only_c_order_float64(name, apply_op, shapes, wrt):
    """What Tensor._wrap relies on: the primitive's output array is its own."""
    rng = np.random.default_rng(5)
    inputs = [Tensor(rng.normal(size=s)) for s in shapes]
    out = apply_op(None, *inputs).array
    assert out.dtype == np.float64
    assert out.flags.c_contiguous and not out.flags.writeable
    assert not any(np.shares_memory(out, x.array) for x in inputs)


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


_WITH_CONSTANTS = [p for p in _PRIMITIVES if len(p[3]) < len(p[2])]


@pytest.mark.parametrize("name,apply_op,shapes,wrt", _WITH_CONSTANTS,
                         ids=[p[0] for p in _WITH_CONSTANTS])
def test_an_input_a_primitive_does_not_record_gets_no_gradient(name, apply_op, shapes, wrt):
    rng = np.random.default_rng(7)
    inputs = [Tensor(rng.normal(size=s)) for s in shapes]
    tape = Tape()
    for x in inputs:
        tape.watch(x)
    out = apply_op(tape, *inputs)
    grads = backward(tape, sum_all(mul(out, Tensor(rng.normal(size=out.shape)), tape), tape))
    assert [i for i, x in enumerate(inputs) if grads[x].array.any()] == list(wrt)


def _per_head_attention(q, k, v, n_heads, mask, tape):
    """Reference: attention as the encoder composed it from 2-D primitives."""
    d_head = q.shape[1] // n_heads
    inv_sqrt = 1.0 / np.sqrt(d_head)
    heads = []
    for hd in range(n_heads):
        lo, hi = hd * d_head, (hd + 1) * d_head
        qh = slice_cols(q, lo, hi, tape)
        kh = slice_cols(k, lo, hi, tape)
        vh = slice_cols(v, lo, hi, tape)
        scores = scale(matmul(qh, transpose(kh, tape), tape), inv_sqrt, tape)
        attn = softmax_rows(add(scores, mask, tape), tape)
        heads.append(matmul(attn, vh, tape))
    return concat_cols(heads, tape)


@pytest.mark.parametrize("d,n_heads,t", [(8, 2, 8), (64, 4, 77), (768, 12, 77)])
def test_attention_is_bitwise_the_per_head_composition(d, n_heads, t):
    # The causal mask hides keys from every row but the last, so the
    # probabilities the VJP recomputes must hold the forward's exact zeros.
    assert np.count_nonzero(causal_mask(t).array == ATTENTION_MASK_VALUE) == t * (t - 1) // 2 > 0
    rng = np.random.default_rng(d)
    q, k, v = (Tensor(rng.normal(size=(t, d))) for _ in range(3))
    cotangent = Tensor(rng.normal(size=(t, d)))

    def run(apply):
        tape = Tape()
        for x in (q, k, v):
            tape.watch(x)
        out = apply(tape)
        grads = backward(tape, sum_all(mul(out, cotangent, tape), tape))
        return [out.array.tobytes()] + [grads[x].array.tobytes() for x in (q, k, v)]

    assert run(lambda tp: attention(q, k, v, n_heads, [t], tp)) == \
        run(lambda tp: _per_head_attention(q, k, v, n_heads, causal_mask(t), tp))


def _assert_each_sequence_alone(lengths):
    """Output and q, k, v gradients of a stack, sequence by sequence, are
    bitwise those of the sequence alone, whatever its run."""
    rng = np.random.default_rng(sum(lengths))
    q, k, v, cot = (rng.normal(size=(sum(lengths), 768)) for _ in range(4))

    def run(rows, lens):
        ins = [Tensor(a[rows]) for a in (q, k, v)]
        tape = Tape()
        for x in ins:
            tape.watch(x)
        out = attention(*ins, 12, lens, tape)
        grads = backward(tape, sum_all(mul(out, Tensor(cot[rows]), tape), tape))
        return [out.array] + [grads[x].array for x in ins]

    stacked = run(slice(None), lengths)
    start = 0
    for s, n in enumerate(lengths):
        rows = slice(start, start + n)
        alone = run(rows, [n])
        assert [a[rows].tobytes() for a in stacked] == [a.tobytes() for a in alone], (
            f"sequence {s} (n={n}) of the stack {lengths} is not bitwise itself alone: on "
            "this build the encoder's forward must run one n per stack, not a tolerance")
        start += n


@pytest.mark.parametrize("b,n", [(2, 77), (7, 8), (16, 8), (3, 24)])
def test_batched_attention_is_bitwise_each_sequence_alone(b, n):
    _assert_each_sequence_alone([n] * b)


@pytest.mark.parametrize("lengths", [[8, 16, 8, 77, 24, 24, 8], [77, 24, 16, 8, 8]],
                         ids=["interleaved", "descending"])
def test_mixed_length_attention_is_bitwise_each_sequence_alone(lengths):
    _assert_each_sequence_alone(lengths)


def test_attention_rejects_bad_shapes():
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(DimensionError, match="heads"):
        attention(x, x, x, 3, [3])
    # The lengths are positive and sum to the rows.
    for lengths in ([4], [1, 1], [], [3, 0], [4, -1]):
        with pytest.raises(DimensionError, match="lengths"):
            attention(x, x, x, 2, lengths)
    with pytest.raises(DimensionError):
        attention(x, Tensor(np.ones((3, 2))), x, 2, [3])


def test_encoder_loss_gradient_matches_finite_differences():
    """Full forward pass through the tiny encoder: taped gradient of the
    hidden-state MSE w.r.t. one embedding row vs. the central-difference
    oracle, coordinate by coordinate."""
    from embedit import LossPositions, encode, mse_hidden, tokenize
    from embedit.editor import _hidden_mse
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
    loss = _hidden_mse(h, h_new, LossPositions.FULL_SEQUENCE, tape)
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


_MATRIX, _VECTOR = Tensor(np.ones((2, 3))), Tensor(np.ones(3))


@pytest.mark.parametrize("call,message", [
    (lambda: _MATRIX.item(), r"item\(\) requires a scalar, got shape \(2, 3\)"),
    (lambda: add_bias(_VECTOR, _VECTOR), r"add_bias: shapes \(3,\) and \(3,\) incompatible"),
    (lambda: add_bias(_MATRIX, Tensor(np.ones(2))), r"add_bias: shapes \(2, 3\) and \(2,\)"),
    (lambda: transpose(_VECTOR), r"transpose: expected a matrix, got shape \(3,\)"),
    (lambda: slice_rows(_MATRIX, 1, 1), r"slice_rows: rows \[1:1\] invalid"),
    (lambda: slice_rows(_MATRIX, 0, 3), r"slice_rows: rows \[0:3\] invalid"),
    (lambda: slice_cols(_MATRIX, 2, 4), r"slice_cols: cols \[2:4\] invalid"),
    (lambda: slice_cols(_VECTOR, 0, 1), r"slice_cols: cols \[0:1\] invalid"),
    (lambda: concat_cols([]), "concat_cols: no parts"),
    (lambda: concat_cols([_MATRIX, Tensor(np.ones((3, 3)))]),
     r"concat_cols: incompatible part shape \(3, 3\)"),
    (lambda: gather_rows(_VECTOR, [0]), r"gather_rows: expected a matrix, got shape \(3,\)"),
    (lambda: substitute_rows(_MATRIX, [0], [0], Tensor(np.ones((1, 3)))),
     r"substitute_rows: 1 ids for a matrix of shape \(2, 3\)"),
    (lambda: substitute_rows(_MATRIX, [0, 1], [0], Tensor(np.ones((1, 2)))),
     r"substitute_rows: leaf shape \(1, 2\) != \(1, 3\)"),
], ids=["item_of_a_matrix", "add_bias_of_a_vector", "add_bias_of_another_width",
        "transpose_of_a_vector", "slice_rows_empty", "slice_rows_past_the_end",
        "slice_cols_past_the_end", "slice_cols_of_a_vector", "concat_cols_of_nothing",
        "concat_cols_of_another_height", "gather_rows_of_a_vector",
        "substitute_rows_with_too_few_ids", "substitute_rows_with_a_leaf_of_another_shape"])
def test_a_primitive_refuses_a_shape_it_cannot_take(call, message):
    with pytest.raises(DimensionError, match=f"^{message}"):
        call()


def test_gather_rows_out_of_range_is_index_error():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.ones((2, 2))), [0, 2])
