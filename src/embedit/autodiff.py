"""Dense float64 tensors with taped reverse-mode differentiation.

Deliberately small: 1-D/2-D arrays, the primitives the encoder, the edit
loss and the balancer record, each with a hand-written vector-Jacobian
product, and gradients materialized only for leaves explicitly watched on a
tape. Everything runs in 64-bit floats so bitwise-equality checks stay
exact. The gradient oracles the tests check backward() against live with
the tests, not here.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NonFiniteError, TapeUsageError, check_ids, check_number

_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
# The additive score of a key a causal mask hides: its softmax weight is exactly 0.
ATTENTION_MASK_VALUE = -1e9


class Tensor:
    """Immutable dense tensor of 64-bit floats in row-major order.

    Construction copies its input and rejects NaN/Inf entries with
    NonFiniteError. The primitives on the encoder's path adopt their fresh
    outputs through _wrap, unchecked; encode checks its output once. The
    backing array is marked read-only; treat a Tensor as a value.
    """

    __slots__ = ("_a", "_node")

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="C")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("tensor entries must be finite")
        a.setflags(write=False)
        self._a = a
        self._node = None

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Tensor":
        """Adopt a fresh float64 C-order array without copying or checking it.

        The caller vouches that `a` is no view of another tensor's array and
        that nothing else keeps a writable reference to it. Its entries are
        not checked: a caller that needs them finite checks them itself.
        """
        a.setflags(write=False)
        t = cls.__new__(cls)
        t._a = a
        t._node = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def size(self) -> int:
        return int(self._a.size)

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._a

    def item(self) -> float:
        if self._a.size != 1:
            raise DimensionError(f"item() requires a scalar, got shape {self.shape}")
        return float(self._a.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Tape:
    """Record of one forward pass, in execution order.

    Each watched leaf and each recorded output gets the next node number,
    which the tensor holds with the tape's key: a bare object, so a tensor
    that outlives the pass never keeps the tape alive. A step holds its
    output's node, its inputs' nodes (None for one that carries no gradient)
    and its VJP, never a tensor, so the tape keeps only what the VJPs read.
    A VJP takes its output's cotangent and returns one gradient per recorded
    input; a primitive records only the inputs it differentiates, and one
    whose recorded inputs carry no gradient is not recorded at all. A tensor
    belongs to the last tape that watched or produced it.
    Tapes are single-owner: build one per forward pass and do not share
    across threads.
    """

    def __init__(self):
        self._key = object()
        self._count = 0
        self._steps: list[tuple[int, tuple[int | None, ...], Callable]] = []
        self._leaves: dict[int, Tensor] = {}

    def watch(self, leaf: Tensor) -> None:
        """Mark a leaf tensor as differentiable. Watching it again is a no-op."""
        if self._node_of(leaf) is None:
            self._leaves[self._number(leaf)] = leaf

    def _node_of(self, t: Tensor) -> int | None:
        node = t._node
        return node[1] if node is not None and node[0] is self._key else None

    def _number(self, t: Tensor) -> int:
        n = self._count
        self._count += 1
        t._node = (self._key, n)
        return n


def _maybe_record(tape: Tape | None, out: Tensor, inputs: Sequence[Tensor], vjp) -> None:
    if tape is not None:
        nodes = tuple(tape._node_of(x) for x in inputs)
        if any(n is not None for n in nodes):
            tape._steps.append((tape._number(out), nodes, vjp))


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Accumulate d(loss)/d(leaf) for every watched leaf of the tape.

    The loss must be a scalar produced on this tape. Each step's vjp(g)
    gives one gradient per recorded input. Leaves that the loss does not
    depend on, or reaches only through an unrecorded input, get zeros;
    nothing is materialized for unwatched tensors.
    """
    node = tape._node_of(loss)
    if node is None or node in tape._leaves:
        raise TapeUsageError("loss was not produced on this tape")
    if loss.size != 1:
        raise TapeUsageError(f"loss must be a scalar, got shape {loss.shape}")

    grads: list[np.ndarray | None] = [None] * tape._count
    grads[node] = np.ones_like(loss.array)
    for out, nodes, vjp in reversed(tape._steps):
        g = grads[out]
        if g is None:
            continue
        grads[out] = None
        for n, c in zip(nodes, vjp(g)):
            if n is None:
                continue
            acc = grads[n]
            grads[n] = c if acc is None else acc + c

    return {
        leaf: Tensor(grads[n]) if grads[n] is not None else Tensor(np.zeros(leaf.shape))
        for n, leaf in tape._leaves.items()
    }


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _identity_vjp(g):
    return (g,)


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _require_same_shape(a, b, "add")
    out = Tensor._wrap(a.array + b.array)

    def vjp(g):
        return (g, g)

    _maybe_record(tape, out, (a, b), vjp)
    return out


def sub(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _require_same_shape(a, b, "sub")
    out = Tensor(a.array - b.array)
    _maybe_record(tape, out, (a,), _identity_vjp)
    return out


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.array * c)

    def vjp(g):
        return (g * c,)

    _maybe_record(tape, out, (a,), vjp)
    return out


def add_bias(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Add a length-d bias vector to every row of an n-by-d matrix."""
    if len(x.shape) != 2 or len(b.shape) != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} and {b.shape} incompatible")
    out = Tensor._wrap(x.array + b.array)
    _maybe_record(tape, out, (x,), _identity_vjp)
    return out


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} incompatible")
    out = Tensor._wrap(a.array @ b.array)
    b_val = b.array
    # Only b's gradient reads a; the encoder never tracks a weight.
    a_val = a.array if tape is not None and tape._node_of(b) is not None else None

    def vjp(g):
        return (g @ b_val.T, None if a_val is None else a_val.T @ g)

    _maybe_record(tape, out, (a, b), vjp)
    return out


def transpose(a: Tensor, tape: Tape | None = None) -> Tensor:
    if len(a.shape) != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.shape}")
    out = Tensor(a.array.T)

    def vjp(g):
        return (g.T,)

    _maybe_record(tape, out, (a,), vjp)
    return out


def slice_rows(x: Tensor, start: int, stop: int, tape: Tape | None = None) -> Tensor:
    if len(x.shape) != 2 or not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice_rows: rows [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.array[start:stop])
    full_shape = x.shape

    def vjp(g):
        z = np.zeros(full_shape)
        z[start:stop] = g
        return (z,)

    _maybe_record(tape, out, (x,), vjp)
    return out


def slice_cols(x: Tensor, start: int, stop: int, tape: Tape | None = None) -> Tensor:
    if len(x.shape) != 2 or not (0 <= start < stop <= x.shape[1]):
        raise DimensionError(f"slice_cols: cols [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.array[:, start:stop])
    full_shape = x.shape

    def vjp(g):
        z = np.zeros(full_shape)
        z[:, start:stop] = g
        return (z,)

    _maybe_record(tape, out, (x,), vjp)
    return out


def concat_cols(parts: Sequence[Tensor], tape: Tape | None = None) -> Tensor:
    if not parts:
        raise DimensionError("concat_cols: no parts")
    rows = parts[0].shape[0]
    for p in parts:
        if len(p.shape) != 2 or p.shape[0] != rows:
            raise DimensionError(f"concat_cols: incompatible part shape {p.shape}")
    out = Tensor(np.concatenate([p.array for p in parts], axis=1))
    edges = list(itertools.accumulate((p.shape[1] for p in parts), initial=0))

    def vjp(g):
        return tuple(g[:, j:k] for j, k in zip(edges, edges[1:]))

    _maybe_record(tape, out, tuple(parts), vjp)
    return out


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of a table by index (errors.check_ids), in order. Untaped:
    an edit differentiates its k-by-d rows through substitute_rows, never the table.
    """
    if len(table.shape) != 2:
        raise DimensionError(f"gather_rows: expected a matrix, got shape {table.shape}")
    return Tensor._wrap(table.array[check_ids(ids, table.shape[0])])


def substitute_rows(
    x: Tensor,
    ids: Sequence[int],
    leaf_ids: Sequence[int],
    leaf: Tensor,
    tape: Tape | None = None,
) -> Tensor:
    """Replace each row of x whose id is a leaf id by that id's leaf row.

    Row p of the n-by-d matrix x stands for id ids[p], as gather_rows lays
    them out; row s of the k-by-d leaf stands for leaf_ids[s], which the
    caller has checked distinct. When taped, only the leaf is recorded; x,
    the table's gathered rows, is a constant. The leaf's gradient is k-by-d:
    each leaf row gets the cotangents of the positions it fills,
    scatter-added in position order.
    """
    if len(x.shape) != 2 or x.shape[0] != len(ids):
        raise DimensionError(f"substitute_rows: {len(ids)} ids for a matrix of shape {x.shape}")
    if leaf.shape != (len(leaf_ids), x.shape[1]):
        raise DimensionError(
            f"substitute_rows: leaf shape {leaf.shape} != ({len(leaf_ids)}, {x.shape[1]})"
        )
    slot_of = {i: s for s, i in enumerate(leaf_ids)}
    hits = [(p, slot_of[i]) for p, i in enumerate(ids) if i in slot_of]
    pos = np.array([p for p, _ in hits], dtype=np.intp)
    slots = np.array([s for _, s in hits], dtype=np.intp)
    a = x.array.copy()
    a[pos] = leaf.array[slots]
    out = Tensor._wrap(a)
    leaf_shape = leaf.shape

    def vjp(g):
        g_leaf = np.zeros(leaf_shape)
        np.add.at(g_leaf, slots, g[pos])
        return (g_leaf,)

    _maybe_record(tape, out, (leaf,), vjp)
    return out


def layer_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    tape: Tape | None = None,
) -> Tensor:
    """Normalize the final axis to zero mean / unit variance, then affine.

    Uses the population variance. eps=0 is accepted (the contract then
    requires non-constant slices; a constant slice yields NaN in the output).
    A variance that overflows raises NonFiniteError rather than saturating
    the output to beta.
    """
    check_number("layer_norm eps", eps, 0)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} must have shape ({d},)"
        )
    xa = x.array
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        mu = xa.mean(axis=-1, keepdims=True)
        xc = xa - mu
        var = np.mean(xc * xc, axis=-1, keepdims=True)
    if not np.all(np.isfinite(var)):
        raise NonFiniteError("layer_norm: variance is not finite")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc
    xhat *= inv
    out = xhat * gamma.array
    out += beta.array
    out = Tensor._wrap(out)
    gamma_val = gamma.array

    def vjp(g):
        dxhat = g * gamma_val
        g_x = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
        )
        return (g_x,)

    _maybe_record(tape, out, (x,), vjp)
    return out


def _softmax(a: np.ndarray) -> np.ndarray:
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return s * (g - np.sum(g * s, axis=-1, keepdims=True))


def softmax_rows(m: Tensor, tape: Tape | None = None) -> Tensor:
    """Softmax over the final axis, computed with max-subtraction."""
    s = _softmax(m.array)
    out = Tensor(s)

    def vjp(g):
        return (_softmax_vjp(s, g),)

    _maybe_record(tape, out, (m,), vjp)
    return out


def _runs(lengths: Sequence[int]) -> list[tuple[int, int, int]]:
    """(first row, B, n) of each run of B adjacent sequences of length n."""
    runs, start = [], 0
    for n, group in itertools.groupby(lengths):
        b = len(list(group))
        runs.append((start, b, n))
        start += b * n
    return runs


def _split_heads(a: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """The (B*n)-by-d rows of B sequences as a C-contiguous (B*n_heads, n, dh)
    stack: one n-by-dh matrix per sequence and head."""
    rows, d = a.shape
    n, dh = rows // b, d // n_heads
    return np.ascontiguousarray(
        a.reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)).reshape(b * n_heads, n, dh)


def _merge_heads(a: np.ndarray, out: np.ndarray, b: int) -> None:
    """Write a (B*n_heads, n, dh) stack into the (B*n)-by-d rows `out`, a
    C-contiguous row slice: _split_heads undone."""
    bh, n, dh = a.shape
    n_heads = bh // b
    out.reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)[...] = a.reshape(b, n_heads, n, dh)


def _attention_probs(q3: np.ndarray, kt3: np.ndarray, inv_sqrt: float) -> np.ndarray:
    """softmax((q3 @ kt3) * inv_sqrt + causal mask) for one run's stacked heads.

    The forward and the VJP both call it, so the VJP's probabilities are
    bitwise the forward's. Scores that are not finite raise NonFiniteError.
    """
    n = q3.shape[1]
    scores = q3 @ kt3
    scores *= inv_sqrt
    scores += np.triu(np.full((n, n), ATTENTION_MASK_VALUE), k=1)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteError("attention: scores are not finite")
    return _softmax(scores)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    lengths: Sequence[int],
    tape: Tape | None = None,
) -> Tensor:
    """Causal multi-head attention over sequences of mixed lengths.

    q, k and v are T-by-d stacks of sequences laid end to end, whose
    lengths, in order, are `lengths`; they sum to T. Column block h of width
    dh = d / n_heads is head h. Each sequence's head computes
    softmax((q_h @ k_h^T) / sqrt(dh) + mask) @ v_h, where the n-by-n causal
    mask lets position p see positions 0..p of its own sequence, and the
    heads' outputs are concatenated back to T-by-d. Adjacent sequences of
    equal length n form a run; each run builds its own mask and runs all its
    sequences' heads as one stacked (B*n_heads, n, dh) matmul, in the forward
    and in the VJP, so each sequence's output is bitwise that of attending
    over it alone. For one sequence the result, and the q, k and v
    gradients, are bitwise those of the per-head composition of slice_cols,
    transpose, matmul, scale, add, softmax_rows and concat_cols. Scores that
    are not finite raise NonFiniteError. When taped it keeps each run's q, k
    and v head stacks, not its n-by-n probabilities: the VJP recomputes
    those, bitwise, at the cost of one stacked product and softmax per run.
    """
    if len(q.shape) != 2 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(
            f"attention: q {q.shape}, k {k.shape} and v {v.shape} must be one T-by-d shape"
        )
    rows, d = q.shape
    if n_heads <= 0 or d % n_heads:
        raise DimensionError(f"attention: width {d} does not split into {n_heads} heads")
    lengths = list(lengths)
    if not lengths or min(lengths) <= 0 or sum(lengths) != rows:
        raise DimensionError(f"attention: sequence lengths {lengths} are not positive "
                             f"lengths summing to the {rows} rows")
    runs = _runs(lengths)
    inv_sqrt = 1.0 / np.sqrt(d // n_heads)
    out = np.empty((rows, d))
    saved = []
    for start, b, n in runs:
        stop = start + b * n
        # C-contiguous stacks, like the copies slice_cols and transpose make,
        # give BLAS the same operands per head, hence the same bits.
        q3 = _split_heads(q.array[start:stop], b, n_heads)
        v3 = _split_heads(v.array[start:stop], b, n_heads)
        kt3 = np.ascontiguousarray(
            _split_heads(k.array[start:stop], b, n_heads).transpose(0, 2, 1))
        _merge_heads(_attention_probs(q3, kt3, inv_sqrt) @ v3, out[start:stop], b)
        saved.append((q3, kt3, v3))
    out = Tensor._wrap(out)

    def vjp(g):
        # The per-head VJPs of matmul (g @ b^T, a^T @ g), softmax_rows and
        # scale, run on all heads of a run at once, over probabilities
        # recomputed from the saved heads rather than kept.
        g_q, g_k, g_v = (np.empty((rows, d)) for _ in range(3))
        for (start, b, n), (q3, kt3, v3) in zip(runs, saved):
            stop = start + b * n
            p = _attention_probs(q3, kt3, inv_sqrt)
            g3 = _split_heads(g[start:stop], b, n_heads)
            _merge_heads(p.transpose(0, 2, 1) @ g3, g_v[start:stop], b)
            g_s = _softmax_vjp(p, g3 @ v3.transpose(0, 2, 1)) * inv_sqrt
            _merge_heads(g_s @ kt3.transpose(0, 2, 1), g_q[start:stop], b)
            _merge_heads((q3.transpose(0, 2, 1) @ g_s).transpose(0, 2, 1), g_k[start:stop], b)
        return (g_q, g_k, g_v)

    _maybe_record(tape, out, (q, k, v), vjp)
    return out


def gelu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    The erf form 0.5*x*(1 + erf(x/sqrt(2))) is the textbook alternative; the
    tanh approximation here is the one common CLIP builds use. When taped it
    computes its derivative in the forward and keeps only that, not its input
    and tanh; an untaped call computes no derivative.
    """
    a = x.array
    # The elementwise chains run in place, each product and sum in the order
    # of the formulas; a ** 3 would go through slow pow.
    t = a * a
    t *= a
    t *= _GELU_CUBIC
    t += a
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    out = 0.5 * a
    if tape is None or tape._node_of(x) is None:
        t += 1.0
        out *= t
        return Tensor._wrap(out)

    # dy = 0.5*(1 + t) + 0.5*a*(1 - t*t)*du, du = sqrt(2/pi)*(1 + 3*0.044715*a*a).
    dy = (3.0 * _GELU_CUBIC) * a
    dy *= a
    dy += 1.0
    dy *= _GELU_SCALE
    w = t * t
    np.subtract(1.0, w, out=w)
    w *= out
    dy *= w
    t += 1.0
    out *= t
    t *= 0.5
    dy += t
    out = Tensor._wrap(out)

    def vjp(g):
        return (g * dy,)

    _maybe_record(tape, out, (x,), vjp)
    return out


def mean_square(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar mean of squared entries."""
    a = x.array
    out = Tensor(np.mean(a * a))
    n = a.size

    def vjp(g):
        return (g * (2.0 / n) * a,)

    _maybe_record(tape, out, (x,), vjp)
    return out
