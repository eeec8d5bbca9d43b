"""Dense float64 tensors with taped reverse-mode differentiation.

Deliberately small: 1-D/2-D arrays, a fixed set of primitives with
hand-written vector-Jacobian products, and gradients materialized only for
leaves explicitly watched on a tape. Everything runs in 64-bit floats so
gradient oracles and bitwise-equality checks stay exact.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, TapeUsageError

_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


class Tensor:
    """Immutable dense tensor of 64-bit floats in row-major order.

    Construction copies its input and rejects NaN/Inf entries. The backing
    array is marked read-only; treat a Tensor as a value.
    """

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="C")
        if not np.all(np.isfinite(a)):
            raise ValueError("tensor entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Tensor":
        """Adopt a fresh float64 C-order array without copying or checking it.

        The caller vouches that every entry is finite and that nothing else
        keeps a writable reference to `a`.
        """
        a.setflags(write=False)
        t = cls.__new__(cls)
        t._a = a
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

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the payload."""
        return self._a.reshape(-1)

    def item(self) -> float:
        if self._a.size != 1:
            raise DimensionError(f"item() requires a scalar, got shape {self.shape}")
        return float(self._a.reshape(-1)[0])

    def tolist(self):
        return self._a.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _TapeEntry:
    __slots__ = ("out", "inputs", "needs", "vjp")

    def __init__(self, out, inputs, needs, vjp):
        self.out = out
        self.inputs = inputs
        self.needs = needs
        self.vjp = vjp


class Tape:
    """Record of one forward pass, in execution order.

    Every operand of entry k was produced by an earlier entry or is a leaf.
    Gradients flow only into leaves registered with watch(); operations whose
    inputs carry no gradient are not recorded at all. Tapes are single-owner:
    build one per forward pass and do not share across threads.
    """

    def __init__(self):
        self._entries: list[_TapeEntry] = []
        self._watched: dict[int, Tensor] = {}
        self._tracked: set[int] = set()
        self._produced: set[int] = set()

    def watch(self, leaf: Tensor) -> None:
        """Mark a leaf tensor as differentiable."""
        self._watched[id(leaf)] = leaf
        self._tracked.add(id(leaf))

    def _needs(self, t: Tensor) -> bool:
        return id(t) in self._tracked

    def _record(self, out: Tensor, inputs: Sequence[Tensor], vjp: Callable) -> None:
        needs = tuple(self._needs(x) for x in inputs)
        self._entries.append(_TapeEntry(out, tuple(inputs), needs, vjp))
        self._tracked.add(id(out))
        self._produced.add(id(out))


def _maybe_record(tape: Tape | None, out: Tensor, inputs: Sequence[Tensor], vjp) -> None:
    if tape is not None and any(tape._needs(x) for x in inputs):
        tape._record(out, inputs, vjp)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Accumulate d(loss)/d(leaf) for every watched leaf of the tape.

    The loss must be a scalar produced on this tape. Leaves that the loss
    does not depend on receive zero gradients; nothing is materialized for
    unwatched tensors.
    """
    if id(loss) not in tape._produced:
        raise TapeUsageError("loss was not produced on this tape")
    if loss.size != 1:
        raise TapeUsageError(f"loss must be a scalar, got shape {loss.shape}")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.array)}
    for entry in reversed(tape._entries):
        g = grads.pop(id(entry.out), None)
        if g is None:
            continue
        contribs = entry.vjp(g, entry.needs)
        for x, c in zip(entry.inputs, contribs):
            if c is None:
                continue
            acc = grads.get(id(x))
            grads[id(x)] = c if acc is None else acc + c

    out: dict[Tensor, Tensor] = {}
    for lid, leaf in tape._watched.items():
        g = grads.get(lid)
        out[leaf] = Tensor(g) if g is not None else Tensor(np.zeros(leaf.shape))
    return out


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _require_same_shape(a, b, "add")
    out = Tensor(a.array + b.array)

    def vjp(g, needs):
        return (g if needs[0] else None, g if needs[1] else None)

    _maybe_record(tape, out, (a, b), vjp)
    return out


def sub(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _require_same_shape(a, b, "sub")
    out = Tensor(a.array - b.array)

    def vjp(g, needs):
        return (g if needs[0] else None, -g if needs[1] else None)

    _maybe_record(tape, out, (a, b), vjp)
    return out


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise product."""
    _require_same_shape(a, b, "mul")
    out = Tensor(a.array * b.array)
    a_val, b_val = a.array, b.array

    def vjp(g, needs):
        return (g * b_val if needs[0] else None, g * a_val if needs[1] else None)

    _maybe_record(tape, out, (a, b), vjp)
    return out


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.array * c)

    def vjp(g, needs):
        return (g * c if needs[0] else None,)

    _maybe_record(tape, out, (a,), vjp)
    return out


def add_bias(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Add a length-d bias vector to every row of an n-by-d matrix."""
    if len(x.shape) != 2 or len(b.shape) != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} and {b.shape} incompatible")
    out = Tensor(x.array + b.array)

    def vjp(g, needs):
        return (g if needs[0] else None, g.sum(axis=0) if needs[1] else None)

    _maybe_record(tape, out, (x, b), vjp)
    return out


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} incompatible")
    out = Tensor(a.array @ b.array)
    a_val, b_val = a.array, b.array

    def vjp(g, needs):
        return (
            g @ b_val.T if needs[0] else None,
            a_val.T @ g if needs[1] else None,
        )

    _maybe_record(tape, out, (a, b), vjp)
    return out


def transpose(a: Tensor, tape: Tape | None = None) -> Tensor:
    if len(a.shape) != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.shape}")
    out = Tensor(a.array.T)

    def vjp(g, needs):
        return (g.T if needs[0] else None,)

    _maybe_record(tape, out, (a,), vjp)
    return out


def slice_rows(x: Tensor, start: int, stop: int, tape: Tape | None = None) -> Tensor:
    if len(x.shape) != 2 or not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice_rows: rows [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.array[start:stop])
    full_shape = x.shape

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
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

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
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
    widths = [p.shape[1] for p in parts]

    def vjp(g, needs):
        res = []
        j = 0
        for w, need in zip(widths, needs):
            res.append(g[:, j:j + w] if need else None)
            j += w
        return tuple(res)

    _maybe_record(tape, out, tuple(parts), vjp)
    return out


def gather_rows(table: Tensor, ids: Sequence[int], tape: Tape | None = None) -> Tensor:
    """Select rows of a table by index, in order.

    When taped, the table's gradient is a table-shaped array whose rows are
    the scatter-added cotangents of the gathered rows.
    """
    if len(table.shape) != 2:
        raise DimensionError(f"gather_rows: expected a matrix, got shape {table.shape}")
    n = table.shape[0]
    ids = list(ids)
    for i in ids:
        if not (0 <= i < n):
            raise IndexError(f"row id {i} out of range for table with {n} rows")
    out = Tensor(table.array[ids])
    table_shape = table.shape
    ids_arr = np.array(ids, dtype=np.intp)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        z = np.zeros(table_shape)
        np.add.at(z, ids_arr, g)
        return (z,)

    _maybe_record(tape, out, (table,), vjp)
    return out


def substitute_rows(
    x: Tensor,
    ids: Sequence[int],
    leaf_ids: Sequence[int],
    leaf: Tensor,
    tape: Tape | None = None,
) -> Tensor:
    """Replace each row of x whose id is a leaf id by that id's leaf row.

    Row p of the n-by-d matrix x stands for id ids[p], as gather_rows lays
    them out; row s of the k-by-d leaf stands for leaf_ids[s]. When taped,
    the leaf's gradient is k-by-d: each leaf row gets the cotangents of the
    positions it fills, scatter-added in position order, and x gets the
    cotangents of the rows it kept.
    """
    if len(x.shape) != 2 or x.shape[0] != len(ids):
        raise DimensionError(f"substitute_rows: {len(ids)} ids for a matrix of shape {x.shape}")
    if leaf.shape != (len(leaf_ids), x.shape[1]):
        raise DimensionError(
            f"substitute_rows: leaf shape {leaf.shape} != ({len(leaf_ids)}, {x.shape[1]})"
        )
    slot_of = {i: s for s, i in enumerate(leaf_ids)}
    if len(slot_of) != len(leaf_ids):
        raise ValueError(f"substitute_rows: repeated leaf ids in {list(leaf_ids)}")
    hits = [(p, slot_of[i]) for p, i in enumerate(ids) if i in slot_of]
    pos = np.array([p for p, _ in hits], dtype=np.intp)
    slots = np.array([s for _, s in hits], dtype=np.intp)
    a = x.array.copy()
    a[pos] = leaf.array[slots]
    out = Tensor(a)
    leaf_shape = leaf.shape

    def vjp(g, needs):
        g_x = None
        if needs[0]:
            g_x = g.copy()
            g_x[pos] = 0.0
        g_leaf = None
        if needs[1]:
            g_leaf = np.zeros(leaf_shape)
            np.add.at(g_leaf, slots, g[pos])
        return (g_x, g_leaf)

    _maybe_record(tape, out, (x, leaf), vjp)
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
    requires non-constant slices; a constant slice yields NaN and fails
    Tensor construction).
    """
    if eps < 0:
        raise ValueError("layer_norm: eps must be >= 0")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} must have shape ({d},)"
        )
    xa = x.array
    mu = xa.mean(axis=-1, keepdims=True)
    xc = xa - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.array + beta.array)
    gamma_val = gamma.array

    def vjp(g, needs):
        g_gamma = None
        g_beta = None
        if needs[1]:
            g_gamma = (g * xhat).reshape(-1, d).sum(axis=0)
        if needs[2]:
            g_beta = g.reshape(-1, d).sum(axis=0)
        g_x = None
        if needs[0]:
            dxhat = g * gamma_val
            g_x = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
            )
        return (g_x, g_gamma, g_beta)

    _maybe_record(tape, out, (x, gamma, beta), vjp)
    return out


def softmax_rows(m: Tensor, tape: Tape | None = None) -> Tensor:
    """Softmax over the final axis, computed with max-subtraction."""
    a = m.array
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        return (s * (g - np.sum(g * s, axis=-1, keepdims=True)),)

    _maybe_record(tape, out, (m,), vjp)
    return out


def gelu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    The erf form 0.5*x*(1 + erf(x/sqrt(2))) is the textbook alternative; the
    tanh approximation here is the one common CLIP builds use.
    """
    a = x.array
    u = _GELU_SCALE * (a + _GELU_CUBIC * a ** 3)
    t = np.tanh(u)
    out = Tensor(0.5 * a * (1.0 + t))

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        du = _GELU_SCALE * (1.0 + 3.0 * _GELU_CUBIC * a * a)
        dy = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * du
        return (g * dy,)

    _maybe_record(tape, out, (x,), vjp)
    return out


def mean_square(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar mean of squared entries."""
    a = x.array
    out = Tensor(np.mean(a * a))
    n = a.size

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        return (g * (2.0 / n) * a,)

    _maybe_record(tape, out, (x,), vjp)
    return out


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar sum of all entries."""
    out = Tensor(np.sum(x.array))
    shape = x.shape

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        return (g * np.ones(shape),)

    _maybe_record(tape, out, (x,), vjp)
    return out


def finite_difference_grad(f: Callable[[Tensor], float], x: Tensor, h: float) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Independent of the tape machinery by design, so it can serve as an oracle
    for backward().
    """
    if h <= 0:
        raise ValueError("finite_difference_grad: h must be positive")
    base = x.array
    flat = base.reshape(-1).copy()
    g = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(flat.reshape(base.shape))))
        flat[i] = orig - h
        fm = float(f(Tensor(flat.reshape(base.shape))))
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return Tensor(g.reshape(base.shape))
