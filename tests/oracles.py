"""Reference code the tests check the package against, kept out of the
package so that no oracle shares a module with what it checks.

`mul` and `sum_all` are taped primitives that only the tests' VJP harness
uses: sum_all(mul(f(x), cotangent)) turns any primitive's output into a
scalar loss, so backward gives that primitive's vector-Jacobian product.
They record through autodiff's own `_maybe_record`, so they tape exactly as
the package's primitives do: each VJP takes only the output's cotangent and
returns one gradient per recorded operand (`mul` records both).
`finite_difference_grad` is the gradient oracle, independent of the tape,
and `logreg_loss` is the loss whose gradient probe.logreg_grad is. Import
them as `from oracles import ...`.

The per-head ops that test_attention_is_bitwise_the_per_head_composition
composes (`transpose`, `slice_cols`, `concat_cols`, `softmax_rows`) still
live in embedit.autodiff: perfbench/tracing.py wraps them at
embedit.encoder, and tests/test_bench_sites.py checks that every such site
resolves, so they move here once the benchmark's tracer stops naming them.
"""

from typing import Callable

import numpy as np

from embedit.autodiff import Tape, Tensor, _maybe_record, _require_same_shape
from embedit.errors import check_number
from embedit.probe import _sigmoid


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise product."""
    _require_same_shape(a, b, "mul")
    out = Tensor(a.array * b.array)
    a_val, b_val = a.array, b.array

    def vjp(g):
        return (g * b_val, g * a_val)

    _maybe_record(tape, out, (a, b), vjp)
    return out


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar sum of all entries."""
    out = Tensor(np.sum(x.array))
    shape = x.shape

    def vjp(g):
        return (g * np.ones(shape),)

    _maybe_record(tape, out, (x,), vjp)
    return out


def finite_difference_grad(f: Callable[[Tensor], float], x: Tensor, h: float) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Independent of the tape machinery by design, so it can serve as an oracle
    for backward().
    """
    check_number("finite_difference_grad h", h, 0, open_low=True)
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


def logreg_loss(weight: np.ndarray, bias: float, features: np.ndarray,
                labels: np.ndarray, l2: float) -> float:
    """Mean negative log-likelihood plus l2 * ||w||^2 / 2."""
    p = _sigmoid(features @ weight + bias)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    nll = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    return float(nll + 0.5 * l2 * float(weight @ weight))
