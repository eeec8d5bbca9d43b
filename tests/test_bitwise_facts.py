"""The numpy and OpenBLAS behaviour that the bitwise promises rest on, one
test per fact, each checked directly at the shapes the encoder uses: stacks
of up to 4 x 77 rows, d=768, d_ff=3072 and 12 heads of width 64. These are
measured behaviour, not documented behaviour; README, "Bitwise facts", says
where each is relied on and what breaks without it. A failure here names
the fact that broke, where the encoder-level tests would only show a
mismatch far from its cause."""

import hashlib
import json
import os

import numpy as np

from embedit.autodiff import _attention_probs
from embedit.encoder import _forward, _pooled_length

from conftest import make_bundle, run_child

D, D_FF, HEADS, CONTEXT = 768, 3072, 12, 77
# The stacks the encoder runs: rows of the lengths a pooled read rounds to,
# in several orders, and the largest, four context-length rows.
STACKS = [(8, 16, 24, 77), (77, 24, 16, 8, 8, 77), (77, 77, 77, 77)]


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_a_row_block_of_a_stacked_matmul_is_bitwise_its_own_product():
    # Every matmul of a layer works row by row on the T-by-d stack, and
    # attention runs each run of sequences as one (B*heads, n, dh) product.
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=(D, D)), rng.normal(size=(D, D_FF)), rng.normal(size=(D_FF, D))]
    for lengths in STACKS:
        starts = np.cumsum((0,) + lengths)
        for w in weights:
            x = rng.normal(size=(starts[-1], w.shape[0]))
            stacked = x @ w
            for lo, hi in zip(starts, starts[1:]):
                assert _bits(stacked[lo:hi]) == _bits(x[lo:hi] @ w), (
                    f"rows {lo}:{hi} of the {lengths} stack times a {w.shape} weight are not "
                    "bitwise their own product: the encoder must run one prompt per forward")
    for b, n in ((4, 77), (3, 24), (2, 8)):
        q3, kt3 = rng.normal(size=(b * HEADS, n, 64)), rng.normal(size=(b * HEADS, 64, n))
        stacked = q3 @ kt3
        for s in range(b * HEADS):
            assert _bits(stacked[s]) == _bits(q3[s] @ kt3[s]), (
                f"head {s} of a ({b}*{HEADS}, {n}, 64) stack is not bitwise its own product: "
                "attention must run one sequence per product")


def test_a_pooled_read_over_its_rounded_prefix_is_bitwise_the_full_read():
    # A pooled read runs positions 0.._pooled_length(eos) - 1; the full read
    # runs all 77, whose keys past eos the causal mask gives probability
    # exactly 0. numpy's pairwise sum keeps 8 accumulators, so at a multiple
    # of 8 those zeros fill whole accumulator rounds and every other term is
    # added where the full read adds it.
    rng = np.random.default_rng(1)
    q, k, v = (rng.normal(size=(HEADS, CONTEXT, 64)) for _ in range(3))
    inv_sqrt = 1.0 / np.sqrt(64)
    kt = np.ascontiguousarray(k.transpose(0, 2, 1))
    p_full = _attention_probs(q, kt, inv_sqrt)
    out_full = p_full @ v
    for eos in range(1, CONTEXT):
        n = _pooled_length(eos, CONTEXT)
        assert eos < n <= CONTEXT
        p = _attention_probs(np.ascontiguousarray(q[:, :n]),
                             np.ascontiguousarray(kt[:, :, :n]), inv_sqrt)
        assert _bits(p[:, eos]) == _bits(p_full[:, eos, :n]), (
            f"the softmax at eos {eos} over {n} keys is not bitwise the full context's: "
            "pooled reads must round to a wider n")
        assert _bits((p @ np.ascontiguousarray(v[:, :n]))[:, eos]) == _bits(out_full[:, eos]), (
            f"attention's output at eos {eos} over {n} positions is not bitwise the full "
            "context's: pooled reads must round to a wider n")


def _digests() -> dict[str, str]:
    """Digests of the largest stacked product and of one stacked encoder
    forward at CLIP-L widths, for comparison across BLAS thread counts."""
    rng = np.random.default_rng(2)
    bundle = make_bundle(seed=7, d_model=D, n_layers=2, n_heads=HEADS, d_ff=D_FF,
                         context_length=CONTEXT)
    rows = [tuple(int(i) for i in rng.integers(0, bundle.config.vocab_size, size=n))
            for n in (8, 24, 77)]
    products = {
        "d_ff": rng.normal(size=(4 * CONTEXT, D)) @ rng.normal(size=(D, D_FF)),
        "forward": _forward(rows, bundle.weights, bundle.config).array,
    }
    return {name: hashlib.sha256(_bits(a)).hexdigest() for name, a in products.items()}


def _blas_threads() -> int:
    # OpenBLAS reads these in this order and otherwise runs one thread per core.
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name, "").isdigit():
            return int(os.environ[name])
    return os.cpu_count() or 1


def test_no_result_depends_on_the_blas_thread_count():
    # A child at another thread count passes the encoder-level stack tests,
    # and another reproduces this process's products bit for bit.
    threads = 1 if _blas_threads() > 1 else 2
    env = {"OPENBLAS_NUM_THREADS": str(threads)}
    run_child(["-m", "pytest", "-q", "-p", "no:cacheprovider",
               "tests/test_encoder.py", "tests/test_autodiff.py",
               "-k", "pooled_reads_are_bitwise or mixed_length_stack or each_sequence_alone"],
              env)
    digests = run_child(
        ["-c", "import json, test_bitwise_facts as t; print(json.dumps(t._digests()))"], env)
    assert json.loads(digests) == _digests(), (
        f"products at {threads} BLAS threads differ from this process's: results depend on "
        "the thread count")
