import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from embedit import (
    EditLedger,
    EncoderBundle,
    EncoderConfig,
    Vocab,
    init_random_weights,
)
from embedit.editor import LedgerEntry

WORDS = [
    "a", "bear", "polar", "cat", "dog", "zoo", "with", "red", "blue",
    "ice", "cream", "female", "male", "teacher", "wolf", "fox", "on",
    "tree", "little", "panda", "koala", "sloth", "ceo", "painting",
]


ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def run_child(argv, env: dict[str, str]) -> str:
    """Run `python *argv` from the repository root, with src and tests on
    its path and the variables `env` set for it alone, and return its
    stdout. A child that exits nonzero fails the test with the tail of its
    stderr, and of its stdout, where pytest reports."""
    child = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, **env,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])})
    if child.returncode != 0:
        pytest.fail(f"python {' '.join(argv)} with {env} exited {child.returncode}:\n"
                    f"{child.stderr[-3000:]}{child.stdout[-3000:]}")
    return child.stdout


def tracer_sites():
    """perfbench/tracing.py's SITES, (module, attribute path, span) triples,
    read without installing the tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SITES


def make_vocab(words=WORDS, splits=None):
    tokens = {w: i + 3 for i, w in enumerate(words)}
    return Vocab(tokens=tokens, splits=splits or {}, bos=0, eos=1, pad=2)


def make_config(vocab, d_model=8, n_layers=2, n_heads=2, d_ff=16, context_length=8):
    return EncoderConfig(
        vocab_size=vocab.vocab_size,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=n_heads,
        d_ff=d_ff,
        context_length=context_length,
        eps=1e-5,
    )


def make_bundle(seed=42, vocab=None, **config_kwargs):
    vocab = vocab or make_vocab()
    config = make_config(vocab, **config_kwargs)
    return EncoderBundle(config, init_random_weights(config, seed), vocab)


def zero_row_ledger(d, *id_groups):
    """A ledger with one entry per group of token ids, each holding zero
    rows of width d."""
    ledger = EditLedger()
    for ids in id_groups:
        ids = tuple(ids)
        rows = np.zeros((len(ids), d))
        ledger.append(LedgerEntry(
            source_prompt="s", destination_prompt="d", target_word="t",
            edited_token_ids=ids, original_rows=rows, new_rows=rows,
            initial_loss=1.0, threshold_tau=0.2, final_loss=0.1, iterations_run=1,
            optimizer_steps=1, converged=True,
        ))
    return ledger


def map_owner(a: np.ndarray):
    """The object that owns a's memory, past every view and memoryview: an
    mmap for a loaded archive's tensor, None for an array that owns it."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.obj if isinstance(a, memoryview) else a.base
    return a


class FailingFile:
    """A file whose `nth` write writes half its bytes, then raises `error`;
    everything else is the wrapped file's."""

    def __init__(self, f, nth, error):
        self._f, self._left, self._error = f, nth, error

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._f.__exit__(*exc)

    def write(self, b):
        self._left -= 1
        if self._left == 0:
            view = memoryview(b).cast("B")
            self._f.write(view[: len(view) // 2])
            raise self._error
        return self._f.write(b)


def diverge_adam(monkeypatch, nth_adam, nth_step):
    """Make the `nth_step`-th step of the `nth_adam`-th Adam instance that
    steps return non-finite rows (both counted from 1); other steps are real."""
    import embedit.optim as optim

    real_step = optim.Adam.step
    seen = []

    def step(self, params, grad):
        if not any(s is self for s in seen):
            seen.append(self)
        out = real_step(self, params, grad)
        if len(seen) >= nth_adam and seen[nth_adam - 1] is self and self.t == nth_step:
            return np.full_like(out, np.inf)
        return out

    monkeypatch.setattr(optim.Adam, "step", step)


@pytest.fixture
def vocab():
    return make_vocab(splits={"icecream": ["ice", "cream"]})


@pytest.fixture
def tiny_bundle(vocab):
    config = make_config(vocab)
    return EncoderBundle(config, init_random_weights(config, 42), vocab)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
