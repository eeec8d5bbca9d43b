import numpy as np
import pytest

from embedit import (
    EncoderBundle,
    EncoderConfig,
    Vocab,
    init_random_weights,
)

WORDS = [
    "a", "bear", "polar", "cat", "dog", "zoo", "with", "red", "blue",
    "ice", "cream", "female", "male", "teacher", "wolf", "fox", "on",
    "tree", "little", "panda", "koala", "sloth", "ceo", "painting",
]


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
