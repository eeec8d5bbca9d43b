"""CLIP-style transformer text encoder over a closed vocabulary.

Tokenizer is a plain table lookup with an explicit word-to-subword split
table (no BPE): deterministic and auditable. The encoder is pre-norm with
causal attention, a GELU MLP, and a final layer norm; the row of the last
hidden states at the EOS position is the pooled text feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    add,
    add_bias,
    concat_cols,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    scale,
    slice_cols,
    softmax_rows,
    substitute_rows,
    transpose,
)
from .errors import (
    DimensionError,
    EmptyPromptError,
    PromptTooLongError,
    TapeUsageError,
    UnknownTokenError,
)

ATTENTION_MASK_VALUE = -1e9
INIT_STD = 0.02


@dataclass(frozen=True)
class Vocab:
    """Closed vocabulary: word ids, reserved ids, and a word split table.

    Ids must be dense in [0, vocab_size) once BOS/EOS/PAD are counted, the
    three reserved ids must be distinct and unused by words, and every split
    entry must expand to known single-token words.
    """

    tokens: dict[str, int]
    splits: dict[str, list[str]] = field(default_factory=dict)
    bos: int = 0
    eos: int = 1
    pad: int = 2

    def __post_init__(self):
        specials = (self.bos, self.eos, self.pad)
        if len(set(specials)) != 3:
            raise ValueError(f"BOS/EOS/PAD ids must be distinct, got {specials}")
        ids = list(self.tokens.values()) + list(specials)
        if len(set(ids)) != len(ids):
            raise ValueError("token ids collide (words must not reuse reserved ids)")
        if set(ids) != set(range(len(ids))):
            raise ValueError(f"token ids must be dense in [0, {len(ids)})")
        for word, subwords in self.splits.items():
            if not subwords:
                raise ValueError(f"split table entry {word!r} is empty")
            for sw in subwords:
                if sw not in self.tokens:
                    raise ValueError(f"split of {word!r} uses unknown subword {sw!r}")

    @property
    def vocab_size(self) -> int:
        return len(self.tokens) + 3

    def word_token_ids(self, word: str) -> list[int]:
        """Expand one lowercase word to its token ids (split table wins)."""
        if word in self.splits:
            return [self.tokens[sw] for sw in self.splits[word]]
        if word in self.tokens:
            return [self.tokens[word]]
        raise UnknownTokenError(f"word {word!r} is not in the vocabulary or split table")

    def prompt_token_ids(self, prompt: str) -> list[int]:
        """Token ids of a prompt's words, without BOS/EOS/PAD framing."""
        words = prompt.lower().split()
        if not words:
            raise EmptyPromptError("prompt is empty after normalization")
        ids: list[int] = []
        for w in words:
            ids.extend(self.word_token_ids(w))
        return ids


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    context_length: int
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "context_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )
        if self.context_length < 3:
            raise ValueError("context_length must be at least 3 (BOS + token + EOS)")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")

    @property
    def params_per_wte_row(self) -> int:
        return self.d_model


@dataclass
class LayerWeights:
    """One pre-norm transformer block: attention, MLP, and their layer norms."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


_LAYER_FIELDS = (
    "wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
    "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta",
    "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
)


@dataclass
class EncoderWeights:
    """All encoder parameters. Only WTE rows may change after construction."""

    wte: Tensor
    positional: Tensor
    layers: list[LayerWeights]
    final_gamma: Tensor
    final_beta: Tensor

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """Stable (name, tensor) ordering used for archives and init."""
        yield "wte", self.wte
        yield "positional", self.positional
        for i, layer in enumerate(self.layers):
            for fname in _LAYER_FIELDS:
                yield f"layers.{i}.{fname}", getattr(layer, fname)
        yield "final_gamma", self.final_gamma
        yield "final_beta", self.final_beta

    def total_params(self) -> int:
        return sum(t.size for _, t in self.named_tensors())

    def set_wte_rows(self, ids: Sequence[int], rows: np.ndarray) -> None:
        """Replace the given WTE rows; every other scalar keeps its bits.

        Ids outside [0, vocab_size), repeated ids, rows not shaped
        (len(ids), d_model) and non-finite rows are rejected before anything
        is written. Only the new rows are checked: the others come from the
        current table, which was checked when it was built. The table is
        copied once.
        """
        ids = list(ids)
        n, d = self.wte.shape
        bad = [i for i in ids if not 0 <= i < n]
        if bad:
            raise IndexError(f"row ids {bad} out of range for table with {n} rows")
        if len(set(ids)) != len(ids):
            raise ValueError(f"repeated row ids in {ids}")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (len(ids), d):
            raise DimensionError(f"rows have shape {rows.shape}, expected {(len(ids), d)}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("tensor entries must be finite")
        new = self.wte.array.copy()
        new[ids] = rows
        self.wte = Tensor._wrap(new)

    def wte_row(self, token_id: int) -> Tensor:
        return Tensor(self.wte.array[token_id])

    def validate_shapes(self, config: EncoderConfig) -> None:
        d, f = config.d_model, config.d_ff
        expect = {
            "wte": (config.vocab_size, d),
            "positional": (config.context_length, d),
            "final_gamma": (d,),
            "final_beta": (d,),
        }
        for i in range(config.n_layers):
            expect.update({
                f"layers.{i}.wq": (d, d), f"layers.{i}.wk": (d, d),
                f"layers.{i}.wv": (d, d), f"layers.{i}.wo": (d, d),
                f"layers.{i}.bq": (d,), f"layers.{i}.bk": (d,),
                f"layers.{i}.bv": (d,), f"layers.{i}.bo": (d,),
                f"layers.{i}.ln1_gamma": (d,), f"layers.{i}.ln1_beta": (d,),
                f"layers.{i}.ln2_gamma": (d,), f"layers.{i}.ln2_beta": (d,),
                f"layers.{i}.mlp_w1": (d, f), f"layers.{i}.mlp_b1": (f,),
                f"layers.{i}.mlp_w2": (f, d), f"layers.{i}.mlp_b2": (d,),
            })
        if len(self.layers) != config.n_layers:
            raise DimensionError(
                f"expected {config.n_layers} layers, found {len(self.layers)}"
            )
        for name, tensor in self.named_tensors():
            if tensor.shape != expect[name]:
                raise DimensionError(
                    f"tensor {name}: shape {tensor.shape} != expected {expect[name]}"
                )


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length token ids: BOS, words, EOS, then PAD to context length."""

    ids: tuple[int, ...]
    eos_position: int


@dataclass(frozen=True)
class HiddenStates:
    """Final-layer output matrix plus its EOS-pooled row."""

    sequence: Tensor
    pooled: Tensor
    eos_position: int


def tokenize(prompt: str, vocab: Vocab, config: EncoderConfig) -> TokenSequence:
    """Lowercase, split on whitespace, expand words, frame, and pad."""
    body = vocab.prompt_token_ids(prompt)
    n = len(body) + 2
    if n > config.context_length:
        raise PromptTooLongError(
            f"prompt needs {n} tokens but context length is {config.context_length}"
        )
    ids = [vocab.bos, *body, vocab.eos]
    eos_position = len(ids) - 1
    ids.extend([vocab.pad] * (config.context_length - len(ids)))
    return TokenSequence(tuple(ids), eos_position)


@lru_cache(maxsize=8)
def _causal_mask(context_length: int) -> Tensor:
    m = np.full((context_length, context_length), ATTENTION_MASK_VALUE)
    return Tensor(np.triu(m, k=1))


def encode(
    tokens: TokenSequence,
    weights: EncoderWeights,
    config: EncoderConfig,
    tape: Tape | None = None,
    edit_rows: tuple[Sequence[int], Tensor] | None = None,
) -> HiddenStates:
    """Run the encoder. Pure function of (tokens, weights, edit_rows):
    identical inputs give bitwise-identical outputs.

    `edit_rows` is (ids, rows): the k-by-d `rows` stand in for the WTE rows
    of those ids, so candidate rows are scored without writing the table.
    With a tape, `rows` is the only watched leaf and backward gives its k-by-d
    gradient; the table itself is never differentiated, so a taped encode
    requires `edit_rows`. PAD positions are processed like any other token;
    they attend causally and are not key-masked.
    """
    for i in tokens.ids:
        if not (0 <= i < config.vocab_size):
            raise IndexError(f"token id {i} out of range for vocab size {config.vocab_size}")
    if len(tokens.ids) != config.context_length:
        raise DimensionError(
            f"token sequence length {len(tokens.ids)} != context length {config.context_length}"
        )

    x = gather_rows(weights.wte, tokens.ids)
    if edit_rows is not None:
        leaf_ids, leaf = edit_rows
        if tape is not None:
            tape.watch(leaf)
        x = substitute_rows(x, tokens.ids, leaf_ids, leaf, tape)
    elif tape is not None:
        raise TapeUsageError("a taped encode needs edit_rows: its rows are the only leaf")
    x = add(x, weights.positional, tape)

    d_head = config.d_model // config.n_heads
    inv_sqrt = 1.0 / np.sqrt(d_head)
    mask = _causal_mask(config.context_length)

    for layer in weights.layers:
        h = layer_norm(x, layer.ln1_gamma, layer.ln1_beta, config.eps, tape)
        q = add_bias(matmul(h, layer.wq, tape), layer.bq, tape)
        k = add_bias(matmul(h, layer.wk, tape), layer.bk, tape)
        v = add_bias(matmul(h, layer.wv, tape), layer.bv, tape)
        heads = []
        for hd in range(config.n_heads):
            lo, hi = hd * d_head, (hd + 1) * d_head
            qh = slice_cols(q, lo, hi, tape)
            kh = slice_cols(k, lo, hi, tape)
            vh = slice_cols(v, lo, hi, tape)
            scores = scale(matmul(qh, transpose(kh, tape), tape), inv_sqrt, tape)
            attn = softmax_rows(add(scores, mask, tape), tape)
            heads.append(matmul(attn, vh, tape))
        merged = concat_cols(heads, tape)
        x = add(x, add_bias(matmul(merged, layer.wo, tape), layer.bo, tape), tape)

        h2 = layer_norm(x, layer.ln2_gamma, layer.ln2_beta, config.eps, tape)
        m = gelu(add_bias(matmul(h2, layer.mlp_w1, tape), layer.mlp_b1, tape), tape)
        m = add_bias(matmul(m, layer.mlp_w2, tape), layer.mlp_b2, tape)
        x = add(x, m, tape)

    x = layer_norm(x, weights.final_gamma, weights.final_beta, config.eps, tape)
    pooled = Tensor(x.array[tokens.eos_position])
    return HiddenStates(sequence=x, pooled=pooled, eos_position=tokens.eos_position)


def init_random_weights(config: EncoderConfig, seed: int) -> EncoderWeights:
    """Normal(0, 0.02) everywhere except layer-norm gamma=1 / beta=0.

    Same seed gives bitwise-identical weights; tensors are drawn in
    named_tensors() order.
    """
    rng = np.random.default_rng(seed)
    d, f = config.d_model, config.d_ff

    def normal(*shape):
        return Tensor(rng.normal(0.0, INIT_STD, size=shape))

    ones = Tensor(np.ones(d))
    zeros = Tensor(np.zeros(d))
    wte = normal(config.vocab_size, d)
    positional = normal(config.context_length, d)
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            wq=normal(d, d), wk=normal(d, d), wv=normal(d, d), wo=normal(d, d),
            bq=normal(d), bk=normal(d), bv=normal(d), bo=normal(d),
            ln1_gamma=ones, ln1_beta=zeros, ln2_gamma=ones, ln2_beta=zeros,
            mlp_w1=normal(d, f), mlp_b1=normal(f), mlp_w2=normal(f, d), mlp_b2=normal(d),
        ))
    return EncoderWeights(
        wte=wte,
        positional=positional,
        layers=layers,
        final_gamma=ones,
        final_beta=zeros,
    )


@dataclass
class EncoderBundle:
    """A config, its weights, and the vocabulary they were built against."""

    config: EncoderConfig
    weights: EncoderWeights
    vocab: Vocab

    def tokenize(self, prompt: str) -> TokenSequence:
        return tokenize(prompt, self.vocab, self.config)

    def encode_prompt(
        self,
        prompt: str,
        tape: Tape | None = None,
        edit_rows: tuple[Sequence[int], Tensor] | None = None,
    ) -> HiddenStates:
        return encode(self.tokenize(prompt), self.weights, self.config, tape, edit_rows)
