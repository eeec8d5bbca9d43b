"""CLIP-style transformer text encoder over a closed vocabulary.

Tokenizer is a plain table lookup with an explicit word-to-subword split
table (no BPE): deterministic and auditable. The encoder is pre-norm with
causal attention, a GELU MLP, and a final layer norm; the row of the last
hidden states at the EOS position is the pooled text feature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    add,
    add_bias,
    attention,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    substitute_rows,
)
# Not called here. perfbench's tracer wraps embedit.encoder.<op> for these, so the
# per-head ops stay in autodiff, not with the tests' oracles, until it stops naming them.
from .autodiff import concat_cols, scale, slice_cols, softmax_rows, transpose  # noqa: F401
from .errors import (
    DimensionError,
    EmptyPromptError,
    NonFiniteError,
    PromptTooLongError,
    TapeUsageError,
    UnknownTokenError,
    check_ids,
    check_number,
    json_object,
)

INIT_STD = 0.02


def prompt_words(text: str) -> list[str]:
    """The word rule for prompts, targets and probe words: lowercase, then split."""
    return text.lower().split()


@dataclass(frozen=True)
class Vocab:
    """Closed vocabulary: word ids, reserved ids, and a word split table.

    The word ids and BOS/EOS/PAD are vocab_size distinct ids in [0, vocab_size)
    (errors.check_ids), held as Python ints; prompt_words reads every word and
    split key back as itself, and every split entry must expand to known
    single-token words. A violation raises ValueError.
    """

    tokens: dict[str, int]
    splits: dict[str, list[str]] = field(default_factory=dict)
    bos: int = 0
    eos: int = 1
    pad: int = 2

    def __post_init__(self):
        words, specials = list(self.tokens), ("bos", "eos", "pad")
        try:
            ids = check_ids([*self.tokens.values(), self.bos, self.eos, self.pad],
                            len(words) + 3, distinct=True,
                            name=lambda p: f"word {words[p]!r}" if p < len(words)
                            else specials[p - len(words)])
        except (TypeError, IndexError) as e:
            raise ValueError(str(e)) from e
        object.__setattr__(self, "tokens", dict(zip(words, ids)))
        for name, i in zip(specials, ids[len(words):]):
            object.__setattr__(self, name, i)
        keys = [*words, *self.splits]
        if prompt_words(" ".join(keys)) != keys:  # one pass over a CLIP-L vocab
            bad = next(w for w in keys if prompt_words(w) != [w])
            raise ValueError(f"word {bad!r} is not one lowercase word without whitespace")
        for word, subwords in self.splits.items():
            if not subwords:
                raise ValueError(f"split table entry {word!r} is empty")
            for sw in subwords:
                if sw not in self.tokens:
                    raise ValueError(f"split of {word!r} uses unknown subword {sw!r}")

    @property
    def vocab_size(self) -> int:
        return len(self.tokens) + 3

    def to_json(self) -> dict:
        # Built directly: asdict's deep copy takes most of a CLIP-L save's header time.
        return {"tokens": dict(self.tokens),
                "splits": {w: list(s) for w, s in self.splits.items()},
                "bos": self.bos, "eos": self.eos, "pad": self.pad}

    @classmethod
    def from_json(cls, obj) -> "Vocab":
        """Strict inverse of to_json: exactly its keys ("splits" may be left
        out), ids that are JSON integers (not bools), and splits that map words
        to lists of words. A violation raises ValueError."""
        json_object(obj, {"tokens": (dict,), "splits": (dict,), "bos": (int,), "eos": (int,),
                          "pad": (int,)}, ValueError, "vocab", optional=("splits",))
        tokens, splits = obj["tokens"], obj.get("splits", {})
        if not all(type(s) is list and all(type(w) is str for w in s) for s in splits.values()):
            raise ValueError("splits must map words to lists of words")
        return cls(tokens=tokens, splits={w: list(s) for w, s in splits.items()},
                   bos=obj["bos"], eos=obj["eos"], pad=obj["pad"])

    def word_token_ids(self, word: str) -> list[int]:
        """Expand one lowercase word to its token ids (split table wins)."""
        if word in self.splits:
            return [self.tokens[sw] for sw in self.splits[word]]
        if word in self.tokens:
            return [self.tokens[word]]
        raise UnknownTokenError(f"word {word!r} is not in the vocabulary or split table")

    def prompt_token_ids(self, prompt: str) -> list[int]:
        """Token ids of a prompt's words, without BOS/EOS/PAD framing."""
        words = prompt_words(prompt)
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
            low = 3 if name == "context_length" else 1  # BOS + token + EOS
            object.__setattr__(self, name, int(check_number(name, getattr(self, name), low,
                                                            integer=True)))
        object.__setattr__(self, "eps", float(check_number("eps", self.eps, 0)))
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "EncoderConfig":
        """Strict inverse of to_json: exactly its keys, sizes that are JSON
        integers (not bools) and a finite eps. A violation raises ValueError."""
        return cls(**json_object(obj, {f.name: (int, float) if f.name == "eps" else (int,)
                                       for f in fields(cls)}, ValueError, "config"))

    def total_params(self) -> int:
        """Scalars in all the tensors this config calls for (tensor_shapes)."""
        return sum(math.prod(shape) for shape in tensor_shapes(self).values())


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


_LAYER_FIELDS = tuple(f.name for f in fields(LayerWeights))


class WteTable:
    """The token embedding table: a frozen base plus overriding rows.

    Immutable. The base Tensor is shared by every table derived from it;
    with_rows returns a new table that holds the written rows as overrides,
    so a k-row write costs about k*d*8 bytes and never copies the base. An
    override whose bytes equal its base row's is dropped, so writing the
    base rows back (a full revert) leaves the base alone again. rows is the
    one read: the encoder, .array, every k-row read and save's overriding
    rows go through it. Ids follow errors.check_ids: integers (not bools) in
    [0, vocab_size).
    """

    __slots__ = ("base", "override_ids", "overrides")

    def __init__(self, base: Tensor):
        self.base = base
        self.override_ids: tuple[int, ...] = ()
        self.overrides = Tensor._wrap(np.empty((0, base.shape[1])))

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def array(self) -> np.ndarray:
        """The base's read-only array when nothing overrides it. Otherwise
        rows of every id: a read-only V-by-d copy, built anew on each call."""
        return self.rows(range(self.shape[0])) if self.override_ids else self.base.array

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """The rows of `ids`, overrides applied: the table's one read. A fresh
        read-only k-by-d array that no live Tensor holds, so a caller may
        adopt it with Tensor._wrap."""
        ids = list(ids)
        x = gather_rows(self.base, ids)  # checks the ids
        if not set(self.override_ids).isdisjoint(ids):
            x = substitute_rows(x, ids, self.override_ids, self.overrides)
        return x.array

    def with_rows(self, ids: Sequence[int], rows: np.ndarray) -> "WteTable":
        """A table whose rows of `ids` are `rows` and whose other rows are
        this table's. Ids that errors.check_ids rejects, repeated ids, rows
        not shaped (len(ids), d_model) and non-finite rows are rejected."""
        ids = check_ids(ids, self.shape[0], distinct=True)
        d = self.shape[1]
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (len(ids), d):
            raise DimensionError(f"rows have shape {rows.shape}, expected {(len(ids), d)}")
        if not np.all(np.isfinite(rows)):
            raise NonFiniteError("tensor entries must be finite")
        merged = dict(zip(self.override_ids, self.overrides.array))
        merged.update(zip(ids, rows))
        # Bytes, not values: a row that differs from its base row only in the
        # sign of a zero stays an override.
        base = self.base.array
        keep = sorted(i for i, row in merged.items() if row.tobytes() != base[i].tobytes())
        table = WteTable(self.base)
        table.override_ids = tuple(keep)
        table.overrides = Tensor._wrap(np.array([merged[i] for i in keep]).reshape(len(keep), d))
        return table


@dataclass
class EncoderWeights:
    """All encoder parameters. Only WTE rows may change after construction."""

    wte: WteTable
    positional: Tensor
    layers: list[LayerWeights]
    final_gamma: Tensor
    final_beta: Tensor

    @classmethod
    def from_named(cls, tensors: dict, config: EncoderConfig) -> "EncoderWeights":
        """Inverse of named_tensors(): `tensors` holds every name `config` calls
        for; "wte" may be a WteTable or the Tensor of its base."""
        layers = [LayerWeights(**{f: tensors[f"layers.{i}.{f}"] for f in _LAYER_FIELDS})
                  for i in range(config.n_layers)]
        wte = tensors["wte"]
        return cls(wte=wte if isinstance(wte, WteTable) else WteTable(wte),
                   positional=tensors["positional"], layers=layers,
                   final_gamma=tensors["final_gamma"], final_beta=tensors["final_beta"])

    def named_tensors(self) -> Iterator[tuple[str, Tensor | WteTable]]:
        """Stable (name, tensor) ordering used for archives and init; "wte"
        is the WteTable."""
        yield "wte", self.wte
        yield "positional", self.positional
        for i, layer in enumerate(self.layers):
            for fname in _LAYER_FIELDS:
                yield f"layers.{i}.{fname}", getattr(layer, fname)
        yield "final_gamma", self.final_gamma
        yield "final_beta", self.final_beta

    def set_wte_rows(self, ids: Sequence[int], rows: np.ndarray) -> None:
        """Replace the given WTE rows; every other scalar keeps its bits.

        What WteTable.with_rows rejects is rejected before anything is
        written. The table is never mutated: self.wte is rebound to with_rows'
        table, which shares the base, so a write costs about k*d*8 bytes and
        any other EncoderWeights holding the old table (a dataclasses.replace
        copy) keeps its rows.
        """
        self.wte = self.wte.with_rows(ids, rows)


def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor `config` calls for, by name, in
    EncoderWeights.named_tensors() order."""
    d, f = config.d_model, config.d_ff
    layer = dict.fromkeys(_LAYER_FIELDS, (d,))  # biases and layer norms
    layer.update(wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d),
                 mlp_w1=(d, f), mlp_b1=(f,), mlp_w2=(f, d))
    shapes = {"wte": (config.vocab_size, d), "positional": (config.context_length, d)}
    for i in range(config.n_layers):
        shapes.update({f"layers.{i}.{name}": shape for name, shape in layer.items()})
    shapes.update({"final_gamma": (d,), "final_beta": (d,)})
    return shapes


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length token ids: BOS, words, EOS, then PAD to context length."""

    ids: tuple[int, ...]
    eos_position: int


@dataclass(frozen=True)
class HiddenStates:
    """Final-layer output matrix; its row at eos_position is the pooled state."""

    sequence: Tensor
    eos_position: int

    @property
    def pooled(self) -> Tensor:
        return Tensor(self.sequence.array[self.eos_position])


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


def _forward(
    ids: Sequence[Sequence[int]],
    weights: EncoderWeights,
    config: EncoderConfig,
    tape: Tape | None = None,
    edit_rows: tuple[Sequence[int], Tensor] | None = None,
) -> Tensor:
    """The encoder over token rows of mixed lengths, each at most the
    context, run as one stack: the positions of ids[0], then those of
    ids[1], and so on, one row each. Every position attends causally within
    its own token row, so each row's states are those of encoding it alone.
    Raises NonFiniteError when a computed state is not finite."""
    lengths = [len(row) for row in ids]
    positional = Tensor._wrap(np.concatenate([weights.positional.array[:n] for n in lengths]))
    flat = [i for row in ids for i in row]

    # The primitives adopt their outputs unchecked. A value that overflows
    # raises at a layer norm's variance or attention's scores, or reaches the
    # output, so the one check below reports it and numpy need not warn.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # The table places its overrides untaped, before the edit leaf.
        x = Tensor._wrap(weights.wte.rows(flat))
        if edit_rows is not None:
            leaf_ids, leaf = edit_rows
            leaf_ids = check_ids(leaf_ids, config.vocab_size, distinct=True)
            if tape is not None:
                tape.watch(leaf)
            x = substitute_rows(x, flat, leaf_ids, leaf, tape)
        x = add(x, positional, tape)

        for layer in weights.layers:
            h = layer_norm(x, layer.ln1_gamma, layer.ln1_beta, config.eps, tape)
            q = add_bias(matmul(h, layer.wq, tape), layer.bq, tape)
            k = add_bias(matmul(h, layer.wk, tape), layer.bk, tape)
            v = add_bias(matmul(h, layer.wv, tape), layer.bv, tape)
            merged = attention(q, k, v, config.n_heads, lengths, tape)
            x = add(x, add_bias(matmul(merged, layer.wo, tape), layer.bo, tape), tape)

            h2 = layer_norm(x, layer.ln2_gamma, layer.ln2_beta, config.eps, tape)
            m = gelu(add_bias(matmul(h2, layer.mlp_w1, tape), layer.mlp_b1, tape), tape)
            m = add_bias(matmul(m, layer.mlp_w2, tape), layer.mlp_b2, tape)
            x = add(x, m, tape)

        x = layer_norm(x, weights.final_gamma, weights.final_beta, config.eps, tape)
    if not np.isfinite(x.array).all():
        raise NonFiniteError("encode: hidden states are not finite")
    return x


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
    they attend causally and are not key-masked. A forward pass that
    overflows raises NonFiniteError, so the hidden states are always finite.
    """
    if len(tokens.ids) != config.context_length:
        raise DimensionError(
            f"token sequence length {len(tokens.ids)} != context length {config.context_length}"
        )
    if edit_rows is None and tape is not None:
        raise TapeUsageError("a taped encode needs edit_rows: its rows are the only leaf")
    x = _forward([tokens.ids], weights, config, tape, edit_rows)
    return HiddenStates(sequence=x, eos_position=tokens.eos_position)


def init_random_weights(config: EncoderConfig, seed: int) -> EncoderWeights:
    """Layer-norm gammas are ones and betas zeros; every other tensor is drawn
    from Normal(0, 0.02) by one generator, in tensor_shapes() order, so the
    same seed gives bitwise-identical weights."""
    rng = np.random.default_rng(check_number("seed", seed, 0, integer=True))
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("_gamma"):
            a = np.ones(shape)
        elif name.endswith("_beta"):
            a = np.zeros(shape)
        else:
            a = rng.normal(0.0, INIT_STD, size=shape)
        # Fresh arrays, adopted without the copy Tensor(...) would make.
        tensors[name] = Tensor._wrap(a)
    return EncoderWeights.from_named(tensors, config)


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


def _pooled_length(eos: int, context: int) -> int:
    """The positions a pooled read runs: eos + 1 rounded up to a multiple of 8,
    at most the context. numpy's pairwise sum keeps 8 accumulators, so over such
    a prefix the softmax sums are bitwise the full context's (README, "Bitwise facts")."""
    return min(context, -(-(eos + 1) // 8) * 8)


def encode_reads(
    bundle: EncoderBundle, full: Iterable[str], pooled: Iterable[str],
) -> tuple[dict[str, HiddenStates], dict[str, Tensor]]:
    """Each distinct prompt read once, all in one forward: the hidden states
    of each prompt in `full`, and the pooled state of every prompt in either
    list, each keyed by prompt.

    A `full` prompt runs over the whole context, and its pooled state is
    taken from its states. Position eos of a causal encoder depends only on
    positions 0..eos, so any other prompt runs over its first
    _pooled_length(eos, context) positions. The token rows are stacked in
    order of that length, so the rows of one length share attention's runs.
    Every state is bitwise bundle.encode_prompt(prompt)'s where a row block
    of a stacked matmul is bitwise its own matmul (README, "Bitwise facts"),
    not under OpenBLAS's Nehalem kernels. No command's output rests on the fact.
    Raises NonFiniteError when a computed state is not finite.
    """
    full = dict.fromkeys(full)
    tokens = {p: bundle.tokenize(p) for p in dict.fromkeys([*full, *pooled])}
    if not tokens:
        return {}, {}
    context = bundle.config.context_length
    n_of = {p: context if p in full else _pooled_length(t.eos_position, context)
            for p, t in tokens.items()}
    order = sorted(tokens, key=n_of.__getitem__)
    x = _forward([tokens[p].ids[:n_of[p]] for p in order], bundle.weights, bundle.config).array
    states, rows, start = {}, {}, 0
    for p in order:
        eos = tokens[p].eos_position
        rows[p] = Tensor(x[start + eos])
        if p in full:
            states[p] = HiddenStates(Tensor(x[start:start + context]), eos)
        start += n_of[p]
    return states, rows


def encode_pooled(bundle: EncoderBundle, prompts: Iterable[str]) -> dict[str, Tensor]:
    """The pooled state of each distinct prompt, keyed by prompt: the
    pooled-only case of encode_reads, so all in one forward."""
    return encode_reads(bundle, (), prompts)[1]
