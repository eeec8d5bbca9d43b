"""Seeded input generators for the benchmark workloads.

Everything the program sees (vocabulary, encoder config, edit and gender
datasets) is made here from one seed and written to plain files. The same
seed gives the same files; another seed gives inputs of the same shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
GENDER_WORDS = ("female", "male")


@dataclass(frozen=True)
class Shape:
    """Encoder dimensions plus vocabulary size (special tokens included)."""

    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    context_length: int

    def config_json(self) -> dict:
        return {"d_model": self.d_model, "n_layers": self.n_layers,
                "n_heads": self.n_heads, "d_ff": self.d_ff,
                "context_length": self.context_length}


CLIP_L = Shape(vocab_size=49408, d_model=768, n_layers=12, n_heads=12, d_ff=3072,
               context_length=77)
DESK = Shape(vocab_size=303, d_model=8, n_layers=2, n_heads=2, d_ff=16, context_length=8)
# Stand-ins for the CLIP-L shape when the harness itself is under test.
TINY_CLIP = Shape(vocab_size=2003, d_model=32, n_layers=2, n_heads=4, d_ff=64,
                  context_length=16)


def pseudo_words(rng: np.random.Generator, n: int, exclude=()) -> list[str]:
    """n distinct lowercase words of 4 to 9 letters, none in `exclude`."""
    seen = set(exclude)
    words: list[str] = []
    while len(words) < n:
        k = 2 * (n - len(words)) + 16
        letters = LETTERS[rng.integers(0, len(LETTERS), size=(k, 9))]
        lengths = rng.integers(4, 10, size=k)
        for row, m in zip(letters, lengths):
            w = "".join(row[:m])
            if w not in seen:
                seen.add(w)
                words.append(w)
                if len(words) == n:
                    break
    return words


@dataclass
class Lexicon:
    """A generated vocabulary, split into roles so datasets can keep their
    negatives away from every edited token id."""

    vocab: dict            # vocab JSON object, as embedit reads it
    targets1: list[str]    # single-token edit targets
    targets2: list[str]    # split (two-token) edit targets
    free: list[str]        # single-token words that share no id with any target


def make_lexicon(rng: np.random.Generator, shape: Shape, n_targets1: int,
                 n_targets2: int, gender: bool = False) -> Lexicon:
    n_words = shape.vocab_size - 3
    reserved = GENDER_WORDS if gender else ()
    words = pseudo_words(rng, n_words - len(reserved), exclude=GENDER_WORDS)
    words = list(reserved) + words
    order = rng.permutation(n_words)
    tokens = {words[k]: int(order[k]) + 3 for k in range(n_words)}

    plain = [w for w in words if w not in GENDER_WORDS]
    targets1 = plain[:n_targets1]
    subwords = plain[n_targets1:n_targets1 + 2 * n_targets2]
    free = plain[n_targets1 + 2 * n_targets2:]
    split_names = pseudo_words(rng, n_targets2, exclude=tokens)
    splits = {name: [subwords[2 * k], subwords[2 * k + 1]]
              for k, name in enumerate(split_names)}
    vocab = {"tokens": tokens, "splits": splits, "bos": 0, "eos": 1, "pad": 2}
    return Lexicon(vocab, targets1, split_names, free)


def edit_entries(rng: np.random.Generator, lex: Lexicon, targets: list[str],
                 n_pos: int, n_neg: int, hard: set[str] = frozenset(),
                 neg_pool: list[tuple[str, str]] | None = None) -> list[dict]:
    """One edit entry per target, as embedit's JSONL reads them.

    An easy destination swaps the target for free words of the same token
    count, which the target rows can match exactly; a `hard` one inserts a
    modifier before the target, which shifts every later position. Negatives
    use only free words, so they avoid every edited id; with `neg_pool` they
    are drawn from a shared pool and repeat across entries.
    """
    free = lex.free

    def pick():
        return free[int(rng.integers(len(free)))]

    entries = []
    for t in targets:
        ctx, mod = pick(), pick()
        n_tok = len(lex.vocab["splits"].get(t, [t]))
        synonym = " ".join(pick() for _ in range(n_tok))
        positives = []
        for _ in range(n_pos):
            c = pick()
            positives.append([f"{c} {t}", f"{c} {mod} {t}"])
        if neg_pool is None:
            negatives = []
            for _ in range(n_neg):
                a, b = pick(), pick()
                negatives.append([f"{a} {b}", f"{a} {mod} {b}"])
        else:
            idx = rng.choice(len(neg_pool), size=n_neg, replace=False)
            negatives = [list(neg_pool[int(k)]) for k in idx]
        entries.append({
            "source": f"{ctx} {t}",
            "destination": f"{ctx} {mod} {t}" if t in hard else f"{ctx} {synonym}",
            "target_word": t,
            "positives": positives,
            "negatives": negatives,
        })
    return entries


def negative_pool(rng: np.random.Generator, lex: Lexicon, n: int) -> list[tuple[str, str]]:
    free = lex.free
    pool = []
    for _ in range(n):
        a, m, b = (free[int(k)] for k in rng.integers(len(free), size=3))
        pool.append((f"{a} {b}", f"{a} {m} {b}"))
    return pool


def gender_entries(rng: np.random.Generator, lex: Lexicon, professions: list[str],
                   n_tests: int) -> list[dict]:
    free = lex.free

    def pick():
        return free[int(rng.integers(len(free)))]

    out = []
    for p in professions:
        out.append({
            "profession": p,
            "validation": f"{pick()} {p}",
            "tests": [f"{pick()} {p}" for _ in range(n_tests)],
            "female_ref": f"female {p}",
            "male_ref": f"male {p}",
        })
    return out


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                    encoding="utf-8")
