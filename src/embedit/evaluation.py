"""Edit metrics in hidden-state space against a frozen reference encoder.

The classifier is a cosine comparison on EOS-pooled states: a test prompt's
pooled state (from the edited encoder) is labeled by whichever reference
pooled state it is closer to. Ties go to the source label, so an edit is
never credited on an exact tie. Strict specificity is the bitwise check: a
negative prompt that avoids every edited token id must produce hidden states
identical to the reference's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .encoder import EncoderBundle, encode_reads, prompt_words
from .errors import (
    DatasetError,
    DegenerateInputError,
    DegenerateVectorError,
    NonFiniteError,
    json_object,
    parse_json,
    reading,
)

SOURCE = "source"
DESTINATION = "destination"
# MetricReport's buckets, in report order.
_BUCKETS = ("efficacy", "generality", "specificity", "strict_specificity")
# Below this magnitude a float64's square is subnormal or zero.
_TINY_ROOT = np.sqrt(np.finfo(np.float64).tiny)


def contains_phrase(prompt: str, phrase: str) -> bool:
    """True when the phrase's words occur contiguously in the prompt's words."""
    p, ph = prompt_words(prompt), prompt_words(phrase)
    if not ph:
        return False
    return any(p[i:i + len(ph)] == ph for i in range(len(p) - len(ph) + 1))


def _is_strs(value, n: int | None = None) -> bool:
    return type(value) is list and all(type(s) is str for s in value) and (
        n is None or len(value) == n)


def _json_pairs(obj, key: str) -> tuple[tuple[str, str], ...]:
    """obj[key], or no pairs when it is absent: [prompt, prompt] lists."""
    value = obj.get(key, [])
    if not all(_is_strs(p, 2) for p in value):
        raise DatasetError(f"edit entry: {key} must be a list of [prompt, prompt] pairs")
    return tuple((a, b) for a, b in value)


@dataclass(frozen=True)
class _Entry:
    """A dataset entry; `line` is the line it was read from (None for one
    made in code), which equality and to_json ignore."""

    line: int | None = field(default=None, compare=False, kw_only=True)

    def to_json(self) -> dict:
        obj = asdict(self)  # tuples, which json writes as lists
        del obj["line"]
        return obj


@dataclass(frozen=True)
class EditEntry(_Entry):
    """One edit plus its positive (paraphrase) and negative (unrelated) tests."""

    source: str
    destination: str
    target_word: str
    positives: tuple[tuple[str, str], ...] = ()
    negatives: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for sv, _ in self.positives:
            if not contains_phrase(sv, self.target_word):
                raise DatasetError(
                    f"entry {self.target_word!r}: positive {sv!r} lacks the target word"
                )
        for sn, _ in self.negatives:
            if contains_phrase(sn, self.target_word):
                raise DatasetError(
                    f"entry {self.target_word!r}: negative {sn!r} contains the target word"
                )

    @classmethod
    def from_json(cls, obj, line: int | None = None) -> "EditEntry":
        """A missing or unknown key, a prompt or word that is not a string, or
        a test that is not a [prompt, prompt] pair raises DatasetError."""
        json_object(obj, {"source": (str,), "destination": (str,), "target_word": (str,),
                          "positives": (list,), "negatives": (list,)},
                    DatasetError, "edit entry", optional=("positives", "negatives"))
        return cls(
            source=obj["source"],
            destination=obj["destination"],
            target_word=obj["target_word"],
            positives=_json_pairs(obj, "positives"),
            negatives=_json_pairs(obj, "negatives"),
            line=line,
        )

    @property
    def prompts(self) -> tuple[str, ...]:
        """Source, destination, then both prompts of each positive and negative
        pair: the one list `eval` checks and evaluate_edit reads on both bundles."""
        return (self.source, self.destination,
                *(p for pair in (*self.positives, *self.negatives) for p in pair))


@dataclass(frozen=True)
class GenderEntry(_Entry):
    profession: str
    validation: str
    tests: tuple[str, ...]
    female_ref: str
    male_ref: str

    def __post_init__(self):
        if not self.tests:
            raise DatasetError(f"gender entry {self.profession!r} has no test prompts")
        for t in self.tests:
            if not contains_phrase(t, self.profession):
                raise DatasetError(
                    f"gender entry {self.profession!r}: test {t!r} lacks the profession"
                )

    @classmethod
    def from_json(cls, obj, line: int | None = None) -> "GenderEntry":
        """A missing or unknown key, or a prompt or word that is not a string,
        raises DatasetError."""
        json_object(obj, {"profession": (str,), "validation": (str,), "tests": (list,),
                          "female_ref": (str,), "male_ref": (str,)},
                    DatasetError, "gender entry")
        if not _is_strs(obj["tests"]):
            raise DatasetError("gender entry: tests must be a list of strings")
        return cls(**{**obj, "tests": tuple(obj["tests"])}, line=line)

    @property
    def prompts(self) -> tuple[str, ...]:
        """The one list `gender` tokenizes, and reads before and after each edit:
        all but the profession, which every test holds."""
        return (self.female_ref, self.male_ref, self.validation, *self.tests)


def load_edit_entries(path: str | Path) -> list[EditEntry]:
    """Read a JSONL file, one EditEntry per non-blank line, holding its line."""
    return _load_jsonl(path, EditEntry.from_json)


def load_gender_entries(path: str | Path) -> list[GenderEntry]:
    """Read a JSONL file, one GenderEntry per non-blank line, holding its line."""
    return _load_jsonl(path, GenderEntry.from_json)


def _load_jsonl(path: str | Path, parse):
    """parse(value, n) of each non-blank line n, read under reading("path:
    line n", DatasetError): a line that is not UTF-8 JSON, or that parse()
    rejects, raises DatasetError naming the file and the line."""
    with open(path, "rb") as f:
        data = f.read()
    entries = []
    for line_no, raw in enumerate(data.splitlines(), 1):
        if raw.strip():
            with reading(f"{path}: line {line_no}", DatasetError):
                entries.append(parse(parse_json(raw, DatasetError), line_no))
    return entries


def _vec(v) -> np.ndarray:
    return v.array if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)


def classify(pooled_test, pooled_src_ref, pooled_dst_ref) -> str:
    """Label a pooled state by cosine proximity to the two reference states.

    Returns DESTINATION only when strictly closer to the destination
    reference; exact ties fall back to SOURCE. A zero reference has cosine 0
    with any test state. A norm or dot product that overflows raises
    NonFiniteError. Cosines are scale-free, so a vector whose squares would
    underflow is first divided by its largest magnitude.
    """
    t = _vec(pooled_test)
    s = _vec(pooled_src_ref)
    d = _vec(pooled_dst_ref)
    if t.shape != s.shape or t.shape != d.shape:
        raise DegenerateInputError(
            f"vector widths differ: {t.shape}, {s.shape}, {d.shape}"
        )
    t, s, d = (v / m if 0.0 < (m := float(np.abs(v).max(initial=0.0))) < _TINY_ROOT else v
               for v in (t, s, d))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        nt, ns, nd = (float(np.linalg.norm(v)) for v in (t, s, d))
        ts, td = float(t @ s), float(t @ d)
    if not np.isfinite([nt, ns, nd, ts, td]).all():
        raise NonFiniteError("classify: a norm or dot product of pooled states is not finite")
    if ns == 0.0 and nd == 0.0:
        raise DegenerateInputError("both reference vectors are zero")
    if nt == 0.0:
        raise DegenerateVectorError("test vector has zero norm")
    cos_s = ts / (nt * ns) if ns != 0.0 else 0.0
    cos_d = td / (nt * nd) if nd != 0.0 else 0.0
    return DESTINATION if cos_d > cos_s else SOURCE


@dataclass
class MetricReport:
    efficacy: float
    efficacy_se: float
    generality: float
    generality_se: float
    specificity: float
    specificity_se: float
    strict_specificity: float
    counts: dict[str, tuple[int, int]]

    def to_json(self) -> dict:
        return asdict(self)  # tuples, which json writes as lists


def _mean_se(values) -> tuple[float, float]:
    """Mean and its standard error (population std / sqrt n); (0, 0) when empty."""
    if len(values) == 0:
        return 0.0, 0.0
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std() / np.sqrt(len(arr)))


def _report(scores: dict[str, tuple[float, float]],
            counts: dict[str, tuple[int, int]]) -> MetricReport:
    """A MetricReport from each bucket's (mean, se) and its (successes,
    total), the latter keyed in _BUCKETS order. Strict specificity carries
    no standard error."""
    (e, e_se), (g, g_se), (s, s_se), (strict, _) = (scores[k] for k in _BUCKETS)
    return MetricReport(
        efficacy=e, efficacy_se=e_se,
        generality=g, generality_se=g_se,
        specificity=s, specificity_se=s_se,
        strict_specificity=strict,
        counts=counts,
    )


def evaluate_edit(
    entry: EditEntry,
    edited: EncoderBundle,
    reference: EncoderBundle,
) -> MetricReport:
    """Score one entry. The reference bundle must be the pre-edit encoder.

    Efficacy, generality and specificity score their buckets of (prompt,
    reference prompt) pairs by one rule: the edited prompt's pooled state
    must classify, against the pair's reference states, as the bucket
    expects. Strict specificity: each negative's hidden states must match
    the reference's bitwise.

    Both bundles are read by the same encode_reads over entry.prompts, one
    forward each, with nothing shared: each distinct prompt once, a
    negative's source in full. Both stacks hold the same rows in the same
    order, so a negative that avoids the edited ids runs the same arithmetic
    at the same offsets on each, whatever the (deterministic) BLAS.
    """
    buckets = (
        ("efficacy", ((entry.source, entry.destination),), DESTINATION),
        ("generality", entry.positives, DESTINATION),
        ("specificity", entry.negatives, SOURCE),
    )
    negatives = [p for p, _ in entry.negatives]
    (ed_states, ed), (ref_states, ref) = (encode_reads(b, negatives, entry.prompts)
                                          for b in (edited, reference))
    outcomes = {
        name: [classify(ed[p], ref[p], ref[q]) == expected for p, q in pairs]
        for name, pairs, expected in buckets
    }
    outcomes["strict_specificity"] = [
        ed_states[p].sequence.array.tobytes() == ref_states[p].sequence.array.tobytes()
        for p in negatives
    ]
    return _report(
        {k: _mean_se(100.0 * np.array(v, dtype=np.float64)) for k, v in outcomes.items()},
        {k: (sum(v), len(v)) for k, v in outcomes.items()},
    )


def aggregate_reports(reports: list[MetricReport]) -> MetricReport:
    """Dataset-level report: mean over entries, standard error over entries.

    An entry with no prompts in some bucket (for example, every negative was
    removed by the sequential filter) does not contribute to that bucket's
    mean.
    """
    if not reports:
        raise DatasetError("no reports to aggregate")
    scores, counts = {}, {}
    for key in _BUCKETS:
        scores[key] = _mean_se([getattr(r, key) for r in reports if r.counts[key][1] > 0])
        tallies = [r.counts[key] for r in reports]
        counts[key] = (sum(n for n, _ in tallies), sum(n for _, n in tallies))
    return _report(scores, counts)


def filter_sequential_dataset(
    entries: list[EditEntry],
    excluded_targets: tuple[str, ...] = (),
) -> list[EditEntry]:
    """Prepare entries for sequential editing.

    Entries whose target's words (prompt_words) are an excluded target's
    are dropped. Then any negative whose source prompt contains another kept
    entry's target word is removed: once that other target is edited too,
    the prompt is no longer a valid unchanged-ness test. Idempotent.
    """
    excluded = {tuple(prompt_words(t)) for t in excluded_targets}
    kept = [e for e in entries if tuple(prompt_words(e.target_word)) not in excluded]
    targets = [e.target_word for e in kept]
    out = []
    for k, entry in enumerate(kept):
        others = [t for j, t in enumerate(targets) if j != k]
        negatives = tuple(
            (sn, dn)
            for sn, dn in entry.negatives
            if not any(contains_phrase(sn, t) for t in others)
        )
        out.append(replace(entry, negatives=negatives))
    return out


def female_percentage(
    entry: GenderEntry,
    pooled: dict[str, Tensor],
    female_ref: Tensor,
    male_ref: Tensor,
) -> float:
    """Percentage of entry.tests whose pooled states, read from `pooled`,
    classify as the female reference.

    female_ref and male_ref are the reference encoder's pooled states of
    entry.female_ref and entry.male_ref.
    """
    female = sum(
        classify(pooled[prompt], male_ref, female_ref) == DESTINATION for prompt in entry.tests
    )
    return 100.0 * female / len(entry.tests)


def gender_delta(f_values: list[float]) -> float:
    """Mean over professions of |F_p - 50| / 50."""
    if not f_values:
        raise DatasetError("no F_p values")
    arr = np.array(f_values, dtype=np.float64)
    return float(np.mean(np.abs(arr - 50.0) / 50.0))
