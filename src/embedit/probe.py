"""Linear probe over embedding rows: is a binary attribute decodable?

Features are raw WTE rows (mean of subword rows for multi-token words); the
classifier is logistic regression trained from zeros by full-batch gradient
descent, so every run is deterministic given the split seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderWeights, Vocab
from .errors import (
    DatasetError,
    DegenerateDataError,
    check_number,
    is_integer,
    json_object,
    read_json,
    reading,
)


@dataclass(frozen=True)
class ProbeParams:
    """A probe's split seeds, train fraction and training settings, checked when made."""

    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    train_fraction: float = 0.8
    lr: float = 0.1
    epochs: int = 2000
    l2: float = 1e-4

    def __post_init__(self):
        if not (isinstance(self.seeds, (tuple, list)) and len(self.seeds) >= 2):
            raise ValueError(f"need at least 2 integer seeds, got {self.seeds!r}")
        for seed in self.seeds:
            check_number("need at least 2 integer seeds: each seed", seed, 0, integer=True)
        check_number("train_fraction", self.train_fraction, 0, 1, open_low=True, open_high=True)
        check_number("lr", self.lr, 0, open_low=True)
        check_number("l2", self.l2, 0)
        check_number("epochs", self.epochs, 1, integer=True)


@dataclass
class ProbeDataset:
    items: list[tuple[str, int]]
    label_names: tuple[str, str]

    def __post_init__(self):
        for k, (word, label) in enumerate(self.items):
            if not (is_integer(label) and label in (0, 1)):
                raise DegenerateDataError(f"probe dataset: item {k}: label for {word!r} "
                                          f"must be 0 or 1, got {label}")

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_json(cls, obj) -> "ProbeDataset":
        """Strict reader: exactly the keys "label_names", two strings, and
        "items", a list of objects with exactly a string "word" and a "label"
        that is a JSON integer (not a bool). Anything else raises
        DatasetError; __post_init__ refuses a label other than 0 or 1."""
        json_object(obj, {"label_names": (list,), "items": (list,)}, DatasetError,
                    "probe dataset")
        names = obj["label_names"]
        if not (len(names) == 2 and all(type(n) is str for n in names)):
            raise DatasetError("probe dataset: label_names must be two strings")
        items = obj["items"]
        for k, it in enumerate(items):
            json_object(it, {"word": (str,), "label": (int,)}, DatasetError,
                        f"probe dataset: item {k}")
        return cls(items=[(it["word"], it["label"]) for it in items], label_names=tuple(names))

    @classmethod
    def load(cls, path: str | Path) -> "ProbeDataset":
        """from_json of a JSON file, read by read_json; every refusal names the file."""
        with reading(path, DegenerateDataError):
            return read_json(path, DatasetError, cls.from_json)

    def to_json(self) -> dict:
        return {
            "label_names": list(self.label_names),
            "items": [{"word": w, "label": l} for w, l in self.items],
        }


@dataclass
class ProbeModel:
    weight: np.ndarray
    bias: float


def extract_features(dataset: ProbeDataset, weights: EncoderWeights, vocab: Vocab) -> np.ndarray:
    """One row per item: the mean of its prompt tokens' WTE rows (bitwise the
    row for a one-token word), so "Ice Cream" gives the ice and cream mean."""
    out = np.zeros((len(dataset.items), weights.wte.shape[1]))
    for k, (word, _) in enumerate(dataset.items):
        out[k] = weights.wte.rows(vocab.prompt_token_ids(word)).mean(axis=0)
    return out


def labels_array(dataset: ProbeDataset) -> np.ndarray:
    return np.array([label for _, label in dataset.items], dtype=np.float64)


def split(
    dataset: ProbeDataset, seed: int = 0, params: ProbeParams = ProbeParams()
) -> tuple[ProbeDataset, ProbeDataset]:
    """Seeded shuffle, then a prefix of params.train_fraction for training;
    the parts are disjoint and exhaustive."""
    n = len(dataset.items)
    order = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * params.train_fraction))
    cut = min(max(cut, 1), n - 1)
    train = [dataset.items[i] for i in order[:cut]]
    test = [dataset.items[i] for i in order[cut:]]
    return (
        ProbeDataset(train, dataset.label_names),
        ProbeDataset(test, dataset.label_names),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logreg_grad(weight: np.ndarray, bias: float, features: np.ndarray,
                labels: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
    """Gradient in (weight, bias) of the mean negative log-likelihood plus l2 * ||w||^2 / 2."""
    n = len(labels)
    p = _sigmoid(features @ weight + bias)
    dw = features.T @ (p - labels) / n + l2 * weight
    db = float(np.mean(p - labels))
    return dw, db


def train_logreg(
    features: np.ndarray, labels: np.ndarray, params: ProbeParams = ProbeParams()
) -> ProbeModel:
    """Logistic regression by full-batch gradient descent from zeros, at
    params.lr and params.l2 for params.epochs; a run that overflows raises
    DegenerateDataError."""
    lr, epochs, l2 = params.lr, params.epochs, params.l2
    if len(labels) < 2:
        raise DegenerateDataError("need at least 2 examples")
    classes = set(int(v) for v in labels)
    if classes != {0, 1}:
        raise DegenerateDataError(f"need both classes present, got labels {sorted(classes)}")
    w = np.zeros(features.shape[1])
    b = 0.0
    # An overflow leaves w or b non-finite, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            dw, db = logreg_grad(w, b, features, labels, l2)
            w = w - lr * dw
            b = b - lr * db
    if not (np.all(np.isfinite(w)) and np.isfinite(b)):
        raise DegenerateDataError("training diverged; lower the learning rate")
    return ProbeModel(weight=w, bias=b)


def predict(model: ProbeModel, features: np.ndarray) -> np.ndarray:
    return (features @ model.weight + model.bias >= 0.0).astype(np.int64)


def accuracy(model: ProbeModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction correct in [0, 1]."""
    return float(np.mean(predict(model, features) == labels.astype(np.int64)))


def accuracy_over_seeds(
    dataset: ProbeDataset,
    weights: EncoderWeights,
    vocab: Vocab,
    params: ProbeParams = ProbeParams(),
) -> tuple[float, float]:
    """Mean and population std of test accuracy, in percent, across
    params.seeds."""
    accs = []
    for seed in params.seeds:
        train, test = split(dataset, seed, params)
        model = train_logreg(extract_features(train, weights, vocab), labels_array(train), params)
        accs.append(accuracy(model, extract_features(test, weights, vocab), labels_array(test)))
    accs_pct = 100.0 * np.array(accs)
    return float(accs_pct.mean()), float(accs_pct.std())
