"""Embedding-row editing: move a source prompt's final hidden states toward a
destination prompt's by optimizing only the target word's WTE rows.

The optimization loop checks its stopping threshold before every step, so a
threshold already met at the first evaluation leaves the weights bitwise
untouched. The loop optimizes a k-by-d copy of the target rows and writes
the table once, after the loop and its final scoring succeed, so an edit that
raises leaves the table bitwise as it was. Each edit appends one ledger entry
holding the pre-edit rows, which makes any prefix of the edit history exactly
revertible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, backward, mean_square, slice_rows, sub
from .encoder import EncoderBundle, HiddenStates, Vocab, encode, tokenize
from .errors import (
    DimensionError,
    DivergenceError,
    InconsistentRequestError,
    LedgerFormatError,
    LedgerRangeError,
    UnknownTokenError,
)
from .optim import make_optimizer


class LossPositions(str, Enum):
    """Which rows of the hidden-state matrices the loss averages over."""

    FULL_SEQUENCE = "full_sequence"
    UP_TO_EOS = "up_to_eos"


class OptimizerKind(str, Enum):
    ADAM = "adam"
    SGD = "sgd"


@dataclass(frozen=True)
class EditRequest:
    source_prompt: str
    destination_prompt: str
    target_word: str


@dataclass(frozen=True)
class EditHyperparams:
    """Stopping ratio, iteration cap, and step rule for one edit.

    stop_ratio is the fraction of the initial loss used as the convergence
    threshold; 1 stops immediately, 0 never stops early.
    """

    stop_ratio: float = 0.2
    max_iters: int = 100
    learning_rate: float = 0.001
    optimizer: OptimizerKind = OptimizerKind.ADAM
    loss_positions: LossPositions = LossPositions.FULL_SEQUENCE

    def __post_init__(self):
        if not 0.0 <= self.stop_ratio <= 1.0:
            raise ValueError(f"stop_ratio must be in [0, 1], got {self.stop_ratio}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass
class EditResult:
    initial_loss: float
    threshold_tau: float
    final_loss: float
    iterations_run: int
    optimizer_steps: int
    converged: bool
    edited_token_ids: tuple[int, ...]


@dataclass
class LedgerEntry:
    source_prompt: str
    destination_prompt: str
    target_word: str
    edited_token_ids: tuple[int, ...]
    original_rows: dict[int, Tensor]
    new_rows: dict[int, Tensor]
    result: EditResult


@dataclass
class EditLedger:
    """Ordered record of edits; single writer, replayable in order."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LedgerEntry) -> None:
        self.entries.append(entry)

    def to_json(self) -> dict:
        out = []
        for e in self.entries:
            ids = list(e.edited_token_ids)
            out.append({
                "source_prompt": e.source_prompt,
                "destination_prompt": e.destination_prompt,
                "target_word": e.target_word,
                "edited_token_ids": ids,
                "original_rows": [e.original_rows[i].tolist() for i in ids],
                "new_rows": [e.new_rows[i].tolist() for i in ids],
                "result": {
                    "initial_loss": e.result.initial_loss,
                    "tau": e.result.threshold_tau,
                    "final_loss": e.result.final_loss,
                    "iterations_run": e.result.iterations_run,
                    "optimizer_steps": e.result.optimizer_steps,
                    "converged": e.result.converged,
                },
            })
        return {"entries": out}

    @classmethod
    def from_json(cls, obj: dict) -> "EditLedger":
        ledger = cls()
        for e in obj["entries"]:
            ids = tuple(int(i) for i in e["edited_token_ids"])
            r = e["result"]
            ledger.append(LedgerEntry(
                source_prompt=e["source_prompt"],
                destination_prompt=e["destination_prompt"],
                target_word=e["target_word"],
                edited_token_ids=ids,
                original_rows={i: Tensor(row) for i, row in zip(ids, e["original_rows"])},
                new_rows={i: Tensor(row) for i, row in zip(ids, e["new_rows"])},
                result=EditResult(
                    initial_loss=r["initial_loss"],
                    threshold_tau=r["tau"],
                    final_loss=r["final_loss"],
                    iterations_run=r["iterations_run"],
                    optimizer_steps=r["optimizer_steps"],
                    converged=r["converged"],
                    edited_token_ids=ids,
                ),
            ))
        return ledger

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "EditLedger":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


def mse_hidden(h1: HiddenStates, h2: HiddenStates, positions: LossPositions) -> float:
    """Mean squared difference over the selected rows of the two matrices."""
    if h1.sequence.shape != h2.sequence.shape:
        raise DimensionError(
            f"hidden states have shapes {h1.sequence.shape} and {h2.sequence.shape}"
        )
    n_rows = _scored_rows(h1, h2, positions)
    d = h1.sequence.array[:n_rows] - h2.sequence.array[:n_rows]
    return float(np.mean(d * d))


def _scored_rows(h1: HiddenStates, h2: HiddenStates, positions: LossPositions) -> int:
    if positions is LossPositions.FULL_SEQUENCE:
        return h1.sequence.shape[0]
    return max(h1.eos_position, h2.eos_position) + 1


def _taped_mse(h: HiddenStates, target: HiddenStates, n_rows: int, tape: Tape) -> Tensor:
    diff = sub(h.sequence, target.sequence, tape)
    if n_rows < diff.shape[0]:
        diff = slice_rows(diff, 0, n_rows, tape)
    return mean_square(diff, tape)


def target_token_ids(request: EditRequest, vocab: Vocab) -> set[int]:
    """Token ids of the target word(s), which must all occur in the source prompt."""
    target_ids: list[int] = []
    for word in request.target_word.lower().split():
        target_ids.extend(vocab.word_token_ids(word))
    if not target_ids:
        raise InconsistentRequestError(f"target {request.target_word!r} has no tokens")
    source_ids = set(vocab.prompt_token_ids(request.source_prompt))
    missing = [i for i in target_ids if i not in source_ids]
    if missing:
        raise InconsistentRequestError(
            f"target {request.target_word!r} tokens {missing} do not occur in "
            f"source prompt {request.source_prompt!r}"
        )
    return set(target_ids)


def edit_single(
    bundle: EncoderBundle,
    request: EditRequest,
    hyper: EditHyperparams,
    ledger: EditLedger,
) -> EditResult:
    """One edit: freeze the destination's hidden states, precompute the
    stopping threshold as stop_ratio times the initial loss, then iterate
    encode / loss / threshold-check / step on exactly the target rows.

    The check precedes the step, so stop_ratio=1 and identical prompts take
    zero optimizer steps and write nothing. The rows are written to the table
    once, after the loop; if the edit raises, the table is left as it was.
    The caller must hold exclusive access to the weights.
    """
    config, weights, vocab = bundle.config, bundle.weights, bundle.vocab
    ids = sorted(target_token_ids(request, vocab))

    src_tokens = tokenize(request.source_prompt, vocab, config)
    dst_tokens = tokenize(request.destination_prompt, vocab, config)
    h_new = encode(dst_tokens, weights, config)
    h_init = encode(src_tokens, weights, config)
    initial_loss = mse_hidden(h_init, h_new, hyper.loss_positions)
    tau = hyper.stop_ratio * initial_loss
    n_rows = _scored_rows(h_init, h_new, hyper.loss_positions)

    original_rows = {i: weights.wte_row(i) for i in ids}
    params = weights.wte.array[ids].copy()
    opt = make_optimizer(hyper.optimizer.value, params.shape, hyper.learning_rate)

    final_loss = initial_loss
    iterations = 0
    steps = 0
    for i in range(1, hyper.max_iters + 1):
        iterations = i
        tape = Tape()
        leaf = Tensor(params)
        h_i = encode(src_tokens, weights, config, tape, edit_rows=(ids, leaf))
        loss_t = _taped_mse(h_i, h_new, n_rows, tape)
        loss = loss_t.item()
        if not math.isfinite(loss):
            raise DivergenceError("loss became non-finite", iteration=i)
        final_loss = loss
        if loss <= tau:
            break
        params = opt.step(params, backward(tape, loss_t)[leaf].array)
        if not np.all(np.isfinite(params)):
            raise DivergenceError("embedding rows became non-finite", iteration=i)
        steps += 1
    else:
        # Cap reached: the last step's effect was never scored inside the loop.
        h_last = encode(src_tokens, weights, config, edit_rows=(ids, Tensor(params)))
        final_loss = mse_hidden(h_last, h_new, hyper.loss_positions)
        if not math.isfinite(final_loss):
            raise DivergenceError("loss became non-finite", iteration=hyper.max_iters)
    if steps:
        weights.set_wte_rows(ids, params)

    result = EditResult(
        initial_loss=initial_loss,
        threshold_tau=tau,
        final_loss=final_loss,
        iterations_run=iterations,
        optimizer_steps=steps,
        converged=final_loss <= tau,
        edited_token_ids=tuple(ids),
    )
    ledger.append(LedgerEntry(
        source_prompt=request.source_prompt,
        destination_prompt=request.destination_prompt,
        target_word=request.target_word,
        edited_token_ids=tuple(ids),
        original_rows=original_rows,
        new_rows={i: weights.wte_row(i) for i in ids},
        result=result,
    ))
    return result


def edit_sequential(
    bundle: EncoderBundle,
    requests: list[EditRequest],
    hyper: EditHyperparams,
    ledger: EditLedger,
) -> list[EditResult]:
    """Apply edits in order on the same weights; later requests see earlier
    edits. A failing request raises after the ledger has kept every
    completed entry.
    """
    results = []
    for request in requests:
        results.append(edit_single(bundle, request, hyper, ledger))
    return results


def revert(weights, ledger: EditLedger, n_last: int) -> None:
    """Undo the last n_last ledger entries, restoring each entry's pre-edit
    rows bitwise. Reverted entries are removed from the ledger.

    Every reverted entry is checked before the table is touched: it needs
    at least one token id, its ids must be distinct and in [0, vocab_size),
    with one d-wide original row each. Where several entries edited a row, the oldest entry's original
    wins, as if the entries were undone newest first; the table is written
    once.
    """
    if n_last < 0 or n_last > len(ledger.entries):
        raise LedgerRangeError(
            f"cannot revert {n_last} of {len(ledger.entries)} ledger entries"
        )
    if n_last == 0:
        return
    first = len(ledger.entries) - n_last
    rows: dict[int, np.ndarray] = {}
    for k in range(len(ledger.entries) - 1, first - 1, -1):
        entry = ledger.entries[k]
        _check_entry_fits(entry, k, weights.wte.shape)
        for i in entry.edited_token_ids:
            rows[i] = entry.original_rows[i].array
    ids = sorted(rows)
    weights.set_wte_rows(ids, np.stack([rows[i] for i in ids]))
    del ledger.entries[first:]


def _check_entry_fits(entry: LedgerEntry, k: int, table_shape: tuple[int, int]) -> None:
    n, d = table_shape
    ids = entry.edited_token_ids
    if not ids:
        raise LedgerFormatError(f"ledger entry {k}: no token ids")
    if len(set(ids)) != len(ids):
        raise LedgerFormatError(f"ledger entry {k}: repeated token ids {list(ids)}")
    bad = [i for i in ids if not 0 <= i < n]
    if bad:
        raise LedgerFormatError(
            f"ledger entry {k}: token ids {bad} out of range for vocab size {n}"
        )
    if set(entry.original_rows) != set(ids):
        raise LedgerFormatError(
            f"ledger entry {k}: original rows cover ids {sorted(entry.original_rows)}, "
            f"not its token ids {list(ids)}"
        )
    for i in ids:
        shape = entry.original_rows[i].shape
        if shape != (d,):
            raise LedgerFormatError(
                f"ledger entry {k}: original row of id {i} has shape {shape}, expected ({d},)"
            )


@dataclass
class EditBudget:
    edited_token_count: int
    modified_scalars: int
    update_flops: int
    weight_ratio: float


@dataclass
class BudgetReport:
    per_edit: list[EditBudget]
    total_modified_scalars: int
    total_update_flops: int

    @property
    def average_flops(self) -> float:
        if not self.per_edit:
            return 0.0
        return self.total_update_flops / len(self.per_edit)


def param_budget_report(
    ledger: EditLedger, total_model_params: int, d_model: int
) -> BudgetReport:
    """Account one multiply-add per modified scalar per step: an edit touching
    k token rows modifies k*d_model scalars and costs 2*k*d_model FLOPs.
    """
    per_edit = []
    for entry in ledger.entries:
        modified = len(entry.edited_token_ids) * d_model
        per_edit.append(EditBudget(
            edited_token_count=len(entry.edited_token_ids),
            modified_scalars=modified,
            update_flops=2 * modified,
            weight_ratio=modified / total_model_params if total_model_params else 0.0,
        ))
    return BudgetReport(
        per_edit=per_edit,
        total_modified_scalars=sum(b.modified_scalars for b in per_edit),
        total_update_flops=sum(b.update_flops for b in per_edit),
    )


def merge_budget_reports(reports: list[BudgetReport], total_model_params: int) -> BudgetReport:
    """Combine per-encoder budgets edit-by-edit (e.g. a dual-encoder model)."""
    if not reports:
        return BudgetReport(per_edit=[], total_modified_scalars=0, total_update_flops=0)
    n = len(reports[0].per_edit)
    if any(len(r.per_edit) != n for r in reports):
        raise ValueError("budget reports cover different numbers of edits")
    per_edit = []
    for k in range(n):
        modified = sum(r.per_edit[k].modified_scalars for r in reports)
        per_edit.append(EditBudget(
            edited_token_count=sum(r.per_edit[k].edited_token_count for r in reports),
            modified_scalars=modified,
            update_flops=2 * modified,
            weight_ratio=modified / total_model_params if total_model_params else 0.0,
        ))
    return BudgetReport(
        per_edit=per_edit,
        total_modified_scalars=sum(b.modified_scalars for b in per_edit),
        total_update_flops=sum(b.update_flops for b in per_edit),
    )


def edit_multi_encoder(
    encoders: list[EncoderBundle],
    request: EditRequest,
    hyper: EditHyperparams,
    ledgers: list[EditLedger] | None = None,
) -> list[EditResult]:
    """Run the same edit independently per encoder: each gets its own
    threshold, optimizer state, and ledger entry.
    """
    if ledgers is None:
        ledgers = [EditLedger() for _ in encoders]
    if len(ledgers) != len(encoders):
        raise ValueError("need one ledger per encoder")
    for k, enc in enumerate(encoders):
        try:
            target_token_ids(request, enc.vocab)
        except (InconsistentRequestError, UnknownTokenError) as e:
            raise InconsistentRequestError(f"encoder {k}: {e}") from e
    return [
        edit_single(enc, request, hyper, ledger)
        for enc, ledger in zip(encoders, ledgers)
    ]
