"""Embedding-row editing: move a source prompt's final hidden states toward a
destination prompt's by optimizing only the target word's WTE rows.

The loop's first score is the initial loss and tau = stop_ratio * that
score; tau is checked before every step, so a threshold met at the first
evaluation leaves the weights bitwise untouched. One function, _hidden_mse,
computes every hidden-state MSE. The loop optimizes a k-by-d copy of the
target rows and writes the table once, after the loop and its final scoring
succeed, so an edit that raises leaves the table bitwise as it was. Each edit
appends one ledger entry holding the pre-edit rows, which makes any prefix of
the edit history exactly revertible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .archive import write_atomically
from .autodiff import Tape, Tensor, backward, mean_square, slice_rows, sub
from .encoder import EncoderBundle, HiddenStates, TokenSequence, Vocab, encode
from .errors import (
    DataError,
    DivergenceError,
    InconsistentRequestError,
    LedgerFormatError,
    LedgerRangeError,
    NonFiniteError,
    check_ids,
    check_number,
    json_object,
    read_json,
    reading,
)
from .optim import Adam, Sgd


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
    threshold; 1 stops immediately, 0 never stops early. optimizer and
    loss_positions take a member or the string that names one, and hold the
    member.
    """

    stop_ratio: float = 0.2
    max_iters: int = 100
    learning_rate: float = 0.001
    optimizer: OptimizerKind = OptimizerKind.ADAM
    loss_positions: LossPositions = LossPositions.FULL_SEQUENCE

    def __post_init__(self):
        object.__setattr__(self, "optimizer", OptimizerKind(self.optimizer))
        object.__setattr__(self, "loss_positions", LossPositions(self.loss_positions))
        check_number("stop_ratio", self.stop_ratio, 0, 1)
        check_number("max_iters", self.max_iters, 1, integer=True)
        check_number("learning_rate", self.learning_rate, 0, open_low=True)


@dataclass
class LedgerEntry:
    """One edit, the record every edit function returns and appends: its k
    distinct target token ids, their k-by-d rows before (original_rows) and
    after (new_rows) the edit, where row s belongs to id s, and the loop's
    outcome. The rows are held as read-only float64 copies.

    Construction checks what does not depend on a table: at least one id,
    distinct ids that errors.check_ids accepts below any table size, held as
    Python ints, and both blocks shaped (k, d) with d >= 1 and finite. A
    violation, or rows that are ragged or past float range, raises
    LedgerFormatError. Two entries are equal when every field is, the rows
    by their bytes.
    """

    source_prompt: str
    destination_prompt: str
    target_word: str
    edited_token_ids: tuple[int, ...]
    original_rows: np.ndarray
    new_rows: np.ndarray
    initial_loss: float
    threshold_tau: float
    final_loss: float
    iterations_run: int
    optimizer_steps: int
    converged: bool

    # The ledger's "result" object: key -> (field, accepted JSON types), in order.
    _RESULT = {
        "initial_loss": ("initial_loss", (int, float)), "tau": ("threshold_tau", (int, float)),
        "final_loss": ("final_loss", (int, float)), "iterations_run": ("iterations_run", (int,)),
        "optimizer_steps": ("optimizer_steps", (int,)), "converged": ("converged", (bool,)),
    }

    def __post_init__(self):
        if not self.edited_token_ids:
            raise LedgerFormatError("no token ids")
        try:
            ids = tuple(check_ids(self.edited_token_ids, math.inf, distinct=True))
        except (TypeError, IndexError, ValueError) as e:
            raise LedgerFormatError(str(e)) from e
        try:
            original = np.array(self.original_rows, dtype=np.float64)
            new = np.array(self.new_rows, dtype=np.float64)
        except (ValueError, OverflowError) as e:  # ragged, or an int past float range
            raise LedgerFormatError(f"rows are not a block of numbers: {e}") from e
        if (original.ndim != 2 or len(original) != len(ids) or original.shape[1] == 0
                or new.shape != original.shape):
            raise LedgerFormatError(f"original rows of shape {original.shape} and new rows "
                                    f"of shape {new.shape} for {len(ids)} token ids")
        if not (np.all(np.isfinite(original)) and np.all(np.isfinite(new))):
            raise LedgerFormatError("rows are not all finite")
        original.setflags(write=False)
        new.setflags(write=False)
        self.edited_token_ids, self.original_rows, self.new_rows = ids, original, new

    def __eq__(self, other):
        if type(other) is not LedgerEntry:
            return NotImplemented
        return all(a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
                   for a, b in ((getattr(self, f.name), getattr(other, f.name))
                                for f in fields(self)))

    def result_json(self) -> dict:
        """The loop's outcome, as the ledger's "result" object."""
        return {key: getattr(self, name) for key, (name, _) in self._RESULT.items()}


@dataclass
class EditLedger:
    """Ordered record of edits; single writer, replayable in order."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LedgerEntry) -> None:
        self.entries.append(entry)

    def check_depth(self, n_last: int) -> None:
        """Raise LedgerRangeError unless the newest n_last entries exist to
        undo; the rule checks the kind, a depth outside the ledger is a
        range error."""
        check_number("n_last", n_last, -math.inf, integer=True)
        if not 0 <= n_last <= len(self.entries):
            raise LedgerRangeError(f"cannot revert {n_last} of {len(self.entries)} ledger entries")

    def check_fits(self, vocab_size: int, d_model: int) -> None:
        """Raise LedgerFormatError naming the first entry whose ids are not
        all below vocab_size or whose rows are not d_model wide."""
        for k, entry in enumerate(self.entries):
            try:
                check_ids(entry.edited_token_ids, vocab_size)
                if entry.new_rows.shape[1] != d_model:
                    raise ValueError(f"rows of width {entry.new_rows.shape[1]}, "
                                     f"d_model is {d_model}")
            except (IndexError, ValueError) as e:
                raise LedgerFormatError(f"ledger entry {k}: {e}") from e

    def to_json(self) -> dict:
        return {"entries": [{
            "source_prompt": e.source_prompt,
            "destination_prompt": e.destination_prompt,
            "target_word": e.target_word,
            "edited_token_ids": list(e.edited_token_ids),
            "original_rows": e.original_rows.tolist(),
            "new_rows": e.new_rows.tolist(),
            "result": e.result_json(),
        } for e in self.entries]}

    @classmethod
    def from_json(cls, obj) -> "EditLedger":
        """Parse a saved ledger; a missing, unknown or mistyped key, or an
        entry that LedgerEntry rejects, raises LedgerFormatError."""
        ledger = cls()
        json_object(obj, {"entries": (list,)}, LedgerFormatError, "ledger")
        for k, e in enumerate(obj["entries"]):
            where = f"ledger entry {k}"
            values = dict(json_object(e, {
                "source_prompt": (str,), "destination_prompt": (str,), "target_word": (str,),
                "edited_token_ids": (list,), "original_rows": (list,), "new_rows": (list,),
                "result": (dict,)}, LedgerFormatError, where))
            if any(type(row) is not list or any(type(v) not in (int, float) for v in row)
                   for row in (*values["original_rows"], *values["new_rows"])):
                raise LedgerFormatError(f"{where}: rows are not all lists of numbers")
            result = json_object(values.pop("result"), {
                key: kinds for key, (_, kinds) in LedgerEntry._RESULT.items()},
                LedgerFormatError, f"{where}: ledger result")
            values.update((name, result[key]) for key, (name, _) in LedgerEntry._RESULT.items())
            with reading(where, LedgerFormatError):
                ledger.append(LedgerEntry(**values))
        return ledger

    def save(self, path: str | Path) -> None:
        """Write the ledger's JSON atomically: a save that raises leaves any
        earlier file at `path` as it was."""
        write_atomically(path, lambda f: f.write(
            (json.dumps(self.to_json(), indent=2) + "\n").encode("utf-8")))

    @classmethod
    def load(cls, path: str | Path) -> "EditLedger":
        """from_json of a JSON file, read by read_json."""
        return read_json(path, LedgerFormatError, cls.from_json)


def mse_hidden(h1: HiddenStates, h2: HiddenStates, positions: LossPositions | str) -> float:
    """Mean squared difference over the selected rows of the two matrices;
    positions is a LossPositions or the string that names one."""
    return _hidden_mse(h1, h2, LossPositions(positions)).item()


def _hidden_mse(h: HiddenStates, target: HiddenStates, positions: LossPositions,
                tape: Tape | None = None) -> Tensor:
    """mse_hidden as a Tensor, for a member `positions`; UP_TO_EOS keeps the
    rows through the later EOS."""
    diff = sub(h.sequence, target.sequence, tape)
    if positions is LossPositions.UP_TO_EOS:
        n_rows = max(h.eos_position, target.eos_position) + 1
        if n_rows < diff.shape[0]:
            diff = slice_rows(diff, 0, n_rows, tape)
    return mean_square(diff, tape)


def target_token_ids(request: EditRequest, vocab: Vocab) -> set[int]:
    """Token ids of the target's prompt words, which must all occur in the source prompt."""
    target_ids = vocab.prompt_token_ids(request.target_word)
    source_ids = set(vocab.prompt_token_ids(request.source_prompt))
    missing = [i for i in target_ids if i not in source_ids]
    if missing:
        raise InconsistentRequestError(
            f"target {request.target_word!r} tokens {missing} do not occur in "
            f"source prompt {request.source_prompt!r}"
        )
    return set(target_ids)


def check_request(bundle: EncoderBundle,
                  request: EditRequest) -> tuple[list[int], TokenSequence, TokenSequence]:
    """The sorted target ids and the source's and destination's tokens of a
    request the bundle can edit; a DataError refuses one it cannot: its
    target must pass target_token_ids and both its prompts must tokenize."""
    ids = sorted(target_token_ids(request, bundle.vocab))
    return ids, bundle.tokenize(request.source_prompt), bundle.tokenize(request.destination_prompt)


def edit_single(
    bundle: EncoderBundle,
    request: EditRequest,
    hyper: EditHyperparams,
    ledger: EditLedger,
) -> LedgerEntry:
    """One edit: freeze the destination's hidden states, then iterate
    encode / loss / threshold-check / step on exactly the target rows. The
    first iteration scores the table's own rows; that score is the initial
    loss, and the threshold is stop_ratio times it.

    The check precedes the step, so stop_ratio=1 and identical prompts take
    zero optimizer steps and write nothing. The rows are written to the table
    once, after the loop; if the edit raises, the table is left as it was.
    Starts with check_request, so a request it refuses runs no forward.
    Returns the entry it appended. The caller must hold the weights exclusively.
    """
    ids, src_tokens, dst_tokens = check_request(bundle, request)
    weights = bundle.weights
    h_new = encode(dst_tokens, weights, bundle.config)
    return _optimize_rows(
        bundle, request, ids, weights.wte.rows(ids), src_tokens,
        lambda h, tape: _hidden_mse(h, h_new, hyper.loss_positions, tape),
        hyper, ledger,
    )


def _optimize_rows(
    bundle: EncoderBundle, request: EditRequest, ids: list[int], init_rows: np.ndarray,
    tokens: TokenSequence, loss_fn: Callable[[HiddenStates, Tape | None], Tensor],
    hyper: EditHyperparams, ledger: EditLedger,
) -> LedgerEntry:
    """The one edit loop: optimize the k-by-d rows of `ids`, from init_rows,
    against loss_fn(hidden states of `tokens`, tape).

    Per iteration: encode and score, stop if the loss is at most tau, run
    backward, then step. The loop stops only there or at max_iters. The
    first iteration's score, at init_rows, is the initial loss, and
    tau = hyper.stop_ratio * initial loss. Any non-finite value raises
    DivergenceError with the table untouched. After the loop the edit's one
    record, its ledger entry, is built, then the table is written once,
    unless the rows are bytewise its rows, and last the entry is appended
    and returned: the table then holds the entry's new_rows exactly, and an
    entry that is rejected leaves the table as it was.
    """
    weights, config = bundle.weights, bundle.config
    original = weights.wte.rows(ids)
    lr = hyper.learning_rate
    opt = Adam(init_rows.shape, lr) if hyper.optimizer is OptimizerKind.ADAM else Sgd(lr)

    def score(rows: np.ndarray, tape: Tape | None, i: int) -> tuple[Tensor, Tensor]:
        leaf = Tensor(rows)
        try:
            h = encode(tokens, weights, config, tape, edit_rows=(ids, leaf))
        except NonFiniteError as e:
            raise DivergenceError(f"forward pass: {e}", iteration=i) from e
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                loss = loss_fn(h, tape)
            if not math.isfinite(loss.item()):
                raise NonFiniteError("loss is not finite")
        except NonFiniteError as e:
            raise DivergenceError("loss became non-finite", iteration=i) from e
        return leaf, loss

    rows = init_rows
    steps = 0
    for i in range(1, hyper.max_iters + 1):
        tape = Tape()
        leaf, loss = score(rows, tape, i)
        if i == 1:
            initial_loss = loss.item()
            tau = hyper.stop_ratio * initial_loss
        # The tape's closures hold every layer's activations: drop it as soon
        # as the loop stops or backward returns, so that none is alive during
        # the final scoring or the table write.
        if loss.item() <= tau:
            del tape
            break
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                g = backward(tape, loss)[leaf].array
                norm = float(np.linalg.norm(g))
        except NonFiniteError as e:
            raise DivergenceError(f"backward pass: {e}", iteration=i) from e
        del tape
        if not math.isfinite(norm):
            raise DivergenceError("gradient norm became non-finite", iteration=i)
        rows = opt.step(rows, g)
        # Backward allocated g at the tape's memory high-water mark. While it
        # is alive the heap cannot shrink below it, so the freed activations
        # would stay resident through the final scoring and the table write.
        del g
        if not np.all(np.isfinite(rows)):
            raise DivergenceError("embedding rows became non-finite", iteration=i)
        steps += 1
    else:
        # Cap reached: the last step's effect was never scored inside the loop.
        _, loss = score(rows, None, i)
    final_loss = loss.item()
    entry = LedgerEntry(
        source_prompt=request.source_prompt,
        destination_prompt=request.destination_prompt,
        target_word=request.target_word,
        edited_token_ids=tuple(ids),
        original_rows=original,
        new_rows=rows,
        initial_loss=initial_loss,
        threshold_tau=tau,
        final_loss=final_loss,
        iterations_run=i,
        optimizer_steps=steps,
        converged=final_loss <= tau,
    )
    if rows.tobytes() != original.tobytes():
        weights.set_wte_rows(ids, rows)
    ledger.append(entry)
    return entry


def edit_sequential(
    bundle: EncoderBundle,
    requests: list[EditRequest],
    hyper: EditHyperparams,
    ledger: EditLedger,
) -> list[LedgerEntry]:
    """Apply edits in order on the same weights; later requests see earlier
    edits. A failing request raises after the ledger has kept every
    completed entry.
    """
    return [edit_single(bundle, request, hyper, ledger) for request in requests]


def revert(weights, ledger: EditLedger, n_last: int) -> None:
    """Undo the last n_last ledger entries, restoring each entry's pre-edit
    rows bitwise. Reverted entries are removed from the ledger.

    Every entry, at any n_last, must pass check_fits against the table. One
    walk then undoes the entries newest first, each id's row read from the
    table once: each entry must find its new rows where undoing the newer
    entries leaves them, and leaves its original rows there. A ledger that
    does not fit, or a row that is not the entry's new row (another table,
    the unedited base, a table edited further, a ledger that disagrees with
    itself), raises LedgerFormatError naming the entry, with the table and
    the ledger untouched; one write follows the walk.
    """
    ledger.check_depth(n_last)
    ledger.check_fits(*weights.wte.shape)
    if n_last == 0:
        return
    first = len(ledger.entries) - n_last
    rows: dict[int, np.ndarray] = {}
    for k in reversed(range(first, len(ledger.entries))):
        entry = ledger.entries[k]
        ids = entry.edited_token_ids
        unread = [i for i in ids if i not in rows]
        rows.update(zip(unread, weights.wte.rows(unread)))
        for i, new, original in zip(ids, entry.new_rows, entry.original_rows):
            if rows[i].tobytes() != new.tobytes():
                raise LedgerFormatError(f"ledger entry {k}: the table's row {i} is not the "
                                        "row this entry wrote")
            rows[i] = original
    ids = sorted(rows)
    weights.set_wte_rows(ids, np.stack([rows[i] for i in ids]))
    del ledger.entries[first:]


def budget_report(ledgers: list[EditLedger], total_model_params: int) -> dict:
    """Budget of parallel ledgers, one per encoder, as the JSON object
    `embedit report` writes: edit k modifies the scalars of entry k's k-by-d
    rows in every ledger and costs one multiply-add (2 FLOPs) per modified
    scalar. Ledgers that cover different numbers of edits do not pair up:
    LedgerFormatError.
    """
    if len({len(ledger) for ledger in ledgers}) > 1:
        raise LedgerFormatError("ledgers cover different numbers of edits")
    per_edit = []
    for entries in zip(*(ledger.entries for ledger in ledgers)):
        modified = sum(e.new_rows.size for e in entries)
        per_edit.append({
            "edited_tokens": sum(len(e.edited_token_ids) for e in entries),
            "modified_scalars": modified,
            "update_flops": 2 * modified,
            "weight_ratio": modified / total_model_params if total_model_params else 0.0,
        })
    total_flops = sum(b["update_flops"] for b in per_edit)
    return {
        "per_edit": per_edit,
        "total_modified_scalars": sum(b["modified_scalars"] for b in per_edit),
        "total_update_flops": total_flops,
        "average_flops_per_edit": total_flops / len(per_edit) if per_edit else 0.0,
        "total_model_params": total_model_params,
    }


def edit_multi_encoder(
    encoders: list[EncoderBundle],
    request: EditRequest,
    hyper: EditHyperparams,
    ledgers: list[EditLedger],
) -> list[LedgerEntry]:
    """Run the same edit independently per encoder: each gets its own
    threshold, optimizer state, and entry in its own ledger. A request that
    check_request refuses for any encoder raises InconsistentRequestError
    naming the encoder, before the first edit.
    """
    if len(ledgers) != len(encoders):
        raise ValueError("need one ledger per encoder")
    for k, enc in enumerate(encoders):
        try:
            check_request(enc, request)
        except DataError as e:
            raise InconsistentRequestError(f"encoder {k}: {e}") from e
    return [
        edit_single(enc, request, hyper, ledger)
        for enc, ledger in zip(encoders, ledgers)
    ]
