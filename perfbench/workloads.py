"""The benchmark workloads.

Each workload has a set-up, run several times so its median can be reported,
and a measured phase of fixed work: the work depends only on the seed and on
the requested seconds, never on how fast the machine is, so outputs (and
their digests) repeat exactly between runs and between traced and untraced
passes. The counts are sized from the costs measured on a 2-core host (numpy
2.4.6, OpenBLAS 0.3.31) so that the measured phase takes about the requested
seconds, except where a floor keeps enough samples for a median. The program
is driven only through its public functions and CLI.

- clip_l_edit: CLIP-L shape. Loads a 1 GB archive, runs at least three
  single edits with stop_ratio=0 on one- and two-token targets, scores two
  entries, saves the edited archive, reverts and compares the result with the
  base bytes. Vocabulary-sized table work, archive I/O and peak memory
  dominate here. Its floor of three edits makes this phase about 32 s. Then
  a short desk-shape session through the CLI (DeskSession), which measures
  the CLI and balance layers; it is left out of run_s.
- eval_read: CLIP-L shape in memory, no archive. Scores a dataset whose
  negatives avoid every edited id and repeat across entries. Untaped encodes
  only: no tape, no backward, no table writes.

The desk session is not a workload of its own because its time cannot be
bounded on a shared host: pure-Python speed there flips between two states up
to 1.75x apart, which last from a second to more than half a minute, and no
estimator over a run of a few tens of seconds (mean, median, minimum of
passes) kept its run-to-run spread within 0.25. The BLAS-bound CLIP-L phases
move far less with these states.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from embedit import archive, cli, editor, evaluation
from embedit.encoder import EncoderBundle, EncoderConfig, init_random_weights

SETUP_REPS = 3


@dataclass
class Checks:
    """Operations and output checks of one run; a raised error counts as one
    more failed operation in the caller."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


@dataclass
class Ctx:
    workdir: Path
    seed: int
    seconds: int
    tiny: bool


@dataclass
class Measured:
    """What one measured pass yields: the workload's end-to-end metrics as
    {name: (value, unit)}, a digest of the program's outputs, the pass's wall
    time and the timing samples behind the metrics."""

    metrics: dict
    digest: str
    wall: float
    samples: dict


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()[:16]


def same_bytes(a: Path, b: Path, chunk: int = 1 << 24) -> bool:
    if a.stat().st_size != b.stat().st_size:
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(chunk), fb.read(chunk)
            if x != y:
                return False
            if not x:
                return True


def _config(shape_json: dict, vocab) -> EncoderConfig:
    return EncoderConfig(vocab_size=vocab.vocab_size, **shape_json)


def _negatives_avoid(entries, vocab, edited_ids: set[int]) -> bool:
    return all(not (set(vocab.prompt_token_ids(sn)) & edited_ids)
               for e in entries for sn, _ in e.negatives)


def _edited_ids(entries, vocab) -> set[int]:
    return {i for e in entries for w in e.target_word.split() for i in vocab.word_token_ids(w)}


# Report buckets whose totals count the test prompts an evaluation scored.
SCORED = ("efficacy", "generality", "specificity")


def _prompts_scored(report) -> int:
    return sum(report.counts[k][1] for k in SCORED)


class Workload:
    """set_up() makes the inputs and returns a state dict (with the WTE and
    archive sizes for the environment block); measure() runs the fixed work
    and returns a Measured; fingerprint() returns bytes of program output
    computed outside the measured and traced passes, for the digest."""

    name = ""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx

    def set_up(self, checks: Checks):
        raise NotImplementedError

    def measure(self, state, checks: Checks) -> Measured:
        raise NotImplementedError

    def fingerprint(self, state) -> bytes:
        return b""


class ClipLEdit(Workload):
    name = "clip_l_edit"
    MAX_ITERS = 2
    IO_REPS = 3
    # Loads, saves, scoring and revert take about 20 s and one edit of
    # MAX_ITERS iterations about 4.5 s; the edits fill the rest of the
    # requested seconds, and at least three keep their median from being a
    # mean.
    FIXED_S, EDIT_S, MIN_EDITS = 20.0, 4.5, 3

    def __init__(self, ctx: Ctx):
        super().__init__(ctx)
        self.desk = DeskSession(ctx.workdir / "desk", ctx.seed)

    def io_reps(self) -> int:
        return 1 if self.ctx.tiny else self.IO_REPS

    def set_up(self, checks):
        ctx, d = self.ctx, self.ctx.workdir
        shape = gen.TINY_CLIP if ctx.tiny else gen.CLIP_L
        rng = np.random.default_rng(ctx.seed)
        n_edits = max(self.MIN_EDITS, round((ctx.seconds - self.FIXED_S) / self.EDIT_S))
        n2 = n_edits // 2
        lex = gen.make_lexicon(rng, shape, n_edits - n2, n2)
        targets = [t for pair in zip(lex.targets1, lex.targets2) for t in pair]
        targets += lex.targets1[n2:]
        entries = gen.edit_entries(rng, lex, targets, n_pos=1, n_neg=1)
        gen.write_json(d / "vocab.json", lex.vocab)
        gen.write_json(d / "config.json", shape.config_json())
        gen.write_jsonl(d / "dataset.jsonl", entries)

        vocab = archive.load_vocab(d / "vocab.json")
        config = _config(json.loads((d / "config.json").read_text()), vocab)
        weights = init_random_weights(config, ctx.seed)
        base = d / "base.embedit"
        archive.save_weights(base, config, weights, vocab)
        EncoderBundle(config, weights, vocab).encode_prompt(entries[0]["source"])
        checks.op(3)
        self.desk.set_up(checks)
        return {"base": base, "entries": evaluation.load_edit_entries(d / "dataset.jsonl"),
                "wte_bytes": weights.wte.array.nbytes, "archive_bytes": base.stat().st_size}

    def measure(self, state, checks):
        d = self.ctx.workdir
        io_reps = self.io_reps()
        entries = state["entries"]
        hyper = editor.EditHyperparams(stop_ratio=0.0, max_iters=self.MAX_ITERS)
        t0 = time.perf_counter()

        loads, bundle = [], None
        for _ in range(io_reps):
            bundle = None  # drop the previous copy before reading the next one
            loaded, dt = timed(archive.load_weights, state["base"])
            bundle = EncoderBundle(*loaded)
            del loaded
            loads.append(dt)
        config, vocab = bundle.config, bundle.vocab
        # Shares every tensor with the loaded weights; edits replace only the
        # edited bundle's WTE.
        reference = EncoderBundle(config, dataclasses.replace(bundle.weights), vocab)
        checks.op(io_reps)

        ledger, edit_s, iters = editor.EditLedger(), [], 0
        for e in entries:
            request = editor.EditRequest(e.source, e.destination, e.target_word)
            result, dt = timed(editor.edit_single, bundle, request, hyper, ledger)
            checks.op()
            edit_s.append(dt)
            iters += result.iterations_run
            checks.check("tau == stop_ratio * initial_loss",
                         result.threshold_tau == hyper.stop_ratio * result.initial_loss)
            checks.check("iterations_run == optimizer_steps == max_iters",
                         result.iterations_run == result.optimizer_steps == hyper.max_iters)

        edited_ids = _edited_ids(entries, vocab)
        scored = entries[:2]  # one single-token and one split target
        checks.check("negatives avoid edited ids", _negatives_avoid(scored, vocab, edited_ids))
        reports, eval_s = [], []
        for e in scored:
            report, dt = timed(evaluation.evaluate_edit, e, bundle, reference)
            checks.op()
            eval_s.append(dt)
            reports.append(report)
            checks.check("strict specificity is 100%", report.strict_specificity == 100.0)
        prompts = sum(_prompts_scored(r) for r in reports)

        edited = d / "edited.embedit"
        saves = []
        for _ in range(io_reps):
            _, dt = timed(archive.save_weights, edited, config, bundle.weights, vocab)
            saves.append(dt)
        checks.op(io_reps)
        ledger_json = ledger.to_json()
        _, revert_s = timed(editor.revert, bundle.weights, ledger, len(ledger))
        checks.op()
        clip_s = time.perf_counter() - t0
        desk_metrics, desk_digest, desk_samples = self.desk.run(checks)
        wall = time.perf_counter() - t0

        restored = d / "restored.embedit"
        archive.save_weights(restored, config, bundle.weights, vocab)
        checks.check("revert restores the base archive bytes", same_bytes(restored, state["base"]))
        metrics = desk_metrics | {
            # The CLIP-L phase only: the desk session's time swings with the
            # host's state (see the module docstring).
            "run_s": (clip_s, "s"),
            "edit_iters_per_s": (iters / sum(edit_s), "1/s"),
            "edit_s_p50": (statistics.median(edit_s), "s"),
            "eval_prompts_per_s": (prompts / sum(eval_s), "1/s"),
            "archive_load_s": (statistics.median(loads), "s"),
            "archive_save_s": (statistics.median(saves), "s"),
            "revert_s": (revert_s, "s"),
        }
        return Measured(metrics, digest(ledger_json, [r.to_json() for r in reports], desk_digest),
                        wall, {"load_s": loads, "edit_s": edit_s, "save_s": saves,
                               "eval_s": eval_s, **desk_samples})


class EvalRead(Workload):
    name = "eval_read"
    N_POS, N_NEG, NEG_POOL = 1, 2, 3
    # One entry takes about 8.5 s to score; two are the fewest across which
    # negatives can repeat.
    ENTRY_S, MIN_ENTRIES = 8.5, 2

    def set_up(self, checks):
        ctx, d = self.ctx, self.ctx.workdir
        shape = gen.TINY_CLIP if ctx.tiny else gen.CLIP_L
        rng = np.random.default_rng(ctx.seed)
        n_entries = max(self.MIN_ENTRIES, round(ctx.seconds / self.ENTRY_S))
        n2 = n_entries // 2
        lex = gen.make_lexicon(rng, shape, n_entries - n2, n2)
        pool = gen.negative_pool(rng, lex, self.NEG_POOL)
        entries = gen.edit_entries(rng, lex, lex.targets1 + lex.targets2, self.N_POS,
                                   self.N_NEG, neg_pool=pool)
        gen.write_json(d / "vocab.json", lex.vocab)
        gen.write_json(d / "config.json", shape.config_json())
        gen.write_jsonl(d / "dataset.jsonl", entries)

        vocab = archive.load_vocab(d / "vocab.json")
        config = _config(json.loads((d / "config.json").read_text()), vocab)
        entries = evaluation.load_edit_entries(d / "dataset.jsonl")
        weights = init_random_weights(config, ctx.seed)
        reference = EncoderBundle(config, weights, vocab)
        ids = sorted(_edited_ids(entries, vocab))
        # Seeded rows stand in for the edits, so set-up does not depend on
        # edit speed.
        rows = weights.wte.array[ids] + rng.normal(0.0, 0.02, size=(len(ids), config.d_model))
        edited_weights = dataclasses.replace(weights)
        edited_weights.set_wte_rows(ids, rows)
        edited = EncoderBundle(config, edited_weights, vocab)
        edited.encode_prompt(entries[0].source)
        checks.op(2)
        checks.check("negatives avoid edited ids", _negatives_avoid(entries, vocab, set(ids)))
        return {"entries": entries, "edited": edited, "reference": reference,
                "wte_bytes": weights.wte.array.nbytes, "archive_bytes": None}

    def measure(self, state, checks):
        t0 = time.perf_counter()
        reports, prompts, eval_s = [], 0, []
        for e in state["entries"]:
            report, dt = timed(evaluation.evaluate_edit, e, state["edited"], state["reference"])
            checks.op()
            eval_s.append(dt)
            reports.append(report)
            prompts += _prompts_scored(report)
            checks.check("strict specificity is 100%", report.strict_specificity == 100.0)
        wall = time.perf_counter() - t0
        return Measured({"eval_prompts_per_s": (prompts / sum(eval_s), "1/s")},
                        digest([r.to_json() for r in reports]), wall, {"eval_s": eval_s})

    def fingerprint(self, state):
        """The edited bundle's hidden states for each entry's source: unlike
        the percentage reports, they follow the encoder's arithmetic and the
        seed."""
        return b"".join(state["edited"].encode_prompt(e.source).sequence.array.tobytes()
                        for e in state["entries"])


class DeskSession:
    """The test suite's desk shape (d=8) through `embedit.cli.main`: seq-edit
    with edits that converge in a few iterations mixed with edits that run to
    the cap, eval --sequential-filter, gender --mode auto and revert of both,
    over two passes, each restored archive compared with the base bytes.
    Python per-call overhead dominates its time: tensor copies and checks,
    tape bookkeeping, per-head slicing. Each command's time is its faster
    pass. Files go under `workdir`."""

    LAMBDA, LR, MAX_ITERS = 0.2, 0.01, 30
    N1, N2, N_HARD, N_PROFESSIONS = 16, 8, 8, 6
    PASSES = 2

    def __init__(self, workdir: Path, seed: int):
        self.dir, self.seed = workdir, seed
        self.base = workdir / "base.embedit"

    def cli(self, checks, *argv) -> float:
        """Run one embedit command in-process; returns its wall time."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc, dt = timed(cli.main, [str(a) for a in argv])
        checks.op()
        if rc != 0:
            raise RuntimeError(f"embedit {argv[0]} exited with {rc}")
        return dt

    def set_up(self, checks) -> None:
        d = self.dir
        d.mkdir(exist_ok=True)
        rng = np.random.default_rng(self.seed)
        lex = gen.make_lexicon(rng, gen.DESK, self.N1, self.N2, gender=True)
        targets = lex.targets1 + lex.targets2
        hard = set(rng.choice(targets, size=self.N_HARD, replace=False).tolist())
        entries = gen.edit_entries(rng, lex, targets, n_pos=2, n_neg=2, hard=hard)
        professions = lex.free[:self.N_PROFESSIONS - 2] + lex.targets2[:2]
        gen.write_json(d / "vocab.json", lex.vocab)
        gen.write_json(d / "config.json", gen.DESK.config_json())
        gen.write_jsonl(d / "dataset.jsonl", entries)
        gen.write_jsonl(d / "gender.jsonl", gen.gender_entries(rng, lex, professions, 3))
        self.cli(checks, "init", "--config", d / "config.json", "--vocab", d / "vocab.json",
                 "--seed", self.seed, "--out", self.base)

    def run(self, checks) -> tuple[dict, str, dict]:
        """Returns the session's metrics, output digest and timing samples."""
        d, base = self.dir, self.base
        hyper = ["--lambda", self.LAMBDA, "--lr", self.LR, "--max-iters", self.MAX_ITERS]
        # Wall times per command, one per pass.
        times = {c: [] for c in ("seq_edit", "eval", "gender", "revert", "revert_gender")}
        digests = []
        for k in range(self.PASSES):
            p = d / f"pass{k}"
            times["seq_edit"].append(self.cli(
                checks, "seq-edit", "--weights", base, "--dataset", d / "dataset.jsonl",
                *hyper, "--out", p / "seq"))
            times["eval"].append(self.cli(
                checks, "eval", "--weights", p / "seq" / "edited.embedit", "--reference", base,
                "--dataset", d / "dataset.jsonl", "--sequential-filter", "--out", p / "eval"))
            times["gender"].append(self.cli(
                checks, "gender", "--weights", base, "--dataset", d / "gender.jsonl",
                "--mode", "auto", "--max-iters", self.MAX_ITERS, "--out", p / "gender"))
            times["revert"].append(self.cli(
                checks, "revert", "--weights", p / "seq" / "edited.embedit",
                "--ledger", p / "seq" / "ledger.json", "--out", p / "restored.embedit"))
            times["revert_gender"].append(self.cli(
                checks, "revert", "--weights", p / "gender" / "edited.embedit",
                "--ledger", p / "gender" / "ledger.json",
                "--out", p / "gender_restored.embedit"))
            digests.append(digest(*((p / f).read_bytes() for f in (
                "seq/ledger.json", "seq/results.json", "eval/report.json",
                "gender/ledger.json", "gender/gender_report.json"))))
            checks.check("revert restores the base archive bytes (desk seq-edit)",
                         same_bytes(p / "restored.embedit", base))
            checks.check("revert restores the base archive bytes (desk gender)",
                         same_bytes(p / "gender_restored.embedit", base))
        checks.check("desk passes give identical outputs", len(set(digests)) == 1)

        p = d / "pass0"
        results = json.loads((p / "seq" / "results.json").read_text())["results"]
        report = json.loads((p / "eval" / "report.json").read_text())
        for r in results:
            checks.check("tau == stop_ratio * initial_loss",
                         r["tau"] == self.LAMBDA * r["initial_loss"])
        checks.check("strict specificity is 100% (desk)", report["strict_specificity"] == 100.0)
        iters = sum(r["iterations_run"] for r in results)
        prompts = sum(report["counts"][k][1] for k in SCORED)
        fastest = {c: min(ts) for c, ts in times.items()}
        metrics = {
            "desk_edit_iters_per_s": (iters / fastest["seq_edit"], "1/s"),
            "seq_edit_s": (fastest["seq_edit"], "s"),
            "edit_iters_total": (iters, "count"),
            "converged_frac": (sum(r["converged"] for r in results) / len(results), "1"),
            "desk_eval_prompts_per_s": (prompts / fastest["eval"], "1/s"),
            "gender_s": (fastest["gender"], "s"),
            "desk_revert_s": (fastest["revert"], "s"),
        }
        return metrics, digests[0], {f"desk_{c}_s": ts for c, ts in times.items()}


WORKLOADS = {w.name: w for w in (ClipLEdit, EvalRead)}
