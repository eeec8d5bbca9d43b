"""Spans around embedit's public names, recorded from outside the program.

A Tracer replaces each public name where its caller looks it up (a module
global such as `embedit.editor.encode`, or a class attribute such as
`Adam.step`) with a wrapper that passes every argument through unchanged and
records one span: name, start, end, parent span and the run id. Spans stay in
memory until `save`. Per-layer metrics, self times included, are derived from
the spans after the traced pass.

A wrapped name that the program no longer has is reported as missing, and
every metric that reads it is left out rather than reported as zero.

Calls made inside `embedit.cli.main` (the desk-shape CLI session) are
reported by the `cli.*` and `balance.*` metrics only; the editor, autodiff,
encoder, optim, archive and evaluation metrics count the calls made outside
it, so that a few hundred desk iterations do not dilute the per-iteration
figures of the CLIP-L edits.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from pathlib import Path

import numpy as np

# Primitives the encoder looks up in its own namespace.
ENCODER_OPS = ("matmul", "layer_norm", "softmax_rows", "gelu", "add", "add_bias", "scale",
               "transpose", "slice_cols", "concat_cols", "gather_rows")
# Primitives the editor's loss looks up in its own namespace.
LOSS_OPS = ("sub", "slice_rows", "mean_square")
OPS = ENCODER_OPS + LOSS_OPS

# (module, attribute path where the caller looks the name up, span name)
SITES = (
    [("embedit.encoder", op, f"autodiff.{op}") for op in ENCODER_OPS]
    + [("embedit.editor", op, f"autodiff.{op}") for op in LOSS_OPS]
    + [
        ("embedit.balance", "add", "autodiff.add"),
        ("embedit.balance", "scale", "autodiff.scale"),
        ("embedit.editor", "backward", "autodiff.backward"),
        ("embedit.balance", "backward", "autodiff.backward"),
        ("embedit.encoder", "encode", "encoder.encode"),
        ("embedit.editor", "encode", "encoder.encode"),
        ("embedit.balance", "encode", "encoder.encode"),
        ("embedit.encoder", "EncoderBundle.encode_prompt", "encoder.encode_prompt"),
        ("embedit.encoder", "EncoderWeights.set_wte_rows", "editor.write"),
        ("embedit.editor", "edit_single", "editor.edit_single"),
        ("embedit.balance", "edit_single", "editor.edit_single"),
        ("embedit.editor", "revert", "editor.revert"),
        ("embedit.cli", "revert", "editor.revert"),
        ("embedit.optim", "Adam.step", "optim.step"),
        ("embedit.optim", "Sgd.step", "optim.step"),
        ("embedit.archive", "load_weights", "archive.load"),
        ("embedit.archive", "save_weights", "archive.save"),
        ("embedit.cli", "load_weights", "archive.load"),
        ("embedit.cli", "save_weights", "archive.save"),
        ("embedit.evaluation", "evaluate_edit", "evaluation.evaluate_edit"),
        ("embedit.cli", "evaluate_edit", "evaluation.evaluate_edit"),
        ("embedit.evaluation", "classify", "evaluation.classify"),
        ("embedit.cli", "classify", "evaluation.classify"),
        ("embedit.cli", "edit_balance", "balance.edit_balance"),
        ("embedit.cli", "main", "cli.main"),
        ("embedit.cli", "cmd_seq_edit", "cli.seq_edit"),
        ("embedit.cli", "cmd_eval", "cli.eval"),
        ("embedit.cli", "cmd_gender", "cli.gender"),
        ("embedit.cli", "cmd_revert", "cli.revert"),
        ("embedit.cli", "cmd_init", "cli.init"),
    ]
)
# Spans whose taped and untaped calls are told apart by a Tape argument.
TAPE_AWARE = {"encoder.encode", *(f"autodiff.{op}" for op in OPS)}


def _has_tape(args, kwargs, tape_type) -> bool:
    return any(isinstance(a, tape_type) for a in args) or any(
        isinstance(v, tape_type) for v in kwargs.values())


def _path_arg(args, kwargs):
    for a in (*args, *kwargs.values()):
        if isinstance(a, (str, Path)):
            return Path(a)
    return None


class Tracer:
    """Wraps the SITES while installed; one instance per traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.taped: list[bool] = []
        # Per span: iterations, prompts or bytes, taken from the call.
        self.value: dict[int, float] = {}
        self.prompt_key: dict[int, tuple[int, str]] = {}
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self._bundles: dict[int, tuple[weakref.ref, int]] = {}

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        from embedit.autodiff import Tape

        for module_name, path, span in SITES:
            site = f"{module_name}.{path}"
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for o in owners:
                owner = getattr(owner, o, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(site)
                continue
            self.present.add(site)
            own = isinstance(owner, type) and attr in vars(owner)
            self._undo.append((owner, attr, fn, own or not isinstance(owner, type)))
            setattr(owner, attr, self._wrap(fn, span, span in TAPE_AWARE, Tape))

    def uninstall(self) -> None:
        for owner, attr, fn, restore in reversed(self._undo):
            if restore:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _wrap(self, fn, span: str, tape_aware: bool, tape_type):
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)
        clock = time.perf_counter
        name, start, end, parent, taped, stack = (
            self.name, self.start, self.end, self.parent, self.taped, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(span)
            parent.append(stack[-1] if stack else -1)
            taped.append(tape_aware and _has_tape(args, kwargs, tape_type))
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, out)
            return out

        return traced

    # -- counts taken at the call boundary --------------------------------

    def _on_editor_edit_single(self, idx, args, kwargs, out):
        self.value[idx] = getattr(out, "iterations_run", 0)

    _on_balance_edit_balance = _on_editor_edit_single

    def _on_evaluation_evaluate_edit(self, idx, args, kwargs, out):
        entry = next(a for a in (*args, *kwargs.values()) if hasattr(a, "negatives"))
        self.value[idx] = 1 + len(entry.positives) + len(entry.negatives)

    def _on_encoder_encode_prompt(self, idx, args, kwargs, out):
        bundle = args[0]
        prompt = args[1] if len(args) > 1 else kwargs.get("prompt")
        self.prompt_key[idx] = (self._bundle_serial(bundle), prompt)

    def _on_archive_load(self, idx, args, kwargs, out):
        self.value[idx] = _path_arg(args, kwargs).stat().st_size

    _on_archive_save = _on_archive_load

    def _bundle_serial(self, bundle) -> int:
        """Identity of a live bundle that survives id() reuse after it dies."""
        known = self._bundles.get(id(bundle))
        if known is not None and known[0]() is bundle:
            return known[1]
        serial = len(self._bundles) + 1
        self._bundles[id(bundle)] = (weakref.ref(bundle), serial)
        return serial

    # -- output -----------------------------------------------------------

    def save(self, path: Path) -> None:
        names = sorted(set(self.name))
        code = {n: k for k, n in enumerate(names)}
        np.savez_compressed(
            path, names=np.array(names), run_id=np.array(self.run_id),
            name=np.array([code[n] for n in self.name], dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64))

    def metrics(self, wall_traced: float, wall_untraced: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; metrics that read a
        missing site are left out."""
        n = len(self.name)
        names = np.array(self.name, dtype=object)
        start, end = np.array(self.start), np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        taped = np.array(self.taped, dtype=bool)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def under(span):
            """Spans with an ancestor named `span`."""
            mask = np.zeros(n, dtype=bool)
            for i in range(n):
                p = parent[i]
                if p >= 0 and (names[p] == span or mask[p]):
                    mask[i] = True
            return mask

        session = (names == "cli.main") | under("cli.main")

        def is_(span, in_session=False):
            return (names == span) & (session if in_session else ~session)

        def total(mask):
            return sum(self.value.get(i, 0) for i in np.flatnonzero(mask))

        def per(x, d):
            return float(x) / d if d else 0.0

        out: dict[str, tuple[float, str]] = {}

        def put(metric, value, unit, *sites):
            if all(s in self.present for s in sites):
                out[metric] = (float(value), unit)

        enc = is_("encoder.encode")
        in_edit = under("editor.edit_single")
        fwd = enc & taped & in_edit
        iters = int(fwd.sum())
        # editor
        put("editor.edits", is_("editor.edit_single").sum(), "count", "embedit.editor.edit_single")
        put("editor.iterations", total(is_("editor.edit_single")), "count",
            "embedit.editor.edit_single")
        put("editor.write.calls", is_("editor.write").sum(), "count",
            "embedit.encoder.EncoderWeights.set_wte_rows")
        put("editor.self_s", self_t[is_("editor.edit_single")].sum(), "s",
            "embedit.editor.edit_single", "embedit.editor.encode", "embedit.editor.backward")
        put("editor.forward_s", per(dur[fwd].sum(), iters), "s",
            "embedit.editor.edit_single", "embedit.editor.encode")
        loss = np.isin(names, [f"autodiff.{op}" for op in LOSS_OPS]) & in_edit & ~session
        put("editor.loss_s", per(dur[loss].sum(), iters), "s", "embedit.editor.edit_single",
            "embedit.editor.encode", *(f"embedit.editor.{op}" for op in LOSS_OPS))
        for phase, span, sites in (
            ("backward", "autodiff.backward", ("embedit.editor.backward",)),
            ("step", "optim.step", ("embedit.optim.Adam.step",)),
            ("write", "editor.write", ("embedit.encoder.EncoderWeights.set_wte_rows",)),
        ):
            put(f"editor.{phase}_s", per(dur[is_(span) & in_edit].sum(), iters), "s",
                "embedit.editor.edit_single", "embedit.editor.encode", *sites)
        # autodiff
        bwd = is_("autodiff.backward")
        put("autodiff.backward.calls", bwd.sum(), "count", "embedit.editor.backward")
        put("autodiff.backward.s", dur[bwd].sum(), "s", "embedit.editor.backward")
        for op in OPS:
            home = "embedit.encoder" if op in ENCODER_OPS else "embedit.editor"
            m = is_(f"autodiff.{op}")
            put(f"autodiff.{op}.calls", m.sum(), "count", f"{home}.{op}")
            put(f"autodiff.{op}.s", dur[m].sum(), "s", f"{home}.{op}")
        prim = np.isin(names, [f"autodiff.{op}" for op in OPS])
        put("autodiff.taped_ops_per_iter",
            per((prim & taped & ~session).sum(), (enc & taped).sum()),
            "ops/iter", "embedit.encoder.encode", "embedit.editor.encode",
            *(f"embedit.encoder.{op}" for op in ENCODER_OPS),
            *(f"embedit.editor.{op}" for op in LOSS_OPS))
        # encoder
        enc_sites = ("embedit.encoder.encode", "embedit.editor.encode", "embedit.balance.encode")
        put("encoder.encode.calls", (enc & ~taped).sum(), "count", *enc_sites)
        put("encoder.encode.self_s", self_t[enc & ~taped].sum(), "s", *enc_sites)
        put("encoder.encode_taped.calls", (enc & taped).sum(), "count", *enc_sites)
        put("encoder.encode_taped.self_s", self_t[enc & taped].sum(), "s", *enc_sites)
        # optim
        step = is_("optim.step")
        # Adam is the optimizer every workload uses; Sgd.step is wrapped too.
        put("optim.step.calls", step.sum(), "count", "embedit.optim.Adam.step")
        put("optim.step.s", dur[step].sum(), "s", "embedit.optim.Adam.step")
        # archive
        load_s, save_s = dur[is_("archive.load")].sum(), dur[is_("archive.save")].sum()
        lb, sb = total(is_("archive.load")), total(is_("archive.save"))
        io_sites = ("embedit.archive.load_weights", "embedit.archive.save_weights")
        put("archive.load.s", load_s, "s", *io_sites)
        put("archive.save.s", save_s, "s", *io_sites)
        put("archive.bytes", lb + sb, "B", *io_sites)
        put("archive.load_MBps", per(lb / 1e6, load_s), "MB/s", *io_sites)
        put("archive.save_MBps", per(sb / 1e6, save_s), "MB/s", *io_sites)
        # evaluation
        ev = is_("evaluation.evaluate_edit")
        ev_sites = ("embedit.evaluation.evaluate_edit",
                    "embedit.encoder.EncoderBundle.encode_prompt")
        put("evaluation.evaluate_edit.calls", ev.sum(), "count", *ev_sites)
        put("evaluation.evaluate_edit.self_s", self_t[ev].sum(), "s", *ev_sites)
        put("evaluation.prompts", total(ev), "count", *ev_sites)
        put("evaluation.classify.s", dur[is_("evaluation.classify")].sum(), "s",
            "embedit.evaluation.classify")
        ep = np.flatnonzero(is_("encoder.encode_prompt") & under("evaluation.evaluate_edit"))
        distinct = len({self.prompt_key[i] for i in ep})
        put("evaluation.encodes_per_prompt", per(len(ep), distinct), "encodes/prompt", *ev_sites)
        # balance
        bal = is_("balance.edit_balance", True)
        put("balance.edit_balance.calls", bal.sum(), "count", "embedit.cli.edit_balance")
        put("balance.edit_balance.self_s", self_t[bal].sum(), "s", "embedit.cli.edit_balance",
            "embedit.balance.encode", "embedit.balance.backward")
        put("balance.iterations", total(bal), "count", "embedit.cli.edit_balance")
        # cli
        for cmd in ("seq_edit", "eval", "gender", "revert"):
            put(f"cli.{cmd}.s", dur[is_(f"cli.{cmd}", True)].sum(), "s", f"embedit.cli.cmd_{cmd}")
        cli_spans = np.isin(names, ["cli.main", "cli.init", "cli.seq_edit", "cli.eval",
                                    "cli.gender", "cli.revert"])
        put("cli.self_s", self_t[cli_spans].sum(), "s", "embedit.cli.main",
            "embedit.cli.load_weights", "embedit.cli.save_weights")
        # The session's Python per-call overhead: its edit iterations and the
        # primitive calls they make.
        put("cli.editor.iterations", total(is_("editor.edit_single", True)), "count",
            "embedit.cli.main", "embedit.editor.edit_single", "embedit.balance.edit_single")
        op_sites = (*(f"embedit.encoder.{op}" for op in ENCODER_OPS),
                    *(f"embedit.editor.{op}" for op in LOSS_OPS))
        put("cli.autodiff.calls", (prim & session).sum(), "count", "embedit.cli.main", *op_sites)
        put("cli.autodiff.s", dur[prim & session].sum(), "s", "embedit.cli.main", *op_sites)
        # the tracer itself
        put("trace.spans", n, "count")
        put("trace.overhead_s", wall_traced - wall_untraced, "s")
        return out
