"""Command-line surface: initialize encoders, edit, revert, probe, evaluate,
and report parameter budgets.

Every command is deterministic given its inputs and seed; outputs carry no
timestamps, so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .archive import load_config, load_vocab, load_weights, save_weights, write_json, write_text
from .balance import BalanceMode, BalancerParams, BiasEditRequest, edit_balance, gendered_token_ids
from .editor import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    LedgerEntry,
    LossPositions,
    OptimizerKind,
    budget_report,
    check_request,
    edit_multi_encoder,
    edit_sequential,
    revert,
)
from .encoder import EncoderBundle, EncoderConfig, encode_pooled, init_random_weights
from .errors import (
    DataError,
    DatasetError,
    DivergenceError,
    EmbeditError,
    LedgerFormatError,
    NonFiniteError,
    check_number,
    read_json,
    reading,
)
from .evaluation import (
    DESTINATION,
    aggregate_reports,
    classify,
    evaluate_edit,
    female_percentage,
    filter_sequential_dataset,
    gender_delta,
    load_edit_entries,
    load_gender_entries,
)
from .probe import ProbeDataset, ProbeParams, accuracy_over_seeds


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise _UsageError(message)


def _load_bundle(path: str) -> EncoderBundle:
    config, weights, vocab = load_weights(path)
    return EncoderBundle(config, weights, vocab)


def _save_edits(out: Path, bundle: EncoderBundle, ledger: EditLedger, suffix: str = "") -> None:
    """Save an edit's ledger, then its archive, so that a save cut short
    never leaves an edited archive without the ledger that reverts it."""
    ledger.save(out / f"ledger{suffix}.json")
    save_weights(out / f"edited{suffix}.embedit", bundle.config, bundle.weights, bundle.vocab)


def _each_line(dataset: str, entries: list, fn) -> list:
    """fn(entry) of each dataset entry, in order, each under
    reading(f"{dataset}: line {entry.line}", DataError): the one place that names
    a line while it is used (evaluation._load_jsonl names one while parsing)."""
    results = []
    for entry in entries:
        with reading(f"{dataset}: line {entry.line}", DataError):
            results.append(fn(entry))
    return results


def _result_json(entry: LedgerEntry) -> dict:
    return {**entry.result_json(), "edited_token_ids": list(entry.edited_token_ids)}


def _hyper_from_args(args) -> EditHyperparams:
    return EditHyperparams(
        stop_ratio=args.stop_ratio,
        max_iters=args.max_iters,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        loss_positions=args.loss_positions,
    )


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="stop_ratio", type=float, default=EditHyperparams.stop_ratio,
                   help="stopping ratio in [0, 1] (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=EditHyperparams.max_iters)
    p.add_argument("--lr", type=float, default=EditHyperparams.learning_rate)
    p.add_argument("--optimizer", choices=[k.value for k in OptimizerKind],
                   default=EditHyperparams.optimizer.value)
    p.add_argument("--loss-positions", choices=[k.value for k in LossPositions],
                   default=EditHyperparams.loss_positions.value)


def cmd_init(args) -> int:
    check_number("--seed", args.seed, 0, integer=True)
    raw = read_json(args.config, _UsageError)
    vocab = load_vocab(args.vocab)
    with reading(args.config, _UsageError):
        if type(raw) is not dict or "vocab_size" in raw:
            raise ValueError("need a JSON object without vocab_size, which the vocab sets")
        config = EncoderConfig.from_json(  # eps may be left out
            {"eps": EncoderConfig.eps, **raw, "vocab_size": vocab.vocab_size})
    weights = init_random_weights(config, args.seed)
    out = Path(args.out)
    save_weights(out, config, weights, vocab)
    print(f"wrote {out} (vocab_size={config.vocab_size} d_model={config.d_model} "
          f"params={config.total_params()})")
    return 0


def cmd_edit(args) -> int:
    hyper = _hyper_from_args(args)
    bundles = [_load_bundle(p) for p in args.weights]
    request = EditRequest(args.source, args.dest, args.target)
    ledgers = [EditLedger() for _ in bundles]
    results = edit_multi_encoder(bundles, request, hyper, ledgers)

    out = Path(args.out)
    for k, (bundle, ledger) in enumerate(zip(bundles, ledgers)):
        _save_edits(out, bundle, ledger, "" if k == 0 else str(k + 1))
    budget = budget_report(ledgers, sum(b.config.total_params() for b in bundles))
    modified, flops = budget["total_modified_scalars"], budget["total_update_flops"]
    write_json(out / "edit_summary.json", {
        "request": {"source": args.source, "destination": args.dest,
                    "target_word": args.target},
        "results": [_result_json(r) for r in results],
        "budget": {"modified_scalars": modified, "update_flops": flops},
    })
    for k, r in enumerate(results):
        print(f"encoder {k}: converged={r.converged} iterations={r.iterations_run} "
              f"steps={r.optimizer_steps} initial={r.initial_loss:.6g} "
              f"tau={r.threshold_tau:.6g} final={r.final_loss:.6g}")
    print(f"modified={modified} flops={flops}")
    return 0


def cmd_seq_edit(args) -> int:
    hyper = _hyper_from_args(args)
    entries = load_edit_entries(args.dataset)
    if not entries:
        raise DatasetError(f"{args.dataset}: no edit entries")
    bundle = _load_bundle(args.weights)

    def request(e):
        return EditRequest(e.source, e.destination, e.target_word)

    # A bad entry anywhere exits 2 before the first forward, writing nothing.
    _each_line(args.dataset, entries, lambda e: check_request(bundle, request(e)))
    ledger = EditLedger()
    out = Path(args.out)
    try:
        results = edit_sequential(bundle, [request(e) for e in entries], hyper, ledger)
    finally:
        # Completed entries survive a mid-run failure; a failed edit wrote
        # nothing, so the saved table holds exactly the ledger's edits.
        _save_edits(out, bundle, ledger)
    write_json(out / "results.json", {
        "results": [_result_json(r) for r in results],
        "converged": sum(r.converged for r in results),
        "total": len(results),
    })
    print(f"applied {len(results)} edits, {sum(r.converged for r in results)} converged")
    return 0


def cmd_gender(args) -> int:
    params = BalancerParams(mode=args.mode, alpha_min=args.alpha_min, learning_rate=args.lr,
                            max_iters=args.max_iters, stop_ratio=args.stop_ratio)
    entries = load_gender_entries(args.dataset)
    if not entries:
        raise DatasetError(f"{args.dataset}: no gender entries")
    bundle = _load_bundle(args.weights)
    # Every line, and in auto mode the gendered words, are checked before the
    # first forward, so a refusal prints and writes nothing.
    _each_line(args.dataset, entries, lambda e: [bundle.tokenize(p) for p in e.prompts])
    if params.mode is BalanceMode.AUTO:
        with reading(args.weights, DataError):
            gendered_token_ids(bundle.vocab)
    references = [encode_pooled(bundle, e.prompts) for e in entries]
    ledger = EditLedger()
    rows = []
    out = Path(args.out)
    try:
        for entry, ref in zip(entries, references):
            f_ref, m_ref = ref[entry.female_ref], ref[entry.male_ref]
            leans_female = classify(ref[entry.validation], m_ref, f_ref) == DESTINATION
            sp = entry.female_ref if leans_female else entry.male_ref
            csp = entry.male_ref if leans_female else entry.female_ref
            request = BiasEditRequest(profession=entry.profession, stereotypical_prompt=sp,
                                      counter_prompt=csp)
            baseline = female_percentage(entry, ref, f_ref, m_ref)
            result = edit_balance(bundle, request, params, ledger)
            after = female_percentage(entry, encode_pooled(bundle, entry.prompts), f_ref, m_ref)
            rows.append({
                "profession": entry.profession,
                "stereotype": "female" if leans_female else "male",
                "baseline_f": baseline,
                "edited_f": after,
                "result": _result_json(result),
            })
            print(f"{entry.profession}: baseline F={baseline:.2f} edited F={after:.2f}")
    finally:
        # As in seq-edit, the professions balanced before a failure are saved.
        _save_edits(out, bundle, ledger)

    baseline_delta, edited_delta = (gender_delta([r[f] for r in rows])
                                    for f in ("baseline_f", "edited_f"))
    write_json(out / "gender_report.json", {
        "mode": args.mode,
        "per_profession": rows,
        "baseline_delta": baseline_delta,
        "edited_delta": edited_delta,
    })
    print(f"delta: baseline={baseline_delta:.4f} edited={edited_delta:.4f}")
    return 0


def cmd_revert(args) -> int:
    if args.n is not None:
        check_number("--n", args.n, 0, integer=True)
    ledger = EditLedger.load(args.ledger)
    n = len(ledger.entries) if args.n is None else args.n
    ledger.check_depth(n)  # the ledger alone decides it: before the archive load
    config, weights, vocab = load_weights(args.weights)
    with reading(args.ledger, LedgerFormatError):
        revert(weights, ledger, n)
    out = Path(args.out)
    save_weights(out, config, weights, vocab)
    if args.ledger_out:
        ledger.save(args.ledger_out)
    print(f"reverted {n} edits -> {out}")
    return 0


def cmd_probe(args) -> int:
    # Flags first, as every command checks them, so that the exit code does
    # not depend on whether a file is damaged too.
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise _UsageError(f"--seeds must be integers, not {args.seeds!r}") from None
    params = ProbeParams(seeds, args.train_fraction, args.lr, args.epochs, args.l2)
    dataset = ProbeDataset.load(args.dataset)
    config, weights, vocab = load_weights(args.weights)
    with reading(args.dataset, DataError):
        mean, std = accuracy_over_seeds(dataset, weights, vocab, params)
    out = Path(args.out)
    write_json(out / "probe_report.json", {
        "mean_accuracy": mean,
        "std_accuracy": std,
        "seeds": params.seeds,
        "n_items": len(dataset),
        "label_names": list(dataset.label_names),
    })
    print(f"probe accuracy: {mean:.2f}% (+/- {std:.2f}%) over {len(params.seeds)} seeds")
    return 0


def _word_list(value) -> list[str]:
    if type(value) is not list or not all(type(w) is str for w in value):
        raise DatasetError("need a JSON list of target words")
    return value


def cmd_eval(args) -> int:
    if args.exclude and not args.sequential_filter:
        raise _UsageError("--exclude needs --sequential-filter")
    entries = load_edit_entries(args.dataset)
    if args.sequential_filter:
        excluded = []
        if args.exclude:
            excluded = read_json(args.exclude, DatasetError, _word_list)
        entries = filter_sequential_dataset(entries, tuple(excluded))
    if not entries:
        raise DatasetError(f"{args.dataset}: no edit entries")
    edited = _load_bundle(args.weights)
    reference = _load_bundle(args.reference)
    if (edited.config, edited.vocab) != (reference.config, reference.vocab):
        raise DataError(f"{args.reference}: config or vocab differs from {args.weights}'s")
    # Every prompt of every line is tokenized before the first score.
    _each_line(args.dataset, entries, lambda e: [edited.tokenize(p) for p in e.prompts])
    reports = _each_line(args.dataset, entries, lambda e: evaluate_edit(e, edited, reference))
    agg = aggregate_reports(reports)

    out = Path(args.out)
    write_json(out / "report.json", {**agg.to_json(), "per_entry": [
        {"target_word": e.target_word, **r.to_json()} for e, r in zip(entries, reports)]})
    lines = [
        f"{'metric':<20}{'mean %':>10}{'se':>8}",
        f"{'efficacy':<20}{agg.efficacy:>10.2f}{agg.efficacy_se:>8.2f}",
        f"{'generality':<20}{agg.generality:>10.2f}{agg.generality_se:>8.2f}",
        f"{'specificity':<20}{agg.specificity:>10.2f}{agg.specificity_se:>8.2f}",
        f"{'strict_specificity':<20}{agg.strict_specificity:>10.2f}{'':>8}",
        f"entries: {len(entries)}",
    ]
    table = "\n".join(lines) + "\n"
    write_text(out / "report.txt", table)
    print(table, end="")
    return 0


def cmd_report(args) -> int:
    if len(args.weights) != len(args.ledger):
        raise _UsageError("report needs one --weights per --ledger")
    ledgers = [EditLedger.load(p) for p in args.ledger]
    configs = [load_config(p) for p in args.weights]
    for path, ledger, config in zip(args.ledger, ledgers, configs):
        with reading(path, LedgerFormatError):
            ledger.check_fits(config.vocab_size, config.d_model)
    budget = budget_report(ledgers, sum(c.total_params() for c in configs))
    if args.out:
        write_json(Path(args.out) / "budget.json", budget)
    for b in budget["per_edit"]:
        print(f"modified={b['modified_scalars']} flops={b['update_flops']} "
              f"ratio={b['weight_ratio']:.3g}")
    print(f"total: modified={budget['total_modified_scalars']} "
          f"flops={budget['total_update_flops']}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="embedit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a random-weight archive")
    p.add_argument("--config", required=True, help="encoder dimensions JSON")
    p.add_argument("--vocab", required=True, help="vocabulary JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("edit", help="single edit on one or more encoders")
    p.add_argument("--weights", required=True, action="append",
                   help="one encoder's archive; repeat for each encoder")
    p.add_argument("--source", required=True)
    p.add_argument("--dest", required=True)
    p.add_argument("--target", required=True)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("seq-edit", help="apply a dataset of edits in order")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True, help="edit entries JSONL")
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_seq_edit)

    p = sub.add_parser("gender", help="balance professions' gender lean")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True, help="gender entries JSONL")
    p.add_argument("--mode", choices=[m.value for m in BalanceMode],
                   default=BalancerParams.mode.value)
    p.add_argument("--lambda", dest="stop_ratio", type=float,
                   default=BalancerParams.stop_ratio, help="stopping ratio for manual mode")
    p.add_argument("--alpha-min", type=float, default=BalancerParams.alpha_min)
    p.add_argument("--lr", type=float, default=BalancerParams.learning_rate)
    p.add_argument("--max-iters", type=int, default=BalancerParams.max_iters)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gender)

    p = sub.add_parser("revert", help="restore original rows from a ledger")
    p.add_argument("--weights", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="how many edits to undo (default: all)")
    p.add_argument("--out", required=True)
    p.add_argument("--ledger-out")
    p.set_defaults(func=cmd_revert)

    p = sub.add_parser("probe", help="linear probe over embedding rows")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True, help="probe dataset JSON")
    p.add_argument("--seeds", default=",".join(map(str, ProbeParams.seeds)))
    p.add_argument("--train-fraction", type=float, default=ProbeParams.train_fraction)
    p.add_argument("--lr", type=float, default=ProbeParams.lr)
    p.add_argument("--epochs", type=int, default=ProbeParams.epochs)
    p.add_argument("--l2", type=float, default=ProbeParams.l2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("eval", help="efficacy / generality / specificity report")
    p.add_argument("--weights", required=True, help="edited archive")
    p.add_argument("--reference", required=True, help="pre-edit archive")
    p.add_argument("--dataset", required=True, help="edit entries JSONL")
    p.add_argument("--sequential-filter", action="store_true")
    p.add_argument("--exclude", help="JSON list of target words to drop "
                   "(with --sequential-filter)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="parameter and FLOP budget of a ledger")
    p.add_argument("--ledger", required=True, action="append",
                   help="one encoder's ledger; repeat for each encoder")
    p.add_argument("--weights", required=True, action="append",
                   help="the archive the ledger at the same position was made on")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # An encode that overflows outside an edit loop raises NonFiniteError, a
    # ValueError: it is a divergence too, so this handler comes first.
    except (DivergenceError, NonFiniteError) as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (EmbeditError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
