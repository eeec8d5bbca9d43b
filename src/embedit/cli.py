"""Command-line surface: initialize encoders, edit, revert, probe, evaluate,
and report parameter budgets.

Every command is deterministic given its inputs and seed; outputs carry no
timestamps, so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .archive import load_vocab, load_weights, save_weights
from .balance import BalanceMode, BalancerParams, BiasEditRequest, edit_balance
from .editor import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    EditResult,
    LossPositions,
    OptimizerKind,
    edit_multi_encoder,
    edit_sequential,
    merge_budget_reports,
    param_budget_report,
    revert,
)
from .encoder import EncoderBundle, EncoderConfig, init_random_weights
from .errors import (
    ArchiveFormatError,
    DatasetError,
    DegenerateDataError,
    DegenerateInputError,
    DegenerateVectorError,
    DivergenceError,
    EmptyPromptError,
    InconsistentRequestError,
    LedgerFormatError,
    LedgerRangeError,
    PromptTooLongError,
    UnknownTokenError,
)
from .evaluation import (
    aggregate_reports,
    classify,
    evaluate_edit,
    female_percentage,
    filter_sequential_dataset,
    gender_delta,
    load_edit_entries,
    load_gender_entries,
)
from .probe import ProbeDataset, accuracy_over_seeds

_DATA_ERRORS = (
    UnknownTokenError,
    EmptyPromptError,
    PromptTooLongError,
    ArchiveFormatError,
    InconsistentRequestError,
    DatasetError,
    DegenerateInputError,
    DegenerateDataError,
    DegenerateVectorError,
    LedgerFormatError,
    IndexError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise _UsageError(message)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_bundle(path: str) -> EncoderBundle:
    config, weights, vocab = load_weights(path)
    return EncoderBundle(config, weights, vocab)


def _result_json(result: EditResult) -> dict:
    return {
        "initial_loss": result.initial_loss,
        "tau": result.threshold_tau,
        "final_loss": result.final_loss,
        "iterations_run": result.iterations_run,
        "optimizer_steps": result.optimizer_steps,
        "converged": result.converged,
        "edited_token_ids": list(result.edited_token_ids),
    }


def _hyper_from_args(args) -> EditHyperparams:
    return EditHyperparams(
        stop_ratio=args.stop_ratio,
        max_iters=args.max_iters,
        learning_rate=args.lr,
        optimizer=OptimizerKind(args.optimizer),
        loss_positions=LossPositions(args.loss_positions),
    )


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="stop_ratio", type=float, default=0.2,
                   help="stopping ratio in [0, 1] (default 0.2)")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p.add_argument("--loss-positions", choices=["full_sequence", "up_to_eos"],
                   default="full_sequence")


def cmd_init(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        raw = json.load(f)
    vocab = load_vocab(args.vocab)
    config = EncoderConfig(
        vocab_size=vocab.vocab_size,
        d_model=int(raw["d_model"]),
        n_layers=int(raw["n_layers"]),
        n_heads=int(raw["n_heads"]),
        d_ff=int(raw["d_ff"]),
        context_length=int(raw["context_length"]),
        eps=float(raw.get("eps", 1e-5)),
    )
    weights = init_random_weights(config, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_weights(out, config, weights, vocab)
    print(f"wrote {out} (vocab_size={config.vocab_size} d_model={config.d_model} "
          f"params={weights.total_params()})")
    return 0


def cmd_edit(args) -> int:
    bundles = [_load_bundle(args.weights)]
    if args.weights2:
        bundles.append(_load_bundle(args.weights2))
    request = EditRequest(args.source, args.dest, args.target)
    hyper = _hyper_from_args(args)
    ledgers = [EditLedger() for _ in bundles]
    results = edit_multi_encoder(bundles, request, hyper, ledgers)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    budgets = []
    for k, (bundle, ledger, result) in enumerate(zip(bundles, ledgers, results)):
        suffix = "" if k == 0 else str(k + 1)
        save_weights(out / f"edited{suffix}.embedit", bundle.config, bundle.weights,
                     bundle.vocab)
        ledger.save(out / f"ledger{suffix}.json")
        budgets.append(param_budget_report(
            ledger, bundle.weights.total_params(), bundle.config.d_model))
    merged = merge_budget_reports(budgets, sum(b.weights.total_params() for b in bundles))
    _write_json(out / "edit_summary.json", {
        "request": {"source": args.source, "destination": args.dest,
                    "target_word": args.target},
        "results": [_result_json(r) for r in results],
        "budget": {
            "modified_scalars": merged.total_modified_scalars,
            "update_flops": merged.total_update_flops,
        },
    })
    for k, r in enumerate(results):
        print(f"encoder {k}: converged={r.converged} iterations={r.iterations_run} "
              f"steps={r.optimizer_steps} initial={r.initial_loss:.6g} "
              f"tau={r.threshold_tau:.6g} final={r.final_loss:.6g}")
    print(f"modified={merged.total_modified_scalars} flops={merged.total_update_flops}")
    return 0


def cmd_seq_edit(args) -> int:
    bundle = _load_bundle(args.weights)
    entries = load_edit_entries(args.dataset)
    requests = [EditRequest(e.source, e.destination, e.target_word) for e in entries]
    hyper = _hyper_from_args(args)
    ledger = EditLedger()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = edit_sequential(bundle, requests, hyper, ledger)
    finally:
        # Completed entries survive a mid-run failure; a failed edit wrote
        # nothing, so the saved table holds exactly the ledger's edits.
        ledger.save(out / "ledger.json")
        save_weights(out / "edited.embedit", bundle.config, bundle.weights, bundle.vocab)
    _write_json(out / "results.json", {
        "results": [_result_json(r) for r in results],
        "converged": sum(r.converged for r in results),
        "total": len(results),
    })
    print(f"applied {len(results)} edits, {sum(r.converged for r in results)} converged")
    return 0


def cmd_gender(args) -> int:
    bundle = _load_bundle(args.weights)
    reference = _load_bundle(args.weights)
    entries = load_gender_entries(args.dataset)
    mode = BalanceMode(args.mode)
    params = BalancerParams(
        alpha_min=args.alpha_min,
        delta_normalizer=args.delta_normalizer,
        learning_rate=args.lr,
        max_iters=args.max_iters,
    )
    ledger = EditLedger()
    rows = []
    baseline_f = []
    edited_f = []
    for entry in entries:
        f_ref = reference.encode_prompt(entry.female_ref).pooled
        m_ref = reference.encode_prompt(entry.male_ref).pooled
        validation = reference.encode_prompt(entry.validation).pooled
        leans_female = classify(validation, m_ref, f_ref) == "destination"
        sp = entry.female_ref if leans_female else entry.male_ref
        csp = entry.male_ref if leans_female else entry.female_ref
        request = BiasEditRequest(
            profession=entry.profession,
            stereotypical_prompt=sp,
            counter_prompt=csp,
            mode=mode,
            lambda_manual=args.stop_ratio if mode is BalanceMode.MANUAL else None,
        )
        baseline = female_percentage(entry, reference, reference)
        result = edit_balance(bundle, request, params, ledger)
        after = female_percentage(entry, bundle, reference)
        baseline_f.append(baseline)
        edited_f.append(after)
        rows.append({
            "profession": entry.profession,
            "stereotype": "female" if leans_female else "male",
            "baseline_f": baseline,
            "edited_f": after,
            "result": _result_json(result),
        })
        print(f"{entry.profession}: baseline F={baseline:.2f} edited F={after:.2f}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(out / "edited.embedit", bundle.config, bundle.weights, bundle.vocab)
    ledger.save(out / "ledger.json")
    _write_json(out / "gender_report.json", {
        "mode": mode.value,
        "per_profession": rows,
        "baseline_delta": gender_delta(baseline_f),
        "edited_delta": gender_delta(edited_f),
    })
    print(f"delta: baseline={gender_delta(baseline_f):.4f} "
          f"edited={gender_delta(edited_f):.4f}")
    return 0


def cmd_revert(args) -> int:
    config, weights, vocab = load_weights(args.weights)
    ledger = EditLedger.load(args.ledger)
    n = len(ledger.entries) if args.n is None else args.n
    revert(weights, ledger, n)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_weights(out, config, weights, vocab)
    if args.ledger_out:
        ledger.save(args.ledger_out)
    print(f"reverted {n} edits -> {out}")
    return 0


def cmd_probe(args) -> int:
    config, weights, vocab = load_weights(args.weights)
    dataset = ProbeDataset.load(args.dataset)
    seeds = [int(s) for s in args.seeds.split(",")]
    mean, std = accuracy_over_seeds(
        dataset, weights, vocab, seeds,
        train_fraction=args.train_fraction, lr=args.lr, epochs=args.epochs, l2=args.l2,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "probe_report.json", {
        "mean_accuracy": mean,
        "std_accuracy": std,
        "seeds": seeds,
        "n_items": len(dataset),
        "label_names": list(dataset.label_names),
    })
    print(f"probe accuracy: {mean:.2f}% (+/- {std:.2f}%) over {len(seeds)} seeds")
    return 0


def cmd_eval(args) -> int:
    edited = _load_bundle(args.weights)
    reference = _load_bundle(args.reference)
    entries = load_edit_entries(args.dataset)
    if args.sequential_filter:
        excluded = ()
        if args.exclude:
            with open(args.exclude, "r", encoding="utf-8") as f:
                excluded = tuple(json.load(f))
        entries = filter_sequential_dataset(entries, excluded)
    per_entry = []
    reports = []
    for entry in entries:
        report = evaluate_edit(entry, edited, reference)
        reports.append(report)
        per_entry.append({"target_word": entry.target_word, **report.to_json()})
    agg = aggregate_reports(reports)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", {**agg.to_json(), "per_entry": per_entry})
    lines = [
        f"{'metric':<20}{'mean %':>10}{'se':>8}",
        f"{'efficacy':<20}{agg.efficacy:>10.2f}{agg.efficacy_se:>8.2f}",
        f"{'generality':<20}{agg.generality:>10.2f}{agg.generality_se:>8.2f}",
        f"{'specificity':<20}{agg.specificity:>10.2f}{agg.specificity_se:>8.2f}",
        f"{'strict_specificity':<20}{agg.strict_specificity:>10.2f}{'':>8}",
        f"entries: {len(entries)}",
    ]
    table = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_report(args) -> int:
    ledger = EditLedger.load(args.ledger)
    ledger2 = EditLedger.load(args.ledger2) if args.ledger2 else None

    if args.weights:
        config, weights, _ = load_weights(args.weights)
        d_model = config.d_model
        total = weights.total_params()
    elif args.d_model is not None:
        d_model = args.d_model
        total = 0
    else:
        raise _UsageError("report needs --weights or --d-model")

    d2 = None
    if ledger2 is not None:
        if args.weights2:
            config2, weights2, _ = load_weights(args.weights2)
            d2 = config2.d_model
            total += weights2.total_params()
        elif args.d_model2 is not None:
            d2 = args.d_model2
        else:
            raise _UsageError("--ledger2 needs --weights2 or --d-model2")

    if args.total_params is not None:
        total = args.total_params
    if total <= 0:
        raise _UsageError("report needs --total-params when --weights is not given")

    budgets = [param_budget_report(ledger, total, d_model)]
    if ledger2 is not None:
        budgets.append(param_budget_report(ledger2, total, d2))
    merged = merge_budget_reports(budgets, total)

    report = {
        "per_edit": [
            {
                "edited_tokens": b.edited_token_count,
                "modified_scalars": b.modified_scalars,
                "update_flops": b.update_flops,
                "weight_ratio": b.weight_ratio,
            }
            for b in merged.per_edit
        ],
        "total_modified_scalars": merged.total_modified_scalars,
        "total_update_flops": merged.total_update_flops,
        "average_flops_per_edit": merged.average_flops,
        "total_model_params": total,
    }
    if args.out:
        _write_json(Path(args.out) / "budget.json", report)
    for b in merged.per_edit:
        print(f"modified={b.modified_scalars} flops={b.update_flops} "
              f"ratio={b.weight_ratio:.3g}")
    print(f"total: modified={merged.total_modified_scalars} "
          f"flops={merged.total_update_flops}")
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

    p = sub.add_parser("edit", help="single edit (optionally on two encoders)")
    p.add_argument("--weights", required=True)
    p.add_argument("--weights2")
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
    p.add_argument("--mode", choices=["manual", "auto"], default="manual")
    p.add_argument("--lambda", dest="stop_ratio", type=float, default=0.2,
                   help="stopping ratio for manual mode")
    p.add_argument("--alpha-min", type=float, default=2.0)
    p.add_argument("--delta-normalizer", type=float, default=2.0)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--max-iters", type=int, default=100)
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
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("eval", help="efficacy / generality / specificity report")
    p.add_argument("--weights", required=True, help="edited archive")
    p.add_argument("--reference", required=True, help="pre-edit archive")
    p.add_argument("--dataset", required=True, help="edit entries JSONL")
    p.add_argument("--sequential-filter", action="store_true")
    p.add_argument("--exclude", help="JSON list of target words to drop")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="parameter and FLOP budget of a ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--ledger2")
    p.add_argument("--weights")
    p.add_argument("--weights2")
    p.add_argument("--d-model", type=int)
    p.add_argument("--d-model2", type=int)
    p.add_argument("--total-params", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, LedgerRangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
