"""Command-line front end.

Machine-readable JSON goes to stdout, prose to stderr.  Exit codes: 0 on
success, 1 when a strict check fails or a search does not converge, 2 on
malformed input or arguments.

    hardybox check --box mermin
    hardybox check --input box.json --strict
    hardybox enumerate --family 1
    hardybox complete --variant s1 --free 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5
    hardybox quantum-max --quadruple 1:13
    hardybox quantum-max --quadruple 1:13 --singlet-only
    hardybox tsirelson --i 1
    hardybox simulate --box mermin --n 100000 --seed 7 --quadruple 1:13
    hardybox examples
    hardybox examples --dump pr
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .behavior import (
    Behavior,
    SchemaError,
    behavior_to_json_dict,
    correlation_vector,
    is_no_signaling,
    is_normalized,
    is_valid,
    load_behavior,
)
from .bell import (
    ch_values,
    ch_values_full,
    delta_values,
    enumerate_hardy_inequalities,
    equivalence_audit,
    hardy_check,
    hardy_witness,
    quadruple_for,
    sigma_shift_of_hardy,
    sigma_values,
)
from .boxes import available_boxes, load_box
from .locality import FreeSetId, complete_from_free_set, constraint_residuals
from .montecarlo import estimate, simulate, test_inequality, test_signaling
from .quantum import (
    ConvergenceError,
    OptimizerConfig,
    SIGMA_QUANTUM_MAX,
    SIGMA_QUANTUM_MIN,
    maximize_hardy,
    maximize_sigma,
    singlet,
)


def _emit(doc: object) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _behavior_from_args(args: argparse.Namespace) -> tuple[Behavior, str]:
    if args.box is not None:
        box = load_box(args.box)
        return box.behavior, box.name
    b, label = load_behavior(args.input)
    return b, label or str(args.input)


def _parse_quadruple(text: str):
    try:
        fam_s, j_s = text.split(":")
        return quadruple_for(int(fam_s), int(j_s))
    except ValueError as exc:
        raise SchemaError(
            f"bad quadruple {text!r}, expected FAMILY:J like 1:13", field_name="quadruple"
        ) from exc


def _tolerance(text: str) -> float:
    """Argument type of --tol and --eps: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _load_config(path: str | None) -> OptimizerConfig:
    if path is None:
        return OptimizerConfig()
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}", field_name="$") from exc
    try:
        return OptimizerConfig.from_json_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"bad optimizer config: {exc}", field_name=exc.field_name) from exc


def cmd_check(args: argparse.Namespace) -> int:
    b, label = _behavior_from_args(args)
    tol = args.tol
    valid = is_valid(b)
    normalized = is_normalized(b, tol)
    no_signaling = is_no_signaling(b, tol)
    doc: dict = {
        "input": label,
        "tol": tol,
        "valid": valid,
        "normalized": normalized,
        "no_signaling": no_signaling,
        "max_constraint_residual": constraint_residuals(b).max_abs(),
    }
    sv = sigma_values(b)
    doc["sigma"] = list(sv.sigma)
    doc["sigma_prime"] = list(sv.sigma_prime)
    doc["delta"] = list(delta_values(b).delta)
    doc["correlations"] = list(correlation_vector(b).as_tuple())
    doc["ch_four_term"] = list(ch_values(b).b)
    doc["ch_full"] = list(ch_values_full(b).b)
    rep = hardy_check(b, tol)
    doc["hardy"] = rep.to_json_dict()
    doc["audit"] = equivalence_audit(b, tol).to_json_dict()
    if normalized and no_signaling:
        witnesses = []
        for q in hardy_witness(b, args.eps):
            shift = sigma_shift_of_hardy(b, q, tol=tol, zero_tol=args.eps)
            witnesses.append(
                {
                    **q.to_json_dict(),
                    "pj": b.p(q.j),
                    "sigma_value": shift.sigma_value,
                    "predicted": shift.predicted,
                    "residual": shift.residual,
                }
            )
        doc["witnesses"] = witnesses
    else:
        doc["witnesses"] = None
    _emit(doc)
    _note(
        f"{label}: valid={valid} normalized={normalized} no_signaling={no_signaling} "
        f"hardy_violations={rep.n_violated}"
    )
    if args.strict and not (valid and normalized and no_signaling):
        _note("strict mode: structural checks failed")
        return 1
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    quads = enumerate_hardy_inequalities()
    if args.family is not None:
        quads = tuple(q for q in quads if q.family == args.family)
    doc = {
        "count": len(quads),
        "inequalities": [
            {
                **q.to_json_dict(),
                "sigma_index": q.sigma_index,
                "primed": q.primed,
                "text": str(q),
            }
            for q in quads
        ],
    }
    _emit(doc)
    return 0


def cmd_complete(args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.free.split(",")]
    except ValueError as exc:
        raise SchemaError(f"bad free values: {exc}", field_name="free") from exc
    if len(values) != 8:
        raise SchemaError(
            f"need 8 free values, got {len(values)}", field_name="free"
        )
    variant = FreeSetId(args.variant)
    b = complete_from_free_set(values, variant)
    _emit(behavior_to_json_dict(b, label=f"completion via {variant.value}"))
    _note(f"completed through {variant.value}; valid={is_valid(b)}")
    return 0


def cmd_quantum_max(args: argparse.Namespace) -> int:
    q = _parse_quadruple(args.quadruple)
    cfg = _load_config(args.config)
    fixed = singlet() if args.singlet_only else None
    _note(f"searching {q} ({'singlet state fixed' if fixed else 'state free'}) ...")
    opt = maximize_hardy(q, cfg, fixed_state=fixed)
    doc = opt.to_json_dict()
    doc["config"] = cfg.to_json_dict()
    doc["singlet_only"] = bool(args.singlet_only)
    _emit(doc)
    _note(f"pj = {opt.pj_value:.9f}, zero residual = {opt.zero_residual:.3e}")
    return 0


def cmd_tsirelson(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    opt = maximize_sigma(args.i, cfg, minimize_value=args.minimize)
    doc = opt.to_json_dict()
    doc["config"] = cfg.to_json_dict()
    doc["reference"] = SIGMA_QUANTUM_MIN if args.minimize else SIGMA_QUANTUM_MAX
    _emit(doc)
    _note(
        f"sigma_{args.i} {'min' if args.minimize else 'max'} = {opt.value:.9f} "
        f"(reference {doc['reference']:.9f})"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    b, label = _behavior_from_args(args)
    log = simulate(b, args.n, seed=args.seed, policy=args.policy, n_shards=args.shards)
    if args.out_csv:
        log.to_csv(args.out_csv)
        _note(f"wrote {len(log)} trials to {args.out_csv}")
    stats = estimate(log)
    doc: dict = {
        "input": label,
        "n": args.n,
        "seed": args.seed,
        "policy": args.policy,
        "alpha": args.alpha,
        "stats": stats.to_json_dict(),
        "signaling": test_signaling(stats, args.alpha).to_json_dict(),
    }
    if args.quadruple is not None:
        q = _parse_quadruple(args.quadruple)
        doc["inequality"] = test_inequality(stats, q, args.alpha).to_json_dict()
    else:
        doc["inequality"] = None
    _emit(doc)
    return 0


def cmd_examples(args: argparse.Namespace) -> int:
    if args.dump is not None:
        box = load_box(args.dump)
        _emit(behavior_to_json_dict(box.behavior, label=box.title))
        return 0
    boxes = []
    for name in available_boxes():
        box = load_box(name)
        boxes.append(
            {"name": box.name, "title": box.title, "expected": dict(box.expected)}
        )
    _emit({"boxes": boxes})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardybox",
        description="Analyze two-party behavior boxes: structure, inequalities, "
        "quantum extrema, and trial-level simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_behavior_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="behavior JSON file")
        src.add_argument("--box", choices=available_boxes(), help="named example box")

    p = sub.add_parser("check", help="structural checks, inequality scan, audit")
    add_behavior_source(p)
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="numeric tolerance")
    p.add_argument("--eps", type=_tolerance, default=1e-6, help="zero threshold for witnesses")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 unless valid, normalized and no-signaling",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list the 64 cell-quadruple inequalities")
    p.add_argument("--family", type=int, choices=range(1, 9), help="restrict to one family")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("complete", help="fill a behavior from 8 free cells")
    p.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in FreeSetId],
        help="which free-cell set the values populate",
    )
    p.add_argument(
        "--free",
        required=True,
        help="8 comma-separated values, ascending cell order of the free set",
    )
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("quantum-max", help="largest pj with the other three cells zero")
    p.add_argument("--quadruple", default="1:13", help="FAMILY:J, default 1:13")
    p.add_argument("--config", help="optimizer config JSON file")
    p.add_argument(
        "--singlet-only",
        action="store_true",
        help="fix the state to the singlet (optimum collapses to zero)",
    )
    p.set_defaults(func=cmd_quantum_max)

    p = sub.add_parser("tsirelson", help="extremal value of a probability sum")
    p.add_argument("--i", type=int, default=1, choices=(1, 2, 3, 4), help="which sum")
    p.add_argument("--minimize", action="store_true", help="minimize instead")
    p.add_argument("--config", help="optimizer config JSON file")
    p.set_defaults(func=cmd_tsirelson)

    p = sub.add_parser("simulate", help="draw trials and run frequency tests")
    add_behavior_source(p)
    p.add_argument("--n", type=int, required=True, help="number of trials")
    p.add_argument("--seed", type=int, default=12345, help="stream seed")
    p.add_argument(
        "--policy",
        choices=("uniform", "roundrobin"),
        default="uniform",
        help="settings sequence policy",
    )
    p.add_argument("--alpha", type=float, default=0.01, help="test level")
    p.add_argument("--shards", type=int, default=1, help="stream consumption split")
    p.add_argument("--quadruple", help="also test one inequality, FAMILY:J")
    p.add_argument("--out-csv", help="write the trial log here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("examples", help="list named boxes or dump one")
    p.add_argument("--dump", choices=available_boxes(), help="print one box as JSON")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        _note(f"error in {exc.field_name}: {exc}")
        return 2
    except ConvergenceError as exc:
        _note(f"search failed: {exc}")
        return 1
    except FileNotFoundError as exc:
        _note(f"file not found: {exc.filename}")
        return 2
    except (KeyError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
