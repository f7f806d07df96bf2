"""Command-line front end.

Machine-readable JSON goes to stdout, prose to stderr.  Each document is
the bytes of ``json.dumps(doc, indent=2, allow_nan=False)`` and a newline,
written by one writer, `hardybox.behavior.json_text`.  ``check`` puts its
`ViolationReport` in the document itself, not its dict form: the writer
splices in the report's own text through its one hook, ``__json_text__``,
which fills one template made once per indentation with the tol, the 64
rows' slacks and flags and the summary.  The bytes are those of the
``json.dumps`` of the dict.  `main` builds its parser on the first call and
reuses it for the rest of the process.  `simulate` imports
`hardybox.montecarlo` and the searches import `hardybox.quantum` when they
run, so `check`, `enumerate`, `complete` and `examples` load neither.

Exit codes: 0 on success, 1 when a strict check fails or a search does not
converge (or scipy, which only the searches need, is missing), 2 on
malformed input or arguments or a named file that cannot be opened, 141
(`EXIT_BROKEN_PIPE`) when the reader closes stdout before the output is
written, as in ``hardybox enumerate | head -1``.

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
import errno
import functools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .behavior import (
    Behavior,
    ConvergenceError,
    SchemaError,
    behavior_to_json_dict,
    check_cell_value,
    correlation_vector,
    is_no_signaling,
    is_normalized,
    is_valid,
    json_text,
    load_behavior,
    parse_json,
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

if TYPE_CHECKING:  # the commands import the searches and the simulator when they run
    from .quantum import OptimizerConfig

#: exit status when stdout is closed early: 128 + SIGPIPE, what a shell
#: reports for a process that the signal ends
EXIT_BROKEN_PIPE = 141


def _emit(doc: object) -> None:
    # serialized whole before anything is written; NaN and infinity are errors
    sys.stdout.write(json_text(doc) + "\n")
    sys.stdout.flush()  # a closed pipe surfaces here, inside `main`


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
    from .quantum import OptimizerConfig

    if path is None:
        return OptimizerConfig()
    data = Path(path).read_bytes()
    try:
        return OptimizerConfig.from_json_dict(parse_json(data))
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
    hardy = doc["hardy"] = hardy_check(b, tol)  # json_text writes it through its __json_text__
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
        f"hardy_violations={hardy.summary()['violated']}"
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
        raise SchemaError(f"need 8 free values, got {len(values)}", field_name="free")
    for i, x in enumerate(values):
        check_cell_value(x, f"free[{i}]", field_name="free")
    variant = FreeSetId(args.variant)
    b = complete_from_free_set(values, variant)
    _emit(behavior_to_json_dict(b, label=f"completion via {variant.value}"))
    _note(f"completed through {variant.value}; valid={is_valid(b)}")
    return 0


def cmd_quantum_max(args: argparse.Namespace) -> int:
    from .quantum import maximize_hardy, singlet

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
    from .quantum import SIGMA_QUANTUM_MAX, SIGMA_QUANTUM_MIN, maximize_sigma

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
    from . import montecarlo

    # argument errors surface before any trial is drawn or file written
    q = None if args.quadruple is None else _parse_quadruple(args.quadruple)
    montecarlo.check_alpha(args.alpha)
    b, label = _behavior_from_args(args)
    if args.out_csv is not None:  # what opening it would raise after the draw, raised before it
        if not args.out_csv:  # an empty path names no file
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), args.out_csv)
        # open finds the folder first; a path ending in a separator then
        # names a directory, whether or not it exists
        name = args.out_csv.rstrip(os.sep + (os.altsep or ""))
        try:  # the trailing separator makes a folder that is a file fail as open does
            os.stat(os.path.join(os.path.dirname(name) or ".", ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, args.out_csv) from None
        if name != args.out_csv or os.path.isdir(name):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), args.out_csv)
    log = montecarlo.simulate(b, args.n, seed=args.seed, policy=args.policy, n_shards=args.shards)
    if args.out_csv is not None:
        log.to_csv(args.out_csv)
        _note(f"wrote {len(log)} trials to {args.out_csv}")
    stats = montecarlo.estimate(log)
    doc: dict = {
        "input": label,
        "n": args.n,
        "seed": args.seed,
        "policy": args.policy,
        "alpha": args.alpha,
        "stats": stats.to_json_dict(),
        "signaling": montecarlo.test_signaling(stats, args.alpha).to_json_dict(),
        "inequality": None if q is None else montecarlo.test_inequality(stats, q, args.alpha).to_json_dict(),
    }
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
    """The argument parser; ``command`` names the subcommand, whose ``cmd_*``
    function `main` runs."""
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

    p = sub.add_parser("enumerate", help="list the 64 cell-quadruple inequalities")
    p.add_argument("--family", type=int, choices=range(1, 9), help="restrict to one family")

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

    p = sub.add_parser("quantum-max", help="largest pj with the other three cells zero")
    p.add_argument("--quadruple", default="1:13", help="FAMILY:J, default 1:13")
    p.add_argument("--config", help="optimizer config JSON file")
    p.add_argument(
        "--singlet-only",
        action="store_true",
        help="fix the state to the singlet (optimum collapses to zero)",
    )

    p = sub.add_parser("tsirelson", help="extremal value of a probability sum")
    p.add_argument("--i", type=int, default=1, choices=(1, 2, 3, 4), help="which sum")
    p.add_argument("--minimize", action="store_true", help="minimize instead")
    p.add_argument("--config", help="optimizer config JSON file")

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

    p = sub.add_parser("examples", help="list named boxes or dump one")
    p.add_argument("--dump", choices=available_boxes(), help="print one box as JSON")

    return parser


def _attach_free_value(argv: list[str]) -> list[str]:
    """``--free VALUES`` as ``--free=VALUES``.

    argparse reads a separate token that starts with ``-``, such as
    ``-0.5,0.5,...``, as an option, not as the value of ``--free``.  A bare
    trailing ``--free`` is left for argparse to reject.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--free":
            out[-1] = f"--free={token}"
        else:
            out.append(token)
    return out


#: the parser `main` builds on its first call and reuses; parsing keeps no
#: state in it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_attach_free_value(sys.argv[1:] if argv is None else argv))
    # looked up now, not when the parser was built, so a replaced cmd_* runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SchemaError as exc:
        _note(f"error in {exc.field_name}: {exc}")
        return 2
    except ConvergenceError as exc:
        _note(f"search failed: {exc}")
        return 1
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "scipy":  # imported on the first search
            raise
        _note(f"search failed: {exc}")
        return 1
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the interpreter's
        # final flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        if exc.filename is None:  # not about a file named in the arguments
            raise
        _note(f"cannot open {exc.filename}: {exc.strerror}")
        return 2
    except (KeyError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
