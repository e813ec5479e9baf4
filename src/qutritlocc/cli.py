"""Command-line front end.

Exit codes: 0 on success, 2 on a mathematical negative (non-generic seed,
inequivalent states, infeasible conversion, failed verification), 1 on
input errors (bad files, bad flags, and any input the library rejects with
a ``ValueError``, such as an all-zero seed or states of different seeds),
reported on one ``error:`` line.  A seed read from a file is held in
canonical gauge, so a rescaled copy of a seed is that seed, not an error.
``--json`` switches every report to machine-readable output;
file-producing commands write JSON regardless.
Each subcommand returns its report and ``main`` alone prints it, so
``--json`` output is always exactly one JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from .classify import classify
from .generate import KINDS, random_state
from .oracle import brute_force_sep
from .pauli import ZERO_TOL
from .protocols import (
    POVM_TOL,
    ProtocolError,
    locc_reach_protocol,
    sep_map_from_witness,
    simulate_branches,
    validate_povm,
)
from .seeds import GenericityReport, SeedParams, symmetry_audit
from .sep import sep_feasible, sep_instance
from .statefile import (
    _num,
    load_protocol,
    load_state,
    protocol_to_json,
    read_json,
    save_protocol,
    save_state,
    seed_from_json,
    seed_to_json,
    state_to_json,
)
from .states import lu_equivalent, standard_form

#: Largest gap between 1 and a verified protocol's total branch probability.
PROBABILITY_SUM_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    """argparse's default exit code for usage errors collides with the
    mathematical-negative code; remap it to 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: What a subcommand returns for ``main`` to print: the ``--json`` payload
#: (``None`` for a refusal, which leaves stdout empty and explains itself
#: on stderr), the text lines, and the exit code.
_Report = tuple[Any, list[str], int]


def _load_seed_file(path: str) -> SeedParams:
    """Accept either a full state file or a bare seed object."""
    obj = read_json(path)
    if isinstance(obj, dict) and "seed" in obj:
        return seed_from_json(obj["seed"], "$.seed")
    return seed_from_json(obj, "$")


def _document(doc: dict[str, Any]) -> _Report:
    """A file document, printed as JSON with or without ``--json``."""
    return doc, [json.dumps(doc, indent=2)], 0


def _cmd_files(args: argparse.Namespace) -> _Report:
    """``args.report`` on each of ``args.files``: one record for one file, a
    list for several; exit 2 unless every file passed."""
    records, texts, codes = zip(*(args.report(path, args) for path in args.files))
    payload = list(records) if len(records) > 1 else records[0]
    return payload, [line for text in texts for line in text], 2 if any(codes) else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> _Report:
    rng = np.random.default_rng(args.rng_seed)
    params = _load_seed_file(args.params_from) if args.params_from else None
    state = random_state(args.kind, rng, params)
    metadata: dict[str, Any] = {"kind": args.kind}
    if args.label:
        metadata["label"] = args.label
    if not args.out:
        return _document(state_to_json(state, metadata))
    save_state(args.out, state, metadata)
    return (
        {"written": args.out, "kind": args.kind, "seed": seed_to_json(state.seed)},
        [f"wrote {args.kind} state to {args.out}"],
        0,
    )


def _genericity(path: str, report: GenericityReport) -> _Report:
    """One file's genericity verdict; exit 2 for a non-generic seed."""
    record = {
        "file": path,
        "generic": report.generic,
        "margin": report.margin,
        "violations": [name for name, _ in report.violations],
    }
    verdict = "generic" if report.generic else "NOT generic"
    lines = [f"{path}: {verdict} (margin {report.margin:.3e})"]
    for name, value in report.violations:
        lines.append(f"  violated: {name} (normalized magnitude {value:.3e})")
    return record, lines, 0 if report.generic else 2


def _check_generic_file(path: str, args: argparse.Namespace) -> _Report:
    return _genericity(path, _load_seed_file(path).genericity)


def _standard_form_file(path: str, args: argparse.Namespace) -> _Report:
    form = standard_form(load_state(path))
    record = {
        "file": path,
        "seed": seed_to_json(form.seed),
        "gauge": list(form.gauge),
        "coords": [[_num(z) for z in row] for row in form.coords],
    }
    lines = [f"{path}: gauge {form.gauge}"]
    for i, row in enumerate(form.coords):
        rendered = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
        lines.append(f"  party {i}: {rendered}")
    return record, lines, 0


def _cmd_lu_equiv(args: argparse.Namespace) -> _Report:
    verdict = lu_equivalent(load_state(args.first), load_state(args.second))
    lines = ["locally equivalent" if verdict else "not locally equivalent"]
    return {"equivalent": verdict}, lines, 0 if verdict else 2


def _classify_file(path: str, args: argparse.Namespace) -> _Report:
    cls = classify(load_state(path), args.tolerance)
    case = cls.sep_cases[0] if cls.sep_cases else None
    record = {
        "file": path,
        "sep_reachable": cls.sep_reachable,
        "case": case.kind if case else None,
        "permutation": list(case.parties) if case else None,
        "pair": list(case.pair) if case and case.pair else None,
        "locc_reachable": cls.locc_reachable,
        "sep_only": cls.sep_only,
        "locc_convertible": cls.locc_convertible,
        "support_tiling": cls.support_tiling,
        "in_mes": cls.in_mes,
        "isolated": cls.isolated,
        "supports": [sorted(list(p) for p in s) for s in cls.pattern.pairs],
        "warnings": list(cls.warnings),
    }
    # the text flags are the record's true verdicts, in the record's order
    flags = [name for name, value in record.items() if value is True]
    lines = [f"{path}: {', '.join(flags) if flags else '(no flags)'}"]
    lines += [f"  warning: {w}" for w in cls.warnings]
    return record, lines, 0


def _cmd_sep_decide(args: argparse.Namespace) -> _Report:
    inst = sep_instance(load_state(args.src), load_state(args.to))
    result = sep_feasible(inst, args.tolerance)
    payload: dict[str, Any] = {
        "feasible": result.feasible,
        "unique": result.unique,
        "nontrivial": result.nontrivial,
        "witness": list(result.witness) if result.witness is not None else None,
        "vertices": len(result.vertices),
        "residual": result.residual,
        "reason": result.reason,
    }
    lines = [
        "feasible" if result.feasible else f"infeasible ({result.reason})",
        f"  residual: {result.residual:.3e}",
    ]
    if result.feasible:
        lines.append(
            f"  vertices: {len(result.vertices)}"
            + (" (unique)" if result.unique else "")
            + (", nontrivial" if result.nontrivial else ", trivial only")
        )
    if args.oracle:
        verdict = brute_force_sep(inst)
        payload["oracle"] = {
            "feasible": verdict.feasible,
            "best_residual": verdict.best_residual,
            "lower_bound": verdict.lower_bound,
        }
        lines.append(
            f"  oracle: {verdict.feasible} (best residual {verdict.best_residual:.3e}, "
            f"lower bound {verdict.lower_bound:.3e})"
        )
        if verdict.feasible is not None and verdict.feasible != result.feasible:
            oracle, engine = ("in", "") if result.feasible else ("", "in")
            print(
                "error: oracle disagrees with the decision engine: the oracle, deciding "
                f"the instance as given, finds it {oracle}feasible; the engine, deciding "
                f"it at --tolerance {args.tolerance:g}, finds it {engine}feasible",
                file=sys.stderr,
            )
            return payload, lines, 1
    return payload, lines, 0 if result.feasible else 2


def _not_synthesized(reason: str) -> _Report:
    print(f"not synthesized: {reason}", file=sys.stderr)
    return None, [], 2


def _cmd_synth_protocol(args: argparse.Namespace) -> _Report:
    target = load_state(args.target)
    if args.source is None:
        try:
            obj = locc_reach_protocol(target, args.tolerance)
        except ValueError as exc:
            return _not_synthesized(str(exc))
    else:
        source = load_state(args.source)
        result = sep_feasible(sep_instance(source, target), args.tolerance)
        if not result.feasible:
            return _not_synthesized(f"conversion is separably infeasible ({result.reason})")
        try:
            obj = sep_map_from_witness(source, target, result.witness)
        except ProtocolError as exc:
            return _not_synthesized(
                f"the witness accepted at --tolerance {args.tolerance:g} gives no "
                f"separable map ({exc})"
            )
    if not args.out:
        return _document(protocol_to_json(obj))
    save_protocol(args.out, obj)
    return (
        {"written": args.out, "construction": obj.construction},
        [f"wrote {obj.construction} protocol to {args.out}"],
        0,
    )


def _cmd_verify_protocol(args: argparse.Namespace) -> _Report:
    obj = load_protocol(args.file)
    residual = validate_povm(obj)
    report = simulate_branches(obj)
    ok = (
        residual <= POVM_TOL
        and report.all_matched
        and abs(report.probability_sum - 1.0) <= PROBABILITY_SUM_TOL
    )
    payload = {
        "construction": obj.construction,
        "povm_residual": residual,
        "probability_sum": report.probability_sum,
        "max_branch_residual": report.max_residual,
        "all_matched": report.all_matched,
        "ok": ok,
        "branches": [
            {
                "labels": [list(l) for l in b.labels],
                "probability": b.probability,
                "residual": b.residual,
                "vacuous": b.vacuous,
                "matched": b.matched,
            }
            for b in report.branches
        ],
    }
    lines = [
        f"{args.file}: {'ok' if ok else 'FAILED'}",
        f"  completeness residual: {residual:.3e}",
        f"  probability sum: {report.probability_sum:.12f}",
        f"  worst branch residual: {report.max_residual:.3e}",
        f"  branches: {len(report.branches)}",
    ]
    return payload, lines, 0 if ok else 2


def _cmd_symmetry_audit(args: argparse.Namespace) -> _Report:
    seed = _load_seed_file(args.file)
    if not seed.genericity.generic:
        return _genericity(args.file, seed.genericity)
    report = symmetry_audit(seed)
    payload = {
        "seed": seed_to_json(seed),
        "generic": report.genericity.generic,
        "candidates": report.n_candidates,
        "stabilizer_sizes": list(report.stabilizer_sizes),
        "pairs_screened": report.n_pairs,
        "survivors": [
            {
                "pauli": list(r.pauli) if r.pauli else None,
                "b": r.b_label,
                "c": r.c_label,
                "projection_residual": r.projection_residual,
                "full_residual": r.full_residual,
            }
            for r in report.survivors
        ],
        "surplus": len(report.surplus),
        "max_full_residual": report.max_full_residual,
        "clean": report.clean,
    }
    lines = [
        f"{args.file}: {'clean' if report.clean else 'NOT clean'} "
        f"({len(report.survivors)} survivors, {len(report.surplus)} surplus)",
        f"  worst survivor residual: {report.max_full_residual:.3e}",
    ]
    lines += [f"  survivor {r.pauli}: residual {r.full_residual:.3e}" for r in report.survivors]
    return payload, lines, 0 if report.clean else 2


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    """Global flags, usable before or after the subcommand.

    Every caller gets a fresh parent parser: ``set_defaults`` on the main
    parser rewrites the defaults of its own copies of these actions, and
    sharing one parent would leak that onto the subparsers, whose re-applied
    defaults then clobber values parsed before the subcommand.  Suppressed
    defaults keep the subparsers from touching what they did not parse.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=float,
        default=argparse.SUPPRESS,
        help=(
            "Gram coordinate cut of classify, sep-decide and synth-protocol "
            f"(default ZERO_TOL = {ZERO_TOL:g}); the SEP residual bound, input "
            "checks and protocol constructions do not move with it"
        ),
    )
    common.add_argument(
        "--rng-seed",
        type=int,
        default=argparse.SUPPRESS,
        help="seed for random generation",
    )
    common.add_argument(
        "--oracle",
        action="store_true",
        default=argparse.SUPPRESS,
        help="cross-check sep-decide with the certified brute-force oracle",
    )
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    return common


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qutritlocc",
        description=(
            "Decide and synthesize separable and local transformations of "
            "generic three-qutrit states."
        ),
        parents=[_common_flags()],
    )
    parser.set_defaults(tolerance=ZERO_TOL, rng_seed=0, oracle=False, json=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str):
        return sub.add_parser(name, help=help, parents=[_common_flags()])

    p = add_parser("generate", help="draw a random state of a given kind")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--out", help="output state file (default: stdout)")
    p.add_argument("--params-from", help="reuse the seed of an existing file")
    p.add_argument("--label", help="free-form label stored in metadata")
    p.set_defaults(func=_cmd_generate)

    p = add_parser("check-generic", help="test seeds against the exclusion list")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_files, report=_check_generic_file)

    p = add_parser("standard-form", help="gauge-fixed coordinates of states")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_files, report=_standard_form_file)

    p = add_parser("lu-equiv", help="decide local unitary equivalence")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_lu_equiv)

    p = add_parser("classify", help="structural classification of states")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_files, report=_classify_file)

    p = add_parser("sep-decide", help="decide separable convertibility")
    p.add_argument("--from", dest="src", required=True, help="source state file")
    p.add_argument("--to", required=True, help="target state file")
    p.set_defaults(func=_cmd_sep_decide)

    p = add_parser("synth-protocol", help="construct an explicit protocol")
    p.add_argument("--target", required=True, help="target state file")
    p.add_argument("--source", help="source state file (default: synthesize from scratch)")
    p.add_argument("--out", help="output protocol file (default: stdout)")
    p.set_defaults(func=_cmd_synth_protocol)

    p = add_parser("verify-protocol", help="simulate and check a protocol file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify_protocol)

    p = add_parser("symmetry-audit", help="exhaustive symmetry search on a seed")
    p.add_argument("file")
    p.set_defaults(func=_cmd_symmetry_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        print("error: --tolerance must be a finite positive number", file=sys.stderr)
        return 1
    try:
        payload, lines, code = args.func(args)
    except (ValueError, FileNotFoundError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ProtocolError) else 1
    if payload is not None:
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
