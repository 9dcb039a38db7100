"""Batch command-line surface.

Three subcommands: `check` classifies a poset and verifies the framework
axioms over it, `solve` computes the requested fixpoint semantics for an
encoded instance, `compare` runs two configurations side by side and
reports precision verdicts.  Output is canonical (sorted keys, sorted
sets) so identical inputs, configurations, and seeds produce identical
bytes.

Exit codes: 0 success, 1 check failures, 2 input errors, 3 violated
mathematical preconditions.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .encoders import (
    AelTheory,
    NormalLogicProgram,
    Wadf,
    ael_operator,
    fitting_approximator,
    lp_exact_space,
    lp_operator,
    wadf_operator,
)
from .engine import Approximator, ExactOperator, compute_semantics, ultimate_approximator
from .errors import GenaftError, InputError, PreconditionError, SizeCapError
from .flowers import build_flower_framework
from .framework import check_framework, report_ok, report_to_json
from .intervals import build_interval_framework
from .posets import MAX_ELEMENTS, FinitePoset

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

ALL_SEMANTICS = ("kk", "wf", "supported", "stable")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.entry(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except GenaftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="genaft",
        description="Fixpoint semantics of non-monotone operators over finite orders",
    )
    sub = parser.add_subparsers(required=True)

    check = sub.add_parser("check", help="classify a poset and verify framework axioms")
    check.add_argument("input", help="poset or instance JSON file")
    check.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    _common_flags(check)
    check.set_defaults(entry=cmd_check)

    solve = sub.add_parser("solve", help="compute fixpoint semantics of an instance")
    solve.add_argument("input", help="instance JSON file (program, theory, or wADF)")
    solve.add_argument("--space", choices=("interval", "flower"), default="interval")
    solve.add_argument("--approximator", choices=("ultimate", "fitting"), default="ultimate")
    solve.add_argument(
        "--semantics",
        default="kk,wf,supported,stable",
        help="comma-separated subset of kk,wf,supported,stable",
    )
    _common_flags(solve)
    solve.set_defaults(entry=cmd_solve)

    compare = sub.add_parser("compare", help="run two configurations side by side")
    compare.add_argument("input")
    compare.add_argument("--space-a", choices=("interval", "flower"), default="interval")
    compare.add_argument("--approximator-a", choices=("ultimate", "fitting"), default="fitting")
    compare.add_argument("--space-b", choices=("interval", "flower"), default="interval")
    compare.add_argument("--approximator-b", choices=("ultimate", "fitting"), default="ultimate")
    compare.add_argument(
        "--semantics", default="kk,wf,supported,stable", help="semantics to compare"
    )
    _common_flags(compare)
    compare.set_defaults(entry=cmd_compare)
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _detect_kind(data: dict) -> str:
    if "rules" in data:
        return "lp"
    if "sentences" in data:
        return "ael"
    if "acceptance" in data:
        return "wadf"
    if "elements" in data:
        return "poset"
    raise InputError("unrecognised input: expected rules, sentences, acceptance, or elements")


def _operator(data: dict, kind: str) -> tuple[object, ExactOperator]:
    """The parsed instance and its exact operator."""
    if kind == "lp":
        program = NormalLogicProgram.from_json(data)
        return program, lp_operator(program, lp_exact_space(program))
    if kind == "ael":
        theory = AelTheory.from_json(data)
        return theory, ael_operator(theory)
    if kind == "wadf":
        wadf = Wadf.from_json(data)
        return wadf, wadf_operator(wadf)
    raise InputError(f"cannot solve a plain {kind} input")


def _framework(exact: FinitePoset, space: str):
    if space == "interval":
        try:
            return build_interval_framework(exact)
        except PreconditionError as exc:
            raise PreconditionError(f"{exc}; use --space flower") from exc
    return build_flower_framework(exact)


def _approximator(instance, space: str, which: str, fw, op) -> Approximator:
    if which == "ultimate":
        return ultimate_approximator(fw, op)
    if not isinstance(instance, NormalLogicProgram) or space != "interval":
        raise PreconditionError(
            "the fitting approximator is defined for logic programs on the interval space"
        )
    return fitting_approximator(instance, fw)


def cmd_check(args) -> int:
    data = _load(args.input)
    kind = _detect_kind(data)
    exact = FinitePoset.from_json(data) if kind == "poset" else _operator(data, kind)[1].domain
    # check's stated budgets reach MAX_ELEMENTS, which only powersets get past.
    if len(exact) > MAX_ELEMENTS:
        raise SizeCapError(f"powerset would have {len(exact)} elements, cap is {MAX_ELEMENTS}")
    cls = exact.classify()
    rng = random.Random(args.seed)
    reports = {}
    if cls.is_bounded_complete:
        reports["flower"] = check_framework(build_flower_framework(exact), rng=rng)
    if cls.is_complete_lattice:
        reports["interval"] = check_framework(build_interval_framework(exact), rng=rng)

    payload = {
        "classification": {
            "has_least": cls.has_least,
            "is_cpo": cls.is_cpo,
            "is_bounded_complete": cls.is_bounded_complete,
            "is_complete_lattice": cls.is_complete_lattice,
        },
        "checks": {space: report_to_json(rep) for space, rep in reports.items()},
    }
    ok = all(report_ok(rep) for rep in reports.values())
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"elements: {len(exact)}")
        print("classification: " + _describe(cls))
        for space in sorted(reports):
            rep = reports[space]
            verdict = "pass" if report_ok(rep) else "FAIL"
            print(f"{space} framework axioms: {verdict} ({len(rep)} checks)")
            for r in rep:
                if not r.ok:
                    print(f"  {r.axiom}: {json.dumps(r.counterexample, sort_keys=True)}")
        if not reports:
            print("no framework applies: the poset is not a bounded-complete cpo")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _describe(cls) -> str:
    if cls.is_complete_lattice:
        return "complete lattice"
    if cls.is_bounded_complete:
        return "bounded-complete cpo"
    if cls.is_cpo:
        return "cpo"
    return "poset without a least element"


def _parse_semantics(raw: str) -> tuple[str, ...]:
    parts = tuple(s.strip() for s in raw.split(",") if s.strip())
    bad = [s for s in parts if s not in ALL_SEMANTICS]
    if bad:
        raise InputError(f"unknown semantics: {', '.join(bad)}")
    return tuple(dict.fromkeys(parts)) or ALL_SEMANTICS  # each name once, first occurrence first


def _show(fw, key: str, value) -> str:
    """One semantics value as text: an approximant for kk and wf, the
    list of exact elements for supported and stable."""
    return fw.format_approximant(value) if key in ("kk", "wf") else f"[{', '.join(value)}]"


def cmd_solve(args) -> int:
    data = _load(args.input)
    kind = _detect_kind(data)
    parts = _parse_semantics(args.semantics)
    instance, op = _operator(data, kind)
    fw = _framework(op.domain, args.space)
    a = _approximator(instance, args.space, args.approximator, fw, op)
    result = compute_semantics(a, parts)
    payload = {
        "space": args.space,
        "approximator": args.approximator,
        "semantics": result.to_json(fw),
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key in parts:
            value = getattr(result, key)
            exact = fw.exact_value(value) if key in ("kk", "wf") else None
            tail = f"  (exact: {exact})" if exact is not None else ""
            print(f"{key}: {_show(fw, key, value)}{tail}")
    return EXIT_OK


def cmd_compare(args) -> int:
    data = _load(args.input)
    kind = _detect_kind(data)
    parts = _parse_semantics(args.semantics)
    instance, op = _operator(data, kind)
    fws = {}  # one framework per space serves both sides

    def run(space: str, which: str):
        if space not in fws:
            fws[space] = _framework(op.domain, space)
        fw = fws[space]
        a = _approximator(instance, space, which, fw, op)
        return fw, compute_semantics(a, parts)

    fw_a, res_a = run(args.space_a, args.approximator_a)
    fw_b, res_b = run(args.space_b, args.approximator_b)

    # KK and WF are compared in the finer of the two spaces, which a
    # result meets as the closure of its members.
    fine = fw_b if args.space_b == "flower" else fw_a
    verdicts: dict[str, object] = {}
    for key in ("kk", "wf"):
        if key in parts:
            xa = fine.closure(fw_a.members_mask(getattr(res_a, key)))
            xb = fine.closure(fw_b.members_mask(getattr(res_b, key)))
            below = fine.leq_p(xa, xb)
            verdicts[f"{key}_a_leq_b"] = below
            verdicts[f"{key}_equal"] = bool(below and fine.leq_p(xb, xa))
    for key in ("supported", "stable"):
        if key in parts:
            sa, sb = set(getattr(res_a, key)), set(getattr(res_b, key))
            verdicts[f"{key}_a_subset_b"] = sa <= sb
            verdicts[f"{key}_equal"] = sa == sb

    payload = {
        "a": {"space": args.space_a, "approximator": args.approximator_a,
              "semantics": res_a.to_json(fw_a)},
        "b": {"space": args.space_b, "approximator": args.approximator_b,
              "semantics": res_b.to_json(fw_b)},
        "verdicts": verdicts,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key in parts:
            show_a = _show(fw_a, key, getattr(res_a, key))
            show_b = _show(fw_b, key, getattr(res_b, key))
            print(f"{key}: a={show_a}  b={show_b}")
        for name in sorted(verdicts):
            print(f"{name}: {str(verdicts[name]).lower()}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
