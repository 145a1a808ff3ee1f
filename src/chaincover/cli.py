"""Command-line surface.

Subcommands: check (property and layer report for one instance), verify
(theorem verdicts on one instance or an exhaustive sweep), search (witness
search), spec (prime spectrum of a ring expression), export-dot (Graphviz
diagram). Reports go to stdout as canonical JSON, or as compact text with
--text. Exit codes: 0 all verdicts hold or search completed, 1 violation
or witness found, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .document import (
    DocumentSemanticError,
    DocumentSyntaxError,
    build_check_report,
    build_search_report,
    build_spec_report,
    build_verify_report,
    export_dot,
    parse_instance,
    parse_ring_expr,
    render_check_text,
    render_search_text,
    render_spec_text,
    render_verify_text,
    serialize_report,
)
from .poset import BoundExceeded
from .rings import spec as ring_spec
from .search import GOALS, WitnessSearchSpec, search_witness
from .theorems import (
    CORE_THEOREMS,
    TheoremId,
    estimate_sweep_cost,
    exhaustive_verify,
    verify,
)

#: sweeps whose analytic map-count upper bound exceeds this need
#: --unsafe-bounds; it keeps a mistyped bound from running for hours
SAFE_MAP_BOUND = 100_000_000


def _default_jobs() -> int:
    raw = os.environ.get("CHAINCOVER_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"CHAINCOVER_JOBS must be an integer, got {raw!r}")
    if jobs < 1:
        raise ValueError(f"CHAINCOVER_JOBS must be at least 1, got {jobs}")
    return jobs


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_theorem_list(text: str) -> list[TheoremId]:
    if text == "core":
        return list(CORE_THEOREMS)
    if text == "all":
        return list(TheoremId)
    out = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            out.append(TheoremId[name])
        except KeyError:
            known = ", ".join(t.name for t in TheoremId)
            raise ValueError(f"unknown theorem {name!r}; known: core, all, {known}")
    if not out:
        raise ValueError("no theorems selected")
    return out


def cmd_check(args) -> int:
    doc = parse_instance(_read_text(args.instance))
    report = build_check_report(doc, max_layer=args.max_layer)
    sys.stdout.write(
        render_check_text(report) if args.text else serialize_report(report)
    )
    return 0


def cmd_verify(args) -> int:
    theorems = _parse_theorem_list(args.theorems)
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if args.exhaustive:
        if args.instance is not None:
            raise ValueError("verify takes an instance document or --exhaustive, not both")
        estimate = estimate_sweep_cost(args.max_s, args.max_r, args.allow_top)
        if estimate["map_upper_bound"] > SAFE_MAP_BOUND and not args.unsafe_bounds:
            raise ValueError(
                f"sweep upper bound {estimate['map_upper_bound']} maps over "
                f"{estimate['poset_pairs']} poset pairs exceeds "
                f"{SAFE_MAP_BOUND}; pass --unsafe-bounds to run anyway"
            )
        verdicts = [
            exhaustive_verify(
                t,
                args.max_s,
                args.max_r,
                allow_top=args.allow_top,
                waive_hypotheses=args.debug_waive_hypotheses,
                jobs=jobs,
            )
            for t in theorems
        ]
        report = build_verify_report(
            None,
            verdicts,
            bounds={
                "max_s": args.max_s,
                "max_r": args.max_r,
                "allow_top": args.allow_top,
            },
        )
    else:
        if args.instance is None:
            raise ValueError("verify needs an instance document or --exhaustive")
        doc = parse_instance(_read_text(args.instance))
        verdicts = [
            verify(doc.smap, t, waive_hypotheses=args.debug_waive_hypotheses)
            for t in theorems
        ]
        report = build_verify_report(doc, verdicts)
    sys.stdout.write(
        render_verify_text(report) if args.text else serialize_report(report)
    )
    return 0 if report["all_hold"] else 1


def cmd_search(args) -> int:
    required = frozenset(
        flag.strip() for flag in args.require.split(",") if flag.strip()
    )
    spec = WitnessSearchSpec(
        required=required,
        goal=args.goal,
        max_s=args.max_s,
        max_r=args.max_r,
        d_size=args.d_size,
        seed=args.seed,
    )
    if spec.d_size is not None and spec.d_size > spec.max_s:
        # no s poset has such a chain, so "found": false would only say that
        raise ValueError(f"--d-size {spec.d_size} exceeds --max-s {spec.max_s}")
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    witness = search_witness(spec, jobs=jobs)
    report = build_search_report(spec, witness)
    sys.stdout.write(
        render_search_text(report) if args.text else serialize_report(report)
    )
    return 1 if witness is not None else 0


def cmd_spec(args) -> int:
    ring = parse_ring_expr(args.ring)
    poset = ring_spec(ring)
    report = build_spec_report(ring, poset)
    sys.stdout.write(
        render_spec_text(report) if args.text else serialize_report(report)
    )
    return 0


def cmd_export_dot(args) -> int:
    doc = parse_instance(_read_text(args.instance))
    sys.stdout.write(export_dot(doc))
    return 0


def _add_text_flag(p):
    p.add_argument(
        "--text", action="store_true", help="render a compact text report"
    )


def _add_jobs_flag(p):
    def jobs(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"jobs must be at least 1, got {value}")
        return value

    p.add_argument(
        "--jobs",
        type=jobs,
        default=None,
        help="worker processes (default: CHAINCOVER_JOBS or 1)",
    )


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Parsing leaves the parser as it was, so every `main` call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="chaincover",
        description="Finite-model verification of chain covering properties "
        "for spectral maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="property and layer report for an instance")
    p.add_argument("instance", help="instance document path, or - for stdin")
    p.add_argument(
        "--max-layer",
        type=int,
        default=None,
        help="check layer-n for n up to this (default: height of s)",
    )
    _add_text_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run theorem verifiers")
    p.add_argument(
        "instance",
        nargs="?",
        default=None,
        help="instance document path, or - for stdin",
    )
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="sweep every instance within --max-s/--max-r instead",
    )
    p.add_argument("--max-s", type=int, default=3, help="largest s poset (default 3)")
    p.add_argument("--max-r", type=int, default=4, help="largest r poset (default 4)")
    p.add_argument(
        "--allow-top",
        dest="allow_top",
        action="store_true",
        default=True,
        help="include maps that send elements to TOP (default)",
    )
    p.add_argument(
        "--no-top",
        dest="allow_top",
        action="store_false",
        help="restrict sweeps to TOP-free maps",
    )
    p.add_argument(
        "--theorems",
        default="core",
        help="comma list of theorem ids, or core (default) or all",
    )
    p.add_argument(
        "--debug-waive-hypotheses",
        action="store_true",
        help="evaluate conclusions even where hypotheses fail",
    )
    p.add_argument(
        "--unsafe-bounds",
        action="store_true",
        help="run sweeps past the built-in cost gate",
    )
    _add_jobs_flag(p)
    _add_text_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search for a witness instance")
    p.add_argument(
        "--require",
        default="",
        help="comma list of property flags the witness must satisfy; prefix "
        "with ! to require failure (e.g. GU,GD,!SGB,UNITARY)",
    )
    p.add_argument(
        "--goal",
        required=True,
        choices=sorted(GOALS),
        help="what the witness must exhibit",
    )
    p.add_argument("--max-s", type=int, default=3, help="largest s poset (default 3)")
    p.add_argument("--max-r", type=int, default=4, help="largest r poset (default 4)")
    p.add_argument(
        "--d-size",
        type=int,
        default=None,
        help="restrict chain goals to D of exactly this size",
    )
    p.add_argument("--seed", type=int, default=0, help="echoed into the report")
    _add_jobs_flag(p)
    _add_text_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("spec", help="prime spectrum of a ring expression")
    p.add_argument("ring", help="ring expression, e.g. Zn(12) or Product(Zn(2),Zn(3))")
    _add_text_flag(p)
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("export-dot", help="Graphviz diagram for an instance")
    p.add_argument("instance", help="instance document path, or - for stdin")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        DocumentSyntaxError,
        DocumentSemanticError,
        BoundExceeded,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
