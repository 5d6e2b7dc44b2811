"""Command-line front end.

Subcommands: ``homology``, ``capacity``, ``compare``, ``summands``; every
one accepts ``--json`` for a single machine-readable document with a
stable key order.  Exit codes: 0 success, 1 parse/domain error,
2 unsupported space or capacity; diagnostics go to stderr as one
``reason-code: message`` line.  Argparse usage errors (an unknown
subcommand, a missing argument, a non-integer ``--bound``) exit 2 with
argparse's usage text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import enumerate_direct_summands
from .capacity import (
    DEFAULT_COMPARISON_FLOOR,
    ExtendedCount,
    UnsupportedCapacityError,
    borsuk_report,
    classify,
)
from .grammar import DomainError, ParseError, parse_group, parse_space, render_group, render_space
from .spaces import UnsupportedSpaceError, _dimension, _profile, canonicalize

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcap",
        description="capacity, homology, and dominated-type computations "
        "for wedges of spheres, Moore/Eilenberg-MacLane spaces, CP^n, and products",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common], help="degreewise homology table")
    p.add_argument("space")
    p.add_argument("--bound", type=int, default=None, help="highest degree to compute")

    p = sub.add_parser("capacity", parents=[common], help="capacity of a space")
    p.add_argument("space")
    p.add_argument(
        "--enumerate",
        action="store_true",
        dest="enumerate_types",
        help="also list the dominated homotopy types",
    )

    p = sub.add_parser(
        "compare", parents=[common], help="homology-vs-capacity comparison of two spaces"
    )
    p.add_argument("space_x")
    p.add_argument("space_y")
    p.add_argument("--bound", type=int, default=None, help="degree bound for the comparison")

    p = sub.add_parser(
        "summands", parents=[common], help="direct-summand classes of an abelian group"
    )
    p.add_argument("group")
    return parser


# nothing in the parser depends on argv or the environment, and parse_args
# returns a fresh Namespace, so one parser serves every call
_PARSER = _build_parser()


def _count_json(count: ExtendedCount) -> dict:
    try:
        str(count)  # the text lines print it once the document is built
    except ValueError:  # a value with more digits than str() converts
        raise DomainError("the count has too many digits to print") from None
    return {"kind": count.kind, "value": count.value}


def _bound(args) -> int | None:
    if args.bound is not None and args.bound < 0:
        raise DomainError("--bound must be >= 0")
    return args.bound


def _run_homology(args) -> tuple[dict, list[str]]:
    space = canonicalize(parse_space(args.space))
    bound = _bound(args)
    if bound is None:
        dim = _dimension(space)
        bound = dim if dim is not None else DEFAULT_COMPARISON_FLOOR
    profile = _profile(space, bound)
    doc = {
        "command": "homology",
        "space": render_space(space),
        "bound": bound,
        "groups": {str(n): render_group(g) for n, g in enumerate(profile.groups)},
        "exact_above_bound": profile.exact_above_bound,
    }
    lines = [f"space: {doc['space']}", f"bound: {bound}"]
    lines += [f"H_{n} = {render_group(g)}" for n, g in enumerate(profile.groups)]
    lines.append(
        "exact above bound: yes" if profile.exact_above_bound
        else f"exact above bound: no (verified up to {bound})"
    )
    return doc, lines


def _run_capacity(args) -> tuple[dict, list[str]]:
    rule = classify(parse_space(args.space))
    doc = {
        "command": "capacity",
        "space": render_space(rule.space),
        "capacity": _count_json(rule.count),
    }
    lines = [f"space: {doc['space']}", f"capacity: {rule.count}"]
    if rule.extension:
        note = (
            "value from the degreewise summand-count product, extending the "
            "sphere-wedge rule to Moore coefficients"
        )
        doc["note"] = note
        lines.append(f"note: {note}")
    if args.enumerate_types:
        dominated = rule.dominated()
        doc["dominated"] = [render_space(d) for d in dominated]
        lines.append(f"dominated types ({len(dominated)}):")
        lines += [f"  {render_space(d)}" for d in dominated]
    return doc, lines


def _run_compare(args) -> tuple[dict, list[str]]:
    space_x = parse_space(args.space_x)
    space_y = parse_space(args.space_y)
    report = borsuk_report(space_x, space_y, _bound(args))
    doc = {
        "command": "compare",
        "space_x": render_space(report.space_x),
        "space_y": render_space(report.space_y),
        "compared_up_to": report.compared_up_to,
        "homology_agrees": report.homology_agrees,
        "exact_comparison": report.exact_comparison,
        "capacity_x": _count_json(report.capacity_x),
        "capacity_y": _count_json(report.capacity_y),
        "is_counterexample": report.is_counterexample,
    }
    scope = (
        "all degrees" if report.exact_comparison
        else f"verified up to {report.compared_up_to} only"
    )
    lines = [
        f"space X: {doc['space_x']}",
        f"space Y: {doc['space_y']}",
        f"compared up to degree: {report.compared_up_to} ({scope})",
        f"homology agrees: {'yes' if report.homology_agrees else 'no'}",
        f"capacity X: {report.capacity_x}",
        f"capacity Y: {report.capacity_y}",
        "counterexample (same homology, different capacity): "
        + ("yes" if report.is_counterexample else "no"),
    ]
    return doc, lines


def _run_summands(args) -> tuple[dict, list[str]]:
    group = parse_group(args.group)
    classes = enumerate_direct_summands(group)
    count = len(classes)
    doc = {
        "command": "summands",
        "group": render_group(group),
        "count": count,
        "classes": [render_group(c) for c in classes],
    }
    lines = [f"group: {doc['group']}", f"summand classes ({count}):"]
    lines += [f"  {render_group(c)}" for c in classes]
    return doc, lines


_RUNNERS = {
    "homology": _run_homology,
    "capacity": _run_capacity,
    "compare": _run_compare,
    "summands": _run_summands,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc, lines = _RUNNERS[args.command](args)
    except ParseError as err:
        print(f"parse-error: {err}", file=sys.stderr)
        return 1
    except DomainError as err:
        print(f"domain-error: {err}", file=sys.stderr)
        return 1
    except UnsupportedSpaceError as err:
        print(f"unsupported-space: {err}", file=sys.stderr)
        return 2
    except UnsupportedCapacityError as err:
        print(f"unsupported-capacity: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
