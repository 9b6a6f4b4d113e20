"""Command-line frontend: construct hosts, count cliques, transform graphs,
and run verification suites with machine-readable reports.

Exit codes: 0 = success / all checks pass, 1 = some verification failed,
2 = usage or input error.  Progress goes to stderr; stdout stays clean for
graph6 records and reports.
"""

from __future__ import annotations

import argparse
import sys

from .constructions import VARIANTS, ConstructionParams, build_host
from .cliques import count_cliques
from .forests import DEFAULT_BUDGET, BudgetExceeded
from .graphcore import Graph6Error, read_graph6_lines, to_graph6
from .transforms import core, k_closure
from .verify.enumerate import ENUMERATION_CEILING
from .verify.reports import reports_csv, reports_json
from .verify.suite import matching_stability_suite, stability_suite
from .verify.theorems import MATCHING, ORACLE_THEOREMS, check_input_graph, family_report

THEOREMS = [f"theorem{i}" for i in range(1, 8)]

# construction-side suites: theorem -> (suite, default k)
SUITES = {"theorem4": (stability_suite, 7), "theorem7": (matching_stability_suite, 3)}


def _read_graphs(path: str):
    # bytes.splitlines breaks only at \n, \r and \r\n, so line numbers are
    # physical ones; a byte that is not ASCII is left for the parser to reject
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    lines = [line.decode("ascii", errors="replace") for line in data.splitlines()]
    graphs = read_graph6_lines(lines)
    if not graphs:
        raise ValueError("no graph6 records in input")
    return graphs


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_construct(args) -> int:
    p = ConstructionParams(args.n, args.k, args.a, args.variant)
    _write_text(to_graph6(build_host(p)) + "\n", args.out)
    return 0


def _cmd_count(args) -> int:
    graphs = _read_graphs(args.input)
    lines = [f"{count_cliques(g, args.r)}\n" for g in graphs]
    _write_text("".join(lines), args.out)
    return 0


def _cmd_transform(args) -> int:
    graphs = _read_graphs(args.input)
    out_lines = []
    for g in graphs:
        if args.op == "closure":
            if args.k is None:
                raise ValueError("closure needs --k")
            out_lines.append(to_graph6(k_closure(g, args.k)) + "\n")
        else:
            if args.a is None:
                raise ValueError("core needs --a (the disintegration degree)")
            h, _removed = core(g, args.a)
            out_lines.append(to_graph6(h) + "\n")
    _write_text("".join(out_lines), args.out)
    return 0


def _check_flags(args) -> None:
    """Refuse flags the theorem does not take, rather than ignore them."""
    theorem = args.theorem
    if args.input is not None and theorem not in ORACLE_THEOREMS:
        raise ValueError(f"input-graph mode does not support {theorem}")
    # only the L_k-freeness searches read a budget
    if args.budget is not None and theorem != "theorem4" and (
            args.input is None or ORACLE_THEOREMS[theorem][0] is MATCHING):
        raise ValueError("--budget applies only to theorem4 and --in on theorems 1-3")
    if args.budget is not None and args.budget <= 0:
        raise ValueError("--budget must be positive")
    if args.dedup and (args.input is not None or theorem not in ORACLE_THEOREMS):
        raise ValueError("--dedup applies only to the exhaustive oracles")
    if args.n is not None and args.input is not None:
        raise ValueError("--n does not apply with --in (each graph has its own n)")
    if theorem not in ORACLE_THEOREMS:
        return
    if args.samples is not None or args.seed is not None:
        raise ValueError("--samples and --seed apply only to theorems 4 and 7")
    if args.n is not None and args.n > ENUMERATION_CEILING:
        raise ValueError(f"enumeration ceiling is n = {ENUMERATION_CEILING}")
    _, _, any_r, with_d, _, _ = ORACLE_THEOREMS[theorem]
    if args.r is not None and not any_r:
        raise ValueError(f"{theorem} counts edges and takes no --r")
    if args.r == 2 and not with_d:  # theorem2: its oracle rows would be theorem1's
        raise ValueError(f"{theorem} takes no --r 2 (r = 2 is the edge-count theorem)")
    if args.d is not None and not with_d:
        raise ValueError(f"{theorem} takes no --d")


def _verify_rows(args) -> list:
    theorem = args.theorem
    _check_flags(args)
    rows = []
    if args.input is not None:
        if args.k is None:
            raise ValueError("input-graph mode needs --k")
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        r = args.r if args.r is not None else ORACLE_THEOREMS[theorem][4]
        for g in _read_graphs(args.input):
            rows.append(check_input_graph(g, theorem, args.k, r, args.d, budget=budget))
        return rows

    if theorem in ORACLE_THEOREMS:
        family, _, _, with_d, r_default, n_default = ORACLE_THEOREMS[theorem]
        r = args.r if args.r is not None else r_default
        n_max = args.n if args.n is not None else n_default
        if family is MATCHING:  # k-major, and --k is the largest k
            ks = range(1, (args.k if args.k is not None else 2) + 1)
        else:  # n-major, and --k fixes k
            ks = [args.k] if args.k is not None else range(1 + with_d, n_max)
        # keep the k whose d range holds d, unless --k fixes the one k
        if args.d is not None and (args.k is None or family is MATCHING):
            ks = [k for k in ks if args.d <= family.max_d(k)]
        # each k's range starts at the oracle's least n, where family.check
        # passes: n >= k + 1, and n >= K, or K + 1 with a min degree
        n_min = 3 if with_d else max(3, r)
        checks = [
            (n, k, d) for k in ks
            for n in range(max(n_min, k + 1, family.forest_k(k) + with_d), n_max + 1)
            for d in (range(family.max_d(k) + 1) if with_d and args.d is None
                      else [args.d])
        ]
        if family is not MATCHING:
            checks.sort(key=lambda check: check[:2])
        if not checks:
            given = "".join(f" --{flag} {getattr(args, flag)}" for flag in "nkrd"
                            if getattr(args, flag) is not None)
            raise ValueError(f"verify {theorem}{given}: no check in range")
        for n, k, d in checks:
            at = f"n={n} k={k} r={r}" + ("" if d is None else f" d={d}")
            print(f"verify {theorem}: {at}", file=sys.stderr)
            rows.append(family_report(family, n, r, k, d, dedup=args.dedup))
    else:
        suite, default_k = SUITES[theorem]
        k = args.k if args.k is not None else default_k
        n = args.n if args.n is not None else 24
        r_values = [args.r] if args.r is not None else None
        print(f"verify {theorem} construction-side: k={k} n={n}", file=sys.stderr)
        given = {flag: getattr(args, flag) for flag in ("samples", "seed", "budget")
                 if getattr(args, flag) is not None}  # else the suite's defaults
        rows.extend(suite(k, n, r_values=r_values, d=args.d, **given))
    return rows


def _cmd_verify(args) -> int:
    rows = _verify_rows(args)
    text = reports_csv(rows) if args.format == "csv" else reports_json(rows)
    _write_text(text, args.out)
    failed = sum(1 for row in rows if row.verdict != "pass")
    print(f"verify: {len(rows)} checks, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfor",
        description="extremal linear-forest computations and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="emit a host graph as graph6")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--a", type=int, required=True)
    pc.add_argument("--variant", choices=VARIANTS, default="plain")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=_cmd_construct)

    pn = sub.add_parser("count", help="count r-cliques of graph6 input")
    pn.add_argument("--in", dest="input", required=True,
                    help="graph6 file, or - for stdin")
    pn.add_argument("--r", type=int, required=True)
    pn.add_argument("--out", default=None)
    pn.set_defaults(func=_cmd_count)

    pt = sub.add_parser("transform", help="closure/core transforms on graph6 input")
    pt.add_argument("op", choices=["closure", "core"])
    pt.add_argument("--in", dest="input", required=True)
    pt.add_argument("--k", type=int, default=None, help="closure degree-sum bound")
    pt.add_argument("--a", type=int, default=None,
                    help="core removes vertices of degree <= a")
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=_cmd_transform)

    pv = sub.add_parser("verify", help="run a theorem verification suite")
    pv.add_argument("theorem", choices=THEOREMS)
    pv.add_argument("--n", type=int, default=None,
                    help="max n for oracles; exact n for stability suites")
    pv.add_argument("--k", type=int, default=None)
    pv.add_argument("--r", type=int, default=None)
    pv.add_argument("--d", type=int, default=None)
    pv.add_argument("--in", dest="input", default=None,
                    help="check graphs from a graph6 file instead of enumerating")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=["json", "csv"], default="json")
    pv.add_argument("--budget", type=int, default=None,
                    help="state cap of each L_k-freeness or linear-forest search "
                         "the bounds leave open, on theorem4 and with --in on "
                         f"theorems 1-3 (default {DEFAULT_BUDGET})")
    pv.add_argument("--dedup", action="store_true",
                    help="enumerate one graph per isomorphism class")
    pv.add_argument("--samples", type=int, default=None,
                    help="random subgraph samples per stability host (default 5)")
    pv.add_argument("--seed", type=int, default=None,
                    help="stability sampling seed (default 0)")
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, Graph6Error, BudgetExceeded, OSError) as exc:
        print(f"linfor: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
