"""Command-line frontend: construct hosts, count cliques, transform graphs,
and run verification suites with machine-readable reports.

Exit codes: 0 = success / all checks pass, 1 = some verification failed,
2 = usage or input error.  Progress goes to stderr; stdout stays clean for
graph6 records and reports.
"""

from __future__ import annotations

import argparse
import sys

from .constructions import ConstructionParams, build_host
from .cliques import count_cliques
from .forests import DEFAULT_BUDGET, BudgetExceeded
from .graphcore import Graph6Error, read_graph6_lines, to_graph6
from .transforms import core, k_closure
from .verify.reports import reports_csv, reports_json
from .verify.suite import matching_stability_suite, stability_suite
from .verify.theorems import brute_ex, brute_ex_matching, check_input_graph

THEOREMS = [f"theorem{i}" for i in range(1, 8)]

# construction-side suites: theorem -> (suite, default k)
SUITES = {"theorem4": (stability_suite, 7), "theorem7": (matching_stability_suite, 3)}


def _read_graphs(path: str):
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
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


def _verify_rows(args) -> list:
    theorem = args.theorem
    rows = []
    if args.input is not None:
        if theorem in SUITES:
            raise ValueError("input-graph mode supports theorems 1, 2, 3, 5, 6")
        if args.k is None:
            raise ValueError("input-graph mode needs --k")
        r = args.r if args.r is not None else 2
        for g in _read_graphs(args.input):
            rows.append(
                check_input_graph(g, theorem, args.k, r, args.d, budget=args.budget)
            )
        return rows

    if theorem in ("theorem1", "theorem2"):
        n_max = args.n if args.n is not None else 6
        r = 2 if theorem == "theorem1" else (args.r if args.r is not None else 3)
        for n in range(max(3, r), n_max + 1):
            ks = [args.k] if args.k is not None else range(1, n)
            for k in ks:
                print(f"verify {theorem}: n={n} k={k} r={r}", file=sys.stderr)
                rows.append(brute_ex(n, r, k, dedup=args.dedup))
    elif theorem == "theorem3":
        n_max = args.n if args.n is not None else 6
        r = args.r if args.r is not None else 2
        for n in range(3, n_max + 1):
            ks = [args.k] if args.k is not None else range(2, n)
            for k in ks:
                ds = [args.d] if args.d is not None else range(0, (k - 1) // 2 + 1)
                for d in ds:
                    print(f"verify theorem3: n={n} k={k} r={r} d={d}", file=sys.stderr)
                    rows.append(
                        brute_ex(n, r, k, min_degree=d, dedup=args.dedup)
                    )
    elif theorem in ("theorem5", "theorem6"):
        n_max = args.n if args.n is not None else 7
        k_max = args.k if args.k is not None else 2
        r = 2 if theorem == "theorem5" else (args.r if args.r is not None else 3)
        for k in range(1, k_max + 1):
            lo = 2 * k + 1 if theorem == "theorem5" else 2 * k + 2
            for n in range(lo, n_max + 1):
                if theorem == "theorem5":
                    print(f"verify theorem5: n={n} k={k}", file=sys.stderr)
                    rows.append(
                        brute_ex_matching(n, 2, k, dedup=args.dedup)
                    )
                else:
                    ds = [args.d] if args.d is not None else range(0, k + 1)
                    for d in ds:
                        print(
                            f"verify theorem6: n={n} k={k} r={r} d={d}",
                            file=sys.stderr,
                        )
                        rows.append(
                            brute_ex_matching(n, r, k, min_degree=d,
                                              dedup=args.dedup)
                        )
    else:
        suite, default_k = SUITES[theorem]
        k = args.k if args.k is not None else default_k
        n = args.n if args.n is not None else 24
        r_values = [args.r] if args.r is not None else None
        print(f"verify {theorem} construction-side: k={k} n={n}", file=sys.stderr)
        rows.extend(
            suite(k, n, r_values=r_values, d=args.d, samples=args.samples,
                  seed=args.seed, budget=args.budget)
        )
    return rows


def _cmd_verify(args) -> int:
    if args.budget <= 0:
        raise ValueError("--budget must be positive")
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
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
    pc.add_argument("--variant", choices=["plain", "plus", "plusplus"],
                    default="plain")
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
    pv.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    pv.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pv.add_argument("--dedup", action="store_true",
                    help="enumerate one graph per isomorphism class")
    pv.add_argument("--samples", type=int, default=5,
                    help="random subgraph samples per stability host")
    pv.add_argument("--seed", type=int, default=0)
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
