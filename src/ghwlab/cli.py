"""Command-line front end: params, check, ghw, gauss, flv, sweep, verify.

Exit codes: 0 ok, 2 usage, 3 cross-check mismatch or failed internal check,
4 closed form refused (assumptions or hypotheses unmet), 5 enumeration
budget exceeded.  JSON output is deterministic byte-for-byte under
--no-timing; witnesses are reproducible because the field modulus and
0-based index convention travel with every record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time

from . import __version__
from .codes import check_closed_form_hypotheses, count_common_zeros, derive_params
from .codes import TraceCode
from .cyclotomy import CyclotomyCtx
from .errors import DEFAULT_BUDGET, BudgetExceeded, HypothesesNotMet
from .fields import build_field
from .hierarchy import (
    FormulaParams,
    branch_label,
    character_sum_count,
    closed_form_dr,
    max_class_intersection,
    optimize_profile,
    rank_decomposition,
)
from .linalg import vectors_independent

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_HYPOTHESES = 4
EXIT_BUDGET = 5

SCHEMA_VERSION = 1


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _add_param_flags(sub, need_a=True):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--s", type=int, default=1)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--e", type=int, required=True)
    sub.add_argument("--t", type=int, required=True)
    if need_a:
        sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--deltas", type=_int_list, default=None,
                     help="comma list; defaults to 0,1,...,t-1 when e == t")


def _add_output_flags(sub, formats=()):
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", default="-", help="output path, - for stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ghwlab",
        description="Weight hierarchies of trace-represented cyclic codes: "
                    "closed form and exhaustive oracles.")
    parser.add_argument("--version", action="version", version=f"ghwlab {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sp = subs.add_parser("params", help="derive parameters and assumption checks")
    _add_param_flags(sp)
    _add_output_flags(sp)

    sc = subs.add_parser("check", help="like params; exit 4 when the closed form does not apply")
    _add_param_flags(sc)
    _add_output_flags(sc)

    sg = subs.add_parser("ghw", help="weight hierarchy by formula, brute force, dual sweep, or all")
    _add_param_flags(sg)
    sg.add_argument("--method", choices=("formula", "brute", "dual", "all"), default="all")
    sg.add_argument("--r", type=_int_list, default=None,
                    help="comma list of subcode dimensions; default 1..t*m")
    sg.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                    help="max subspaces per sweep, >= 0 (default %(default)s)")
    sg.add_argument("--jobs", type=_at_least(0), default=0,
                    help="worker processes for sweeps, >= 0; 0 = auto")
    _add_output_flags(sg, formats=("json", "csv", "table"))
    sg.add_argument("--no-timing", action="store_true",
                    help="omit timing fields for byte-identical reruns")

    sa = subs.add_parser("gauss", help="numeric Gauss periods for a field and divisor N")
    sa.add_argument("--p", type=int, required=True)
    sa.add_argument("--s", type=int, default=1)
    sa.add_argument("--m", type=int, required=True)
    sa.add_argument("--N", type=int, required=True)
    _add_output_flags(sa)

    sf = subs.add_parser("flv", help="table of per-slot maximum intersections")
    _add_param_flags(sf)
    _add_output_flags(sf, formats=("json", "csv", "table"))

    sw = subs.add_parser("sweep", help="CSV over a range of a values with cross-checks")
    _add_param_flags(sw, need_a=False)
    sw.add_argument("--a-range", required=True, metavar="START:STOP",
                    help="inclusive range of a values")
    sw.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                    help="max subspaces per sweep, >= 0 (default %(default)s)")
    _add_output_flags(sw)

    sv = subs.add_parser("verify", help="character-sum counts vs exact counts on random subspaces")
    _add_param_flags(sv)
    sv.add_argument("--count", type=_at_least(1), default=100,
                    help="random subspaces to check, >= 1 (default %(default)s)")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                    help="max members of one subspace, q^r, >= 0 (default %(default)s)")
    _add_output_flags(sv)

    return parser


def _write(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _derive(args):
    return derive_params(args.p, args.s, args.m, args.e, args.t, args.a, args.deltas)


def _base_record(params, report):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ghwlab", "version": __version__},
        "index_base": 0,
        "field": params.field.to_json_dict(),
        "params": params.to_dict(),
        "assumptions": params.assumptions.to_dict(),
        "hypotheses": report.to_dict(),
    }


def cmd_params(args):
    """``params`` and ``check``: one record; ``check`` exits 4 when the
    code's assumptions or the closed-form hypotheses fail."""
    params = _derive(args)
    report = check_closed_form_hypotheses(params)
    _write(args, json.dumps(_base_record(params, report), indent=2))
    formula_ok = report.all_hold and params.assumptions.all_ok
    return EXIT_HYPOTHESES if args.cmd == "check" and not formula_ok else EXIT_OK


def _formula_rows(params, r_list, timing):
    fp = FormulaParams.from_code_params(params)
    rows = []
    for r in r_list:
        start = time.perf_counter()
        d = closed_form_dr(params, r)
        r1, r2 = rank_decomposition(params.t, params.m, r)
        u_star, _ = optimize_profile(fp, params.t, r)
        row = {
            "r": r, "method": "formula", "d_r": d,
            "witness_basis": None,
            "r1": r1, "r2": r2, "branch": branch_label(fp, r2),
            "u_star": list(u_star),
            "subspaces_examined": 0,
        }
        if timing:
            row["timing_s"] = _sig12(time.perf_counter() - start)
        rows.append(row)
    return rows


def _oracle_rows(code, r_list, method, budget, jobs, timing):
    from .oracle import ghw_bruteforce, ghw_dual_sweep  # the sweeps load only where they run

    sweep = ghw_bruteforce if method == "brute" else ghw_dual_sweep
    rows = []
    for r in r_list:
        start = time.perf_counter()
        res = sweep(code, r, budget=budget, jobs=jobs)
        row = {"r": r, "method": method}
        row.update(res.to_dict())
        if timing:
            row["timing_s"] = _sig12(time.perf_counter() - start)
        rows.append(row)
    return rows


def _run_methods(params, methods, r_list, budget, jobs, timing, hierarchies):
    """Every row of each method in turn.  Each method's d_r list goes into
    ``hierarchies`` as it finishes, so the caller keeps the finished lists
    when a later method raises; all lists are shape-checked at the end."""
    code = None  # built for the first sweep
    rows = []
    for method in methods:
        if method == "formula":
            method_rows = _formula_rows(params, r_list, timing)
        else:
            code = code or TraceCode(params)
            method_rows = _oracle_rows(code, r_list, method, budget, jobs, timing)
        rows += method_rows
        hierarchies[method] = [row["d_r"] for row in method_rows]
    for d_list in hierarchies.values():
        _check_hierarchy_shape(r_list, d_list, params.n, params.k)
    return rows


def _check_hierarchy_shape(r_list, d_list, n, k):
    """d_r < d_r' for every requested r < r', and d_r <= n - k + r."""
    # sorted by (r, d): each r's largest d meets the next r's smallest
    pairs = sorted(zip(r_list, d_list))
    shown = ";".join(str(d) for d in d_list)  # no commas: sweep puts it in a CSV cell
    for (r, d), (r2, d2) in zip(pairs, pairs[1:]):
        if r < r2 and d >= d2:
            raise RuntimeError(f"hierarchy is not strictly increasing: {shown}")
    for r, d in pairs:
        if d > n - k + r:
            raise RuntimeError(f"generalized Singleton bound violated at r={r}: {shown}")


def _auto_jobs(tm, r_list, q):
    """Serial for small sweeps, else one worker per usable CPU and pattern."""
    from .subspaces import gaussian_binomial

    # on 2 CPUs, in timed pairs (BENCH_19.json), --jobs 2 won 21 of 30 at this
    # size ([93,10] over GF(2) at r=2; 10 of 10 in the last set of ten), 7 of
    # 20 at 43,435, 13 of 20 at 376,805, 18 of 20 at 508,431 and 19 of 20 at
    # 788,035.  --jobs 1 won no set of ten here 9 times, so the cutoff stayed
    # where --jobs 2 had won 9 of 10 before the value-plane kernel
    if max(gaussian_binomial(tm, r, q) for r in r_list) < 174_251:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, max(math.comb(tm, r) for r in r_list))


def cmd_ghw(args):
    params = _derive(args)
    report = check_closed_form_hypotheses(params)
    tm = params.k
    r_list = args.r or list(range(1, tm + 1))
    for r in r_list:
        if not 1 <= r <= tm:
            raise ValueError(f"r must lie in 1..{tm}, got {r}")
    jobs = args.jobs or _auto_jobs(tm, r_list, params.q)

    methods = [args.method]
    if args.method == "all":
        methods = ["formula", "brute", "dual"]
        if not (report.all_hold and params.assumptions.all_ok):
            methods.remove("formula")  # --method formula refuses with exit 4
        if params.e != params.t:
            methods.remove("dual")  # dual counting is only defined for e == t

    record = _base_record(params, report)
    record["budget"] = args.budget
    hierarchies = {}
    record["results"] = _run_methods(params, methods, r_list, args.budget, jobs,
                                     not args.no_timing, hierarchies)
    record["hierarchy"] = hierarchies
    record["match"] = match = len({tuple(h) for h in hierarchies.values()}) <= 1

    if args.format == "json":
        _write(args, json.dumps(record, indent=2))
    elif args.format == "csv":
        _write(args, _csv([["r", "method", "d_r", "subspaces_examined", "witness_basis"]]
                          + [[row["r"], row["method"], row["d_r"], row["subspaces_examined"],
                              json.dumps(row["witness_basis"])] for row in record["results"]]))
    else:
        lines = [f"{'r':>3}  {'method':<8} {'d_r':>5}  {'examined':>10}"]
        for row in record["results"]:
            lines.append(f"{row['r']:>3}  {row['method']:<8} {row['d_r']:>5}  "
                         f"{row['subspaces_examined']:>10}")
        _write(args, "\n".join(lines))
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_gauss(args):
    import cmath  # the one command that prints complex values
    field = build_field(args.p, args.s * args.m, subfield_degree=args.s)
    cyc = CyclotomyCtx(field, args.N)
    roots = [cmath.exp(2j * cmath.pi * k / field.p) for k in range(field.p)]
    periods = [sum(c * roots[k] for k, c in row.items())
               for row in cyc.period_table()[:args.N]]
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ghwlab", "version": __version__},
        "field": field.to_json_dict(),
        "N": args.N,
        "class_size": cyc.class_size,
        "periods": [
            {"i": i, "re": _sig12(v.real), "im": _sig12(v.imag)}
            for i, v in enumerate(periods)
        ],
    }
    _write(args, json.dumps(record, indent=2))
    return EXIT_OK


def cmd_flv(args):
    params = _derive(args)
    fp = FormulaParams.from_code_params(params)
    table = [{"l": l, "value": max_class_intersection(fp, l)} for l in range(params.m + 1)]
    if args.format == "json":
        record = _base_record(params, check_closed_form_hypotheses(params))
        record["v"] = fp.v
        record["max_intersection"] = table
        _write(args, json.dumps(record, indent=2))
    elif args.format == "csv":
        _write(args, _csv([["l", "max_intersection"]]
                          + [[row["l"], row["value"]] for row in table]))
    else:
        lines = [f"v = {fp.v}", f"{'l':>3}  {'max_intersection':>16}"]
        lines += [f"{row['l']:>3}  {row['value']:>16}" for row in table]
        _write(args, "\n".join(lines))
    return EXIT_OK


SWEEP_COLUMNS = [
    "p", "s", "m", "e", "t", "a", "deltas", "q", "Q", "N", "delta", "n", "k",
    "e_equals_t", "N_in_range", "semiprimitive_j", "sm_over_2j_odd", "m_even",
    "hypotheses_ok", "formula_hierarchy", "oracle_hierarchy", "match", "error",
]


def cmd_sweep(args):
    from .subspaces import gaussian_binomial

    try:
        a_start, a_stop = (int(v) for v in args.a_range.split(":"))
    except ValueError as exc:
        raise ValueError(f"--a-range must be START:STOP, got {args.a_range!r}") from exc
    if a_start < 1:
        raise ValueError(f"--a-range START must be >= 1, got {args.a_range!r}")
    if a_start > a_stop:
        raise ValueError(f"--a-range START exceeds STOP, got {args.a_range!r}")
    rows = [SWEEP_COLUMNS]
    failed = False
    for a in range(a_start, a_stop + 1):
        # with a >= 1 every error derive_params raises holds for every a
        params = derive_params(args.p, args.s, args.m, args.e, args.t, a, args.deltas)
        if not params.assumptions.all_ok:
            continue
        report = check_closed_form_hypotheses(params)
        row = [params.p, params.s, params.m, params.e, params.t, params.a,
               ";".join(str(d) for d in params.deltas),
               params.q, params.Q, params.N, params.delta, params.n, params.k,
               report.e_equals_t, report.N_in_range,
               report.j if report.j is not None else "",
               report.sm_over_2j_odd, report.m_even, report.all_hold]
        r_all = range(1, params.k + 1)
        within = all(gaussian_binomial(params.k, r, params.q) <= args.budget for r in r_all)
        hierarchies = {}
        error = ""
        try:
            _run_methods(params, ["formula"] * report.all_hold + ["brute"] * within,
                         r_all, args.budget, 1, False, hierarchies)
        except Exception as exc:  # per-row error column, sweep keeps going
            error = f"{type(exc).__name__}: {exc}"
        cells = {method: ";".join(map(str, d_list)) for method, d_list in hierarchies.items()}
        formula_cell = cells.get("formula", "") if report.all_hold else "n/a (hypotheses)"
        oracle_cell = cells.get("brute", "") if within else "n/a (budget)"
        match_cell = str(cells["formula"] == cells["brute"]) if len(cells) == 2 else ""
        failed = failed or match_cell == "False" or bool(error)
        rows.append(row + [formula_cell, oracle_cell, match_cell, error])
    _write(args, _csv(rows))
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_verify(args):
    params = _derive(args)
    code = TraceCode(params)
    rng = random.Random(args.seed)
    max_err = 0
    for _ in range(args.count):
        r = rng.randint(1, params.k)
        if params.q**r > args.budget:  # the character sum enumerates every member
            raise BudgetExceeded(params.q**r, args.budget,
                                 f"verify drew r={r}: q^r = {params.q}^{r}", unit="subspace members")
        basis = []
        while len(basis) < r:
            cand = tuple(rng.randrange(params.Q) for _ in range(params.t))
            if any(cand) and vectors_independent(code.field, basis + [cand]):
                basis.append(cand)
        numeric, exact = character_sum_count(code, basis), count_common_zeros(code, basis)
        max_err = max(max_err, abs(numeric - exact))
    ok = max_err == 0  # both counts are ints
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ghwlab", "version": __version__},
        "params": params.to_dict(),
        "checked": args.count,
        "seed": args.seed,
        # floats, as the goldens and the benchmark harness read them
        "max_abs_err": float(max_err),
        "tolerance": 1e-6,
        "ok": ok,
    }
    _write(args, json.dumps(record, indent=2))
    return EXIT_OK if ok else EXIT_MISMATCH


COMMANDS = {
    "params": cmd_params,
    "check": cmd_params,
    "ghw": cmd_ghw,
    "gauss": cmd_gauss,
    "flv": cmd_flv,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.cmd](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except HypothesesNotMet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a failed internal consistency check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
