"""Command-line front end: params, check, ghw, gauss, flv, sweep, verify.

Exit codes: 0 ok, 2 usage, 3 cross-check mismatch or failed internal check,
4 hypotheses unmet, 5 enumeration budget exceeded.  JSON output is
deterministic byte-for-byte under --no-timing; witnesses are reproducible
because the field modulus and 0-based index convention travel with every
record.
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
from .codes import check_closed_form_hypotheses, derive_params
from .codes import TraceCode
from .cyclotomy import CyclotomyCtx
from .errors import BudgetExceeded, HypothesesNotMet
from .fields import build_field
from .hierarchy import (
    FormulaParams,
    branch_label,
    character_sum_count,
    closed_form_dr,
    closed_form_hierarchy,
    max_class_intersection,
    optimize_profile,
    rank_decomposition,
)
from .linalg import vectors_independent
from .oracle import DEFAULT_BUDGET, count_common_zeros, ghw_bruteforce, ghw_dual_sweep
from .subspaces import gaussian_binomial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_HYPOTHESES = 4
EXIT_BUDGET = 5

SCHEMA_VERSION = 1


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _parse_deltas(text):
    return tuple(int(v) for v in text.split(","))


def _parse_r_list(text):
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
    sub.add_argument("--deltas", type=_parse_deltas, default=None,
                     help="comma list; defaults to 0,1,...,t-1 when e == t")


def _add_output_flags(sub, formats=("json", "csv", "table")):
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", default="-", help="output path, - for stdout")
    sub.add_argument("--no-timing", action="store_true",
                     help="omit timing fields for byte-identical reruns")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ghwlab",
        description="Weight hierarchies of trace-represented cyclic codes: "
                    "closed form and exhaustive oracles.")
    parser.add_argument("--version", action="version", version=f"ghwlab {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sp = subs.add_parser("params", help="derive parameters and assumption checks")
    _add_param_flags(sp)
    _add_output_flags(sp, formats=("json",))

    sc = subs.add_parser("check", help="like params; exit 4 when the closed-form hypotheses fail")
    _add_param_flags(sc)
    _add_output_flags(sc, formats=("json",))

    sg = subs.add_parser("ghw", help="weight hierarchy by formula, brute force, dual sweep, or all")
    _add_param_flags(sg)
    sg.add_argument("--method", choices=("formula", "brute", "dual", "all"), default="all")
    sg.add_argument("--r", type=_parse_r_list, default=None,
                    help="comma list of subcode dimensions; default 1..t*m")
    sg.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                    help="max subspaces per sweep, >= 0 (default %(default)s)")
    sg.add_argument("--jobs", type=_at_least(0), default=0,
                    help="worker processes for sweeps, >= 0; 0 = auto")
    _add_output_flags(sg)

    sa = subs.add_parser("gauss", help="numeric Gauss periods for a field and divisor N")
    sa.add_argument("--p", type=int, required=True)
    sa.add_argument("--s", type=int, default=1)
    sa.add_argument("--m", type=int, required=True)
    sa.add_argument("--N", type=int, required=True)
    _add_output_flags(sa, formats=("json",))

    sf = subs.add_parser("flv", help="table of per-slot maximum intersections")
    _add_param_flags(sf)
    _add_output_flags(sf)

    sw = subs.add_parser("sweep", help="CSV over a range of a values with cross-checks")
    _add_param_flags(sw, need_a=False)
    sw.add_argument("--a-range", required=True, metavar="START:STOP",
                    help="inclusive range of a values")
    sw.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                    help="max subspaces per sweep, >= 0 (default %(default)s)")
    sw.add_argument("--output", default="-")

    sv = subs.add_parser("verify", help="character-sum counts vs exact counts on random subspaces")
    _add_param_flags(sv)
    sv.add_argument("--count", type=_at_least(1), default=100,
                    help="random subspaces to check, >= 1 (default %(default)s)")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                    help="max members of one subspace, q^r, >= 0 (default %(default)s)")
    _add_output_flags(sv, formats=("json",))

    return parser


def _write(args, text):
    if getattr(args, "output", "-") in ("-", None):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


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
    params = _derive(args)
    record = _base_record(params, check_closed_form_hypotheses(params))
    _write(args, json.dumps(record, indent=2))
    return EXIT_OK


def cmd_check(args):
    params = _derive(args)
    report = check_closed_form_hypotheses(params)
    _write(args, json.dumps(_base_record(params, report), indent=2))
    return EXIT_OK if report.all_hold else EXIT_HYPOTHESES


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
    # on 2 CPUs, --jobs 2 won at least 9 of 10 timed pairs from this size on
    # ([93,10] over GF(2) at r=2) and at most 8 of 10 below it
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
    budget = args.budget
    jobs = args.jobs or _auto_jobs(tm, r_list, params.q)

    methods = [args.method] if args.method != "all" else ["formula", "brute", "dual"]
    if "formula" in methods and not report.all_hold:
        if args.method == "formula":
            raise HypothesesNotMet(report.failures())
        methods.remove("formula")
    if args.method == "all" and params.e != params.t:
        methods.remove("dual")  # dual counting is only defined for e == t

    code = None
    if "brute" in methods or "dual" in methods:
        code = TraceCode(params)

    record = _base_record(params, report)
    record["budget"] = budget
    record["results"] = []
    hierarchies = {}
    timing = not args.no_timing
    for method in methods:
        if method == "formula":
            rows = _formula_rows(params, r_list, timing)
        else:
            rows = _oracle_rows(code, r_list, method, budget, jobs, timing)
        record["results"].extend(rows)
        hierarchies[method] = [row["d_r"] for row in rows]
        _check_hierarchy_shape(r_list, hierarchies[method], params.n, tm)
    record["hierarchy"] = hierarchies
    match = len({tuple(h) for h in hierarchies.values()}) <= 1
    record["match"] = match

    if args.format == "json":
        _write(args, json.dumps(record, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "method", "d_r", "subspaces_examined", "witness_basis"])
        for row in record["results"]:
            writer.writerow([row["r"], row["method"], row["d_r"],
                             row["subspaces_examined"],
                             json.dumps(row["witness_basis"])])
        _write(args, buf.getvalue())
    else:
        lines = [f"{'r':>3}  {'method':<8} {'d_r':>5}  {'examined':>10}"]
        for row in record["results"]:
            lines.append(f"{row['r']:>3}  {row['method']:<8} {row['d_r']:>5}  "
                         f"{row['subspaces_examined']:>10}")
        _write(args, "\n".join(lines))
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_gauss(args):
    field = build_field(args.p, args.s * args.m, subfield_degree=args.s)
    cyc = CyclotomyCtx(field, args.N)
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ghwlab", "version": __version__},
        "field": field.to_json_dict(),
        "N": args.N,
        "class_size": cyc.class_size,
        "periods": [
            {"i": i, "re": _sig12(v.real), "im": _sig12(v.imag)}
            for i, v in enumerate(cyc.period_table())
        ],
    }
    _write(args, json.dumps(record, indent=2))
    return EXIT_OK


def cmd_flv(args):
    params = _derive(args)
    report = check_closed_form_hypotheses(params)
    if not report.all_hold:
        raise HypothesesNotMet(report.failures())
    fp = FormulaParams.from_code_params(params)
    table = [{"l": l, "value": max_class_intersection(fp, l)} for l in range(params.m + 1)]
    if args.format == "json":
        record = _base_record(params, report)
        record["v"] = fp.v
        record["max_intersection"] = table
        _write(args, json.dumps(record, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["l", "max_intersection"])
        for row in table:
            writer.writerow([row["l"], row["value"]])
        _write(args, buf.getvalue())
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
    try:
        a_start, a_stop = (int(v) for v in args.a_range.split(":"))
    except ValueError as exc:
        raise ValueError(f"--a-range must be START:STOP, got {args.a_range!r}") from exc
    if a_start < 1:
        raise ValueError(f"--a-range START must be >= 1, got {args.a_range!r}")
    if a_start > a_stop:
        raise ValueError(f"--a-range START exceeds STOP, got {args.a_range!r}")
    budget = args.budget
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS)
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
        error = ""
        formula_cell = "n/a (hypotheses)"
        oracle_cell = ""
        match_cell = ""
        r_all = range(1, params.k + 1)
        try:
            hierarchies = []
            if report.all_hold:
                formula = closed_form_hierarchy(params)
                formula_cell = ";".join(str(d) for d in formula)
                hierarchies.append(formula)
            within = all(gaussian_binomial(params.k, r, params.q) <= budget for r in r_all)
            if within:
                code = TraceCode(params)
                oracle = [ghw_bruteforce(code, r, budget=budget).d_r for r in r_all]
                oracle_cell = ";".join(str(d) for d in oracle)
                hierarchies.append(oracle)
            else:
                oracle_cell = "n/a (budget)"
            if report.all_hold and within:
                match_cell = str(formula == oracle)
            for hierarchy in hierarchies:
                _check_hierarchy_shape(r_all, hierarchy, params.n, params.k)
        except Exception as exc:  # per-row error column, sweep keeps going
            error = f"{type(exc).__name__}: {exc}"
        failed = failed or match_cell == "False" or bool(error)
        writer.writerow(row + [formula_cell, oracle_cell, match_cell, error])
    _write(args, buf.getvalue())
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_verify(args):
    params = _derive(args)
    code = TraceCode(params)
    rng = random.Random(args.seed)
    tm = params.k
    tolerance = 1e-6
    max_err = 0.0
    checked = 0
    for _ in range(args.count):
        r = rng.randint(1, tm)
        if params.q**r > args.budget:  # the character sum enumerates every member
            raise BudgetExceeded(params.q**r, args.budget,
                                 f"verify drew r={r}: q^r = {params.q}^{r}", unit="subspace members")
        basis = []
        while len(basis) < r:
            cand = tuple(rng.randrange(params.Q) for _ in range(params.t))
            if any(cand) and vectors_independent(code.field, basis + [cand]):
                basis.append(cand)
        numeric = character_sum_count(code, basis)
        exact = count_common_zeros(code, basis)
        err = abs(numeric - exact)
        # max() drops a NaN that comes second; a non-finite sample is inf.
        max_err = max(max_err, err if math.isfinite(err) else math.inf)
        checked += 1
    ok = max_err <= tolerance
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ghwlab", "version": __version__},
        "params": params.to_dict(),
        "checked": checked,
        "seed": args.seed,
        "max_abs_err": _sig12(max_err) if math.isfinite(max_err) else None,
        "tolerance": tolerance,
        "ok": ok,
    }
    _write(args, json.dumps(record, indent=2))
    return EXIT_OK if ok else EXIT_MISMATCH


COMMANDS = {
    "params": cmd_params,
    "check": cmd_check,
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
