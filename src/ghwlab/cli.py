"""Command-line front end: params, check, ghw, gauss, flv, sweep, verify.

Exit codes: 0 ok, 2 usage, 3 cross-check mismatch or failed internal check,
4 closed form refused (assumptions or hypotheses unmet; for sweep, no a
passes the assumptions), 5 enumeration budget exceeded.  JSON output is
deterministic byte-for-byte under --no-timing; witnesses are reproducible
because the field modulus and 0-based index convention travel with every
record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from pathlib import Path

from . import __version__
from .codes import TraceCode, count_common_zeros, derive_params, require_e_equals_t
from .cyclotomy import CyclotomyCtx
from .errors import DEFAULT_BUDGET, BudgetExceeded, HypothesesNotMet
from .fields import build_field
from .hierarchy import ClosedFormGate, character_sum_count, closed_form_dr, max_class_intersection
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
    else:
        sub.set_defaults(format="json")  # the one output of a command without --format
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


def _write(args, text, mode="w"):
    if text and not text.endswith("\n"):
        text += "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output, mode) as fh:
            fh.write(text)
    except OSError as exc:  # a path the user gave: a usage error, not a traceback
        raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _check_output(args):
    """Refuse an unwritable ``--output`` before any work, as ``_write`` would.
    Opening to append keeps an existing file's content; a file made here
    goes, and behind a symlink it is the link's target that goes."""
    if args.output != "-":
        path = Path(args.output)
        made = not path.exists()  # follows a symlink to its target
        _write(args, "", mode="a")
        if made:
            path.resolve().unlink()


def _write_record(args, record, csv_rows=None, table_lines=None):
    """``record`` as JSON, or ``csv_rows`` or ``table_lines`` under
    ``--format csv`` or ``table``, where the command offers them."""
    if args.format == "json":
        _write(args, json.dumps(record, indent=2))
    elif args.format == "csv":
        _write(args, _csv(csv_rows))
    else:
        _write(args, "\n".join(table_lines))


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _derive(args):
    return derive_params(args.p, args.s, args.m, args.e, args.t, args.a, args.deltas)


def _record(**fields):
    """Every JSON record: the schema version and the tool, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION,
            "tool": {"name": "ghwlab", "version": __version__}, **fields}


def _code_record(params, report, **fields):
    return _record(index_base=0, field=params.field.to_json_dict(), params=params.to_dict(),
                   assumptions=params.assumptions.to_dict(), hypotheses=report.to_dict(),
                   **fields)


def cmd_params(args):
    """``params`` and ``check``: one record; ``check`` exits 4 when the
    closed-form gate refuses the code."""
    params = _derive(args)
    gate = ClosedFormGate.of(params)
    _write_record(args, _code_record(params, gate.report))
    return EXIT_HYPOTHESES if args.cmd == "check" and gate.failures else EXIT_OK


def _formula_row(params, fp, r):
    d, r1, r2, branch, u_star = closed_form_dr(params, fp, r)
    return {"d_r": d, "witness_basis": None, "r1": r1, "r2": r2, "branch": branch,
            "u_star": list(u_star), "subspaces_examined": 0}


def _plan_methods(params, gate, methods, optional, r_list, budget, jobs):
    """The row function of each of ``methods`` that will run, in order, chosen
    before any row runs.  A method in ``optional`` is left out where the
    closed-form gate or ``oracle.plan_sweeps`` refuses it; any other refusal
    is raised, in this order: the gate, building the code, then each sweep's,
    mode by mode and r by r.  ``oracle.plan_sweeps`` sizes every sweep once
    and picks the job count."""
    row_of = {}
    if "formula" in methods and not ("formula" in optional and gate.failures):
        fp = gate.require()
        row_of["formula"] = lambda r: _formula_row(params, fp, r)
    if sweeps := [method for method in methods if method != "formula"]:
        from .oracle import ghw_bruteforce, ghw_dual_sweep, plan_sweeps  # loaded only to sweep

        code = TraceCode(params)
        jobs, refused = plan_sweeps(params, sweeps, r_list, budget, jobs, optional)
        for method in (method for method in sweeps if method not in refused):
            sweep = ghw_bruteforce if method == "brute" else ghw_dual_sweep
            row_of[method] = lambda r, sweep=sweep: sweep(code, r, budget=budget,
                                                          jobs=jobs).to_dict()
    return row_of


def _run_methods(params, plan, r_list, timing, hierarchies):
    """Every row of each planned method in turn, each timed by one loop.
    Each method's d_r list goes into ``hierarchies`` as it finishes, so the
    caller keeps the finished lists when a later method raises; all lists
    are shape-checked at the end."""
    rows = []
    for method, row_of in plan.items():
        method_rows = []
        for r in r_list:
            start = time.perf_counter()
            row = {"r": r, "method": method, **row_of(r)}
            if timing:
                row["timing_s"] = _sig12(time.perf_counter() - start)
            method_rows.append(row)
        rows += method_rows
        hierarchies[method] = [row["d_r"] for row in method_rows]
    for d_list in hierarchies.values():
        _check_hierarchy_shape(r_list, d_list, params.n, params.k, params.q)
    return rows


def _check_hierarchy_shape(r_list, d_list, n, k, q):
    """d_r < d_r' for every requested r < r', d_r <= n - k + r, the chain
    bound (q^(r+1) - 1) d_r <= (q^(r+1) - q) d_(r+1) where r and r + 1 are
    both requested: each coordinate of an (r+1)-dim subcode's support lies
    in the supports of all but one of its (q^(r+1)-1)/(q-1) r-dim subcodes,
    and, where r = 1 is requested, the Griesmer bound d_r >= sum_{i<r}
    ceil(d_1 / q^i) (Helleseth, Kløve and Ytrehus, IEEE TIT 38(3), 1992)."""
    # sorted by (r, d): each r's largest d meets the next r's smallest
    pairs = sorted(zip(r_list, d_list))
    shown = ";".join(str(d) for d in d_list)  # no commas: sweep puts it in a CSV cell
    for (r, d), (r2, d2) in zip(pairs, pairs[1:]):
        if r < r2 and d >= d2:
            raise RuntimeError(f"hierarchy is not strictly increasing: {shown}")
    for r, d in pairs:
        if d > n - k + r:
            raise RuntimeError(f"generalized Singleton bound violated at r={r}: {shown}")
    for (r, d), (r2, d2) in zip(pairs, pairs[1:]):
        if r2 == r + 1 and (q**r2 - 1) * d > (q**r2 - q) * d2:
            raise RuntimeError(f"chain bound violated at r={r}: {shown}")
    for r, d in pairs:
        if pairs[0][0] == 1 and d < sum(-(-pairs[0][1] // q**i) for i in range(r)):
            raise RuntimeError(f"Griesmer bound violated at r={r}: {shown}")


def cmd_ghw(args):
    params = _derive(args)
    gate = ClosedFormGate.of(params)
    tm = params.k
    r_list = args.r or list(range(1, tm + 1))
    for r in r_list:
        if not 1 <= r <= tm:
            raise ValueError(f"r must lie in 1..{tm}, got {r}")
    # an explicit --method refuses as it must: formula exit 4, dual with e != t exit 2
    methods, optional = [args.method], ()
    if args.method == "all":
        methods, optional = ["formula", "brute", "dual"], ("formula", "dual")
    plan = _plan_methods(params, gate, methods, optional, r_list, args.budget, args.jobs)
    hierarchies = {}
    results = _run_methods(params, plan, r_list, not args.no_timing, hierarchies)
    match = len({tuple(h) for h in hierarchies.values()}) <= 1
    cells = [[row["r"], row["method"], row["d_r"], row["subspaces_examined"]] for row in results]
    line = "{:>3}  {:<8} {:>5}  {:>10}".format
    _write_record(args, _code_record(params, gate.report, budget=args.budget, results=results,
                                     hierarchy=hierarchies, match=match),
                  [["r", "method", "d_r", "subspaces_examined", "witness_basis"]]
                  + [c + [json.dumps(row["witness_basis"])] for c, row in zip(cells, results)],
                  [line("r", "method", "d_r", "examined")] + [line(*c) for c in cells])
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_gauss(args):
    import cmath  # the one command that prints complex values
    field = build_field(args.p, args.s * args.m, subfield_degree=args.s)
    cyc = CyclotomyCtx(field, args.N)
    roots = [cmath.exp(2j * cmath.pi * k / field.p) for k in range(field.p)]
    periods = [sum(c * roots[k] for k, c in row.items())
               for row in cyc.period_table()[:args.N]]
    _write_record(args, _record(
        field=field.to_json_dict(), N=args.N, class_size=cyc.class_size,
        periods=[{"i": i, "re": _sig12(v.real), "im": _sig12(v.imag)}
                 for i, v in enumerate(periods)]))
    return EXIT_OK


def cmd_flv(args):
    params = _derive(args)
    gate = ClosedFormGate.of(params)
    fp = gate.require()
    cells = [[l, max_class_intersection(fp, l)] for l in range(params.m + 1)]
    line = "{:>3}  {:>16}".format
    _write_record(args, _code_record(params, gate.report, v=fp.v, max_intersection=[
                      {"l": l, "value": value} for l, value in cells]),
                  [["l", "max_intersection"]] + cells,
                  [f"v = {fp.v}", line("l", "max_intersection")] + [line(*c) for c in cells])
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
    rows = [SWEEP_COLUMNS]
    failed = False
    skipped = 0
    for a in range(a_start, a_stop + 1):
        # with a >= 1 every error derive_params raises holds for every a
        params = derive_params(args.p, args.s, args.m, args.e, args.t, a, args.deltas)
        if not params.assumptions.all_ok:
            skipped += 1
            continue
        gate = ClosedFormGate.of(params)  # the assumptions hold, so only hypotheses can fail
        report = gate.report
        r_all = range(1, params.k + 1)
        # the code materializes: the plan leaves out only formula (hypotheses) or brute (budget)
        methods = ["formula", "brute"]
        plan = _plan_methods(params, gate, methods, methods, r_all, args.budget, 1)
        hierarchies, error = {}, ""
        try:
            _run_methods(params, plan, r_all, False, hierarchies)
        except Exception as exc:  # per-row error column, sweep keeps going
            error = f"{type(exc).__name__}: {exc}"
        joined = {method: ";".join(map(str, d_list)) for method, d_list in hierarchies.items()}
        cells = {**params.to_dict(), **report.to_dict(),
                 "deltas": ";".join(map(str, params.deltas)),
                 "semiprimitive_j": "" if report.j is None else report.j,
                 "hypotheses_ok": report.all_hold,
                 "formula_hierarchy": joined.get("formula", "" if "formula" in plan
                                                 else "n/a (hypotheses)"),
                 "oracle_hierarchy": joined.get("brute", "" if "brute" in plan else "n/a (budget)"),
                 "match": str(joined["formula"] == joined["brute"]) if len(joined) == 2 else "",
                 "error": error}
        failed = failed or cells["match"] == "False" or bool(error)
        rows.append([cells[column] for column in SWEEP_COLUMNS])
    _write(args, _csv(rows))
    if skipped:
        print(f"sweep: skipped {skipped} of {a_stop - a_start + 1} a values whose assumptions fail",
              file=sys.stderr)
    if len(rows) == 1:  # a sweep that checked nothing refuses, as check does
        return EXIT_HYPOTHESES
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_verify(args):
    params = _derive(args)
    code = TraceCode(params)
    require_e_equals_t(params, "character-sum counting")  # before any sample or budget check
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
    # max_abs_err and tolerance are floats, as the goldens and the benchmark harness read them
    _write_record(args, _record(params=params.to_dict(), checked=args.count, seed=args.seed,
                                max_abs_err=float(max_err), tolerance=1e-6, ok=ok))
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


# the first entry that matches an error gives its exit code
ERROR_EXITS = {
    BudgetExceeded: EXIT_BUDGET,
    HypothesesNotMet: EXIT_HYPOTHESES,
    ValueError: EXIT_USAGE,
    RuntimeError: EXIT_MISMATCH,  # a failed internal consistency check
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_output(args)
        return COMMANDS[args.cmd](args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
