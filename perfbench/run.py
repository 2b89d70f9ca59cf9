"""Benchmark for the ghwlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` it times ``ghwlab`` invocations, one
after another (a closed loop with one client), for at least ``--seconds``
seconds and reports the end-to-end metrics.  With ``--trace 1`` it replays
the workload in fresh processes with a span around each call into a layer
(``replay.py``) and reports the per-layer metrics.  Every output is checked;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, with the spans, goes to
``perfbench/results/``.  README.md maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import VERIFY_TOLERANCE, WORKLOADS, gaussian_binomial

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_MIN_REPEATS = 5    # setup_s is the median over fresh processes: at least
SETUP_MIN_SECONDS = 3.0  # this many, and for at least this long
RUN_LIMIT_S = 170        # children still running this long after the start are killed
MB = 1 << 20


def run_child(argv, deadline):
    """Run one child process; return exit code, stdout, stderr, wall seconds
    and the peak RSS in bytes of the largest process of its tree.

    The child's process group is killed if it is still running at
    ``deadline`` (a ``time.perf_counter()`` value).
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    killer = threading.Timer(max(deadline - start, 0.0), os.killpg,
                             (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        # The unreaped leader keeps its group id reserved, so this reaches only
        # pool workers a crashed child left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), wall, usage.ru_maxrss * 1024


def ghwlab_argv(w, seed):
    return [sys.executable, "-m", "ghwlab"] + w.cli_args(seed)


def replay_argv(w, seed, part):
    return [sys.executable, str(BENCH_DIR / "replay.py"),
            "--workload", w.name, "--seed", str(seed), "--part", part]


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# -- correctness ---------------------------------------------------------------

def check_examined(w, rows):
    """Every sweep visits exactly [k choose r]_q subspaces."""
    problems = []
    for row in rows:
        want = gaussian_binomial(w.k, row["r"], w.q)
        if row["examined"] != want:
            problems.append(f"{row['method']} r={row['r']} examined {row['examined']}, "
                            f"expected {want}")
    return problems


def check_ghw_hierarchies(w, rows):
    problems = []
    for method in ("brute", "dual"):
        got = tuple(row["d_r"] for row in rows if row["method"] == method)
        if got != w.reference:
            problems.append(f"{method} hierarchy {list(got)}, expected {list(w.reference)}")
    return problems


def check_cli_output(w, seed, rc, out):
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rec = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if w.command == "verify":
        problems = []
        if rec.get("ok") is not True:
            problems.append("verify reported ok != true")
        if not rec.get("max_abs_err", math.inf) <= VERIFY_TOLERANCE:
            problems.append(f"max_abs_err {rec.get('max_abs_err')} > {VERIFY_TOLERANCE}")
        if rec.get("checked") != w.count or rec.get("seed") != seed:
            problems.append(f"checked={rec.get('checked')} seed={rec.get('seed')}")
        return problems
    if rec.get("match") is not True:
        return ["match != true"]
    rows = [{"method": row["method"], "r": row["r"], "d_r": row["d_r"],
             "examined": row["subspaces_examined"]}
            for row in rec["results"] if row["method"] in ("brute", "dual")]
    return check_ghw_hierarchies(w, rows) + check_examined(w, rows)


class Ledger:
    """Attempted operations and checks, the problems of those that failed, and
    the deadline by which every child process of the run must end."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def check_exact_counts(w, counts):
    """Exact counts must repeat bit-for-bit across runs of the same source.

    The first run of a source tree stores them; later runs compare.
    """
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"counts-{w.name}-{source_digest()[:16]}.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    drift = [f"{key} was {ref[key]}, now {value}"
             for key, value in counts.items() if key in ref and ref[key] != value]
    merged = {**counts, **ref}
    if merged != ref:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return drift


# -- environment -----------------------------------------------------------------

@functools.cache
def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(w, seed, trace):
    return {
        "workload": w.name, "seed": seed, "trace": trace, "jobs": w.jobs,
        "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "src_sha256": source_digest(), "argv": w.cli_args(seed),
    }


# -- measurement -----------------------------------------------------------------

def time_cli(w, seed, seconds, ledger):
    """Closed loop: start the next invocation when the last returns.

    Runs for at least ``seconds`` and until one invocation succeeded, but
    stops at the first failure and never runs past the run's deadline.
    """
    walls, rss, hashes, work = [], [], set(), None
    start = time.perf_counter()
    while time.perf_counter() < ledger.deadline and (
            time.perf_counter() - start < seconds or not walls):
        rc, out, err, wall, peak = run_child(ghwlab_argv(w, seed), ledger.deadline)
        problems = check_cli_output(w, seed, rc, out)
        if rc != 0 and err.strip():
            problems.append(err.strip().splitlines()[-1])
        if not ledger.record(f"cli#{len(walls)}", problems):
            break
        walls.append(wall)
        rss.append(peak)
        hashes.add(hashlib.sha256(out.encode()).hexdigest())
        rec = json.loads(out)
        work = (rec["checked"] if w.command == "verify"
                else sum(row["subspaces_examined"] for row in rec["results"]))
    ledger.record("cli-stdout-identical",
                  [f"{len(hashes)} different outputs"] if len(hashes) > 1 else [])
    return walls, rss, hashes, work


def time_setup(w, seed, ledger):
    """Set-up seconds from fresh processes; stops at the first failure."""
    times = []
    start = time.perf_counter()
    while time.perf_counter() < ledger.deadline and (
            len(times) < SETUP_MIN_REPEATS
            or time.perf_counter() - start < SETUP_MIN_SECONDS):
        rc, out, err, _, _ = run_child(replay_argv(w, seed, "setup"), ledger.deadline)
        res = last_json(out) if rc == 0 else None
        problems = [] if res else [f"exit code {rc}: {err.strip()[-300:]}"]
        if res and not Path(res["module"]).resolve().is_relative_to(SRC):
            problems.append(f"imported ghwlab from {res['module']}, not from {SRC}")
        if not ledger.record(f"setup#{len(times)}", problems):
            break
        times.append(res["setup_s"])
    return times


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def describe(name, values, unit):
    pct, val = tail_percentile(values)
    tail = f"p{pct} {val:.6g}" if pct is not None else "tail n/a (n < 11)"
    return f"{name:<28} median {statistics.median(values):.6g} {unit}  {tail}  n={len(values)}"


def run_untraced(w, seed, seconds, ledger, lines):
    setup = time_setup(w, seed, ledger)
    walls, rss, hashes, work = time_cli(w, seed, seconds, ledger)
    if not walls or not setup:
        return {}, {}
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "subspaces_per_s": (work / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss) / MB, "MB"),
    }
    lines += [describe("wall_s", walls, "s"), describe("setup_s", setup, "s"),
              describe("subspaces_per_s", [work / x for x in walls], "1/s"),
              describe("peak_rss_mb", [x / MB for x in rss], "MB")]
    key = "stdout_sha256" if w.command == "ghw" else f"stdout_sha256@seed{seed}"
    counts = {key: sorted(hashes)[0]} if len(hashes) == 1 else {}
    raw = {"wall_s": walls, "setup_s": setup, "peak_rss_bytes": rss, "work": work}
    return metrics, {"counts": counts, "samples": raw}


def _dur(span):
    return span["end"] - span["start"]


def total(spans, name, **attrs):
    return sum(_dur(s) for s in spans
               if s["name"] == name and all(s.get(k) == v for k, v in attrs.items()))


def self_total(spans, name):
    """Sum over spans named ``name`` of duration minus their children's."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)
    return sum(_dur(s) - children.get(s["id"], 0.0) for s in spans if s["name"] == name)


def ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(cli, layers, wall, cli_wall):
    spans = cli["spans"]
    lspans = layers["spans"] if layers else []
    both = spans + lspans
    rows = cli.get("sweeps", []) + (layers["sweeps"] if layers else [])
    enum = total(lspans, "subspaces.enumerate")
    to_msgs = total(lspans, "linalg.enumerate_to_messages") - enum
    enumerated = sum(layers["enumerated"].values()) if layers else 0
    tables = total(spans, "fields.trace_table")
    n_tables = sum(1 for s in spans if s["name"] == "fields.trace_table")
    m = {
        "fields.build_field_s": (total(spans, "fields.build_field"), "s"),
        "fields.trace_table_s": (tables, "s"),
        "fields.trace_elems_per_s": (ratio(cli["Q"] * n_tables, tables), "1/s"),
        "codes.derive_params_self_s": (self_total(spans, "codes.derive_params"), "s"),
        "codes.trace_code_s": (self_total(spans, "codes.trace_code"), "s"),
        "cyclotomy.period_table_s": (self_total(spans, "cyclotomy.period_table"), "s"),
        "subspaces.enumerate_s": (enum, "s"),
        "subspaces.enumerated_per_s": (ratio(enumerated, enum), "1/s"),
        "linalg.to_messages_s": (to_msgs, "s"),
    }
    sweep_j = {}
    for method in ("brute", "dual"):
        for jobs in (1, 2):
            sweep_j[method, jobs] = total(both, f"oracle.{method}_sweep", jobs=jobs)
        serial = [row for row in rows if row["method"] == method and row["jobs"] == 1]
        examined = sum(row["examined"] for row in serial)
        sweep = sweep_j[method, 1]
        score_self = sweep - enum - to_msgs if sweep else 0.0
        m[f"oracle.{method}_sweep_s"] = (sweep, "s")
        m[f"oracle.{method}_per_s"] = (ratio(examined, sweep), "1/s")
        m[f"oracle.{method}_score_self_s"] = (score_self, "s")
        if method == "brute":
            codewords = sum(row["r"] * row["examined"] for row in serial)
            m["codes.codewords"] = (codewords, "count")
            m["codes.codeword_us"] = (ratio(score_self * 1e6, codewords), "us")
    j1 = sweep_j["brute", 1] + sweep_j["dual", 1]
    j2 = sweep_j["brute", 2] + sweep_j["dual", 2]
    top = sum(_dur(s) for s in spans if s["parent"] is None)
    m.update({
        "oracle.pool_speedup_j2": (ratio(j1, j2) if j1 else 0.0, "x"),
        "codes.pickled_bytes": (cli["pickled_bytes"], "bytes"),
        "linalg.sample_bases_s": (total(spans, "linalg.sample_bases"), "s"),
        "hierarchy.character_sum_s": (self_total(spans, "hierarchy.character_sum"), "s"),
        "oracle.exact_count_s": (total(spans, "oracle.exact_count"), "s"),
        "cli.other_s": (wall - top, "s"),
        "trace.overhead_s": (cli_wall - wall, "s"),
    })
    return m


def run_traced(w, seed, seconds, ledger, lines):
    start = time.perf_counter()
    parts = {}
    for part in ("cli", "layers") if w.command == "ghw" else ("cli",):
        rc, out, err, wall, _ = run_child(replay_argv(w, seed, part), ledger.deadline)
        res = last_json(out) if rc == 0 else None
        if not ledger.record(f"replay-{part}", [] if res else
                             [f"exit code {rc}: {err.strip()[-300:]}"]):
            return {}, {}
        parts[part] = res
        parts[part + "_wall"] = wall
    cli, layers = parts["cli"], parts.get("layers")
    if w.command == "ghw":
        rows = cli["sweeps"] + layers["sweeps"]
        problems = check_ghw_hierarchies(w, cli["sweeps"]) + check_examined(w, rows)
        problems += [f"enumerated {n} at r={r}, expected {gaussian_binomial(w.k, int(r), w.q)}"
                     for r, n in layers["enumerated"].items()
                     if n != gaussian_binomial(w.k, int(r), w.q)]
    else:
        v = cli["verify"]
        problems = ([] if v["checked"] == w.count and v["max_abs_err"] <= VERIFY_TOLERANCE
                    else [f"replayed verify: {v}"])
    ledger.record("replay-check", problems)
    left = seconds - (time.perf_counter() - start)
    walls, _, _, _ = time_cli(w, seed, left, ledger)
    if not walls:
        return {}, {}
    wall = statistics.median(walls)
    metrics = per_layer(cli, layers, wall, parts["cli_wall"])
    lines.append(describe("untraced wall_s", walls, "s"))
    lines.append(f"{'traced cli replay':<28} {parts['cli_wall']:.6g} s  n=1")
    lines += [f"{name:<28} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    counts = {"codes.pickled_bytes": cli["pickled_bytes"],
              "codes.codewords": metrics["codes.codewords"][0]}
    if layers:
        counts.update({f"enumerated@r{r}": n for r, n in layers["enumerated"].items()})
    raw = {"untraced_wall_s": walls, "replay_wall_s": {k: v for k, v in parts.items()
                                                        if k.endswith("_wall")},
           "spans": {"cli": cli["spans"], "layers": layers["spans"] if layers else []}}
    return metrics, {"counts": counts, "samples": raw}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not (SRC / "ghwlab" / "__init__.py").is_file():
        print(f"error: no ghwlab sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if w.jobs > nproc:
        print(f"error: {w.name} passes --jobs {w.jobs} but only {nproc} CPUs are "
              "available; refusing to oversubscribe", file=sys.stderr)
        return 2

    env = environment(w, args.seed, args.trace)
    lines = ["# " + " ".join(f"{k}={v}" for k, v in env.items() if k != "argv"),
             "# ghwlab " + " ".join(env["argv"])]
    ledger = Ledger()
    runner = run_traced if args.trace else run_untraced
    metrics, extra = runner(w, args.seed, args.seconds, ledger, lines)
    ledger.record("exact-counts", check_exact_counts(w, extra.get("counts", {})))
    correct = bool(metrics) and not ledger.failed
    lines.append(f"{'error_rate':<28} {ledger.failed}/{ledger.attempted} = "
                 f"{ratio(ledger.failed, ledger.attempted):.6g} share")
    lines += [f"FAIL {p}" for p in ledger.problems]

    RESULTS.mkdir(exist_ok=True)
    record = {"environment": env, "correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "problems": ledger.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    (RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(ledger.attempted, 1),
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
