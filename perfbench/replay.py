"""Replay one workload as calls into ghwlab's public functions, in a fresh process.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/replay.py --workload NAME --seed N --part setup|cli|layers

``setup`` times import plus the workload's set-up calls and prints the
seconds.  ``cli`` repeats exactly the calls the CLI command makes, with a
span around each call into a layer.  ``layers`` isolates what the CLI does
not time on its own: subspace enumeration with no scorer, the conversion of
RREF rows to messages, and the sweeps at the other job count.  The spans stay
in memory and the last stdout line is one JSON object holding all of them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import random
import sys
import time
from contextlib import contextmanager

from workloads import WORKLOADS


class Tracer:
    """Spans with name, start, end, parent and run id, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, owner, attr: str, name: str, first_only=None):
        """Record a span around every call of ``owner.attr`` while active.

        ``first_only(args)`` gives a key; only the first call per key gets a
        span, for methods that build a table once and then return it.
        """
        original = getattr(owner, attr)
        seen = set()

        def traced(*args, **kwargs):
            if first_only is not None:
                key = first_only(args)
                if key in seen:
                    return original(*args, **kwargs)
                seen.add(key)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)


def _set_up(gl, w):
    return gl.codes.TraceCode(gl.codes.derive_params(w.p, w.s, w.m, w.e, w.t, w.a))


def part_setup(w):
    start = time.perf_counter()
    gl = _import_ghwlab()
    code = _set_up(gl, w)
    if w.command == "verify":
        code.cyclotomy.period_table()
    return {"setup_s": time.perf_counter() - start, "module": gl.__file__}


def _import_ghwlab():
    gl = importlib.import_module("ghwlab")
    for sub in ("codes", "cyclotomy", "fields", "hierarchy", "linalg", "oracle", "subspaces"):
        importlib.import_module(f"ghwlab.{sub}")
    return gl


def part_cli(w, seed, tracer):
    """The calls of ``cmd_ghw`` / ``cmd_verify``, each inside a span."""
    gl = _import_ghwlab()
    out = {}
    with tracer.patched(gl.codes, "build_field", "fields.build_field"), \
            tracer.patched(gl.fields.FieldCtx, "trace_table", "fields.trace_table",
                           first_only=lambda a: (id(a[0]), a[1])), \
            tracer.patched(gl.cyclotomy.CyclotomyCtx, "period_table",
                           "cyclotomy.period_table", first_only=lambda a: id(a[0])):
        with tracer.span("codes.derive_params"):
            params = gl.codes.derive_params(w.p, w.s, w.m, w.e, w.t, w.a)
        with tracer.span("codes.check_hypotheses"):
            report = gl.codes.check_closed_form_hypotheses(params)
        with tracer.span("codes.trace_code"):
            code = gl.codes.TraceCode(params)
        if w.command == "ghw":
            if report.all_hold:
                raise RuntimeError("the replay covers sweeps only; this workload "
                                   "would also run the closed form")
            out["sweeps"] = _sweeps(gl, code, w, w.jobs, tracer)
        else:
            out["verify"] = _verify(gl, code, w, seed, tracer)
    out["Q"] = params.Q
    out["pickled_bytes"] = len(pickle.dumps(code))
    return out


def _sweeps(gl, code, w, jobs, tracer):
    rows = []
    for method, sweep in (("brute", gl.oracle.ghw_bruteforce),
                          ("dual", gl.oracle.ghw_dual_sweep)):
        for r in w.r_list:
            with tracer.span(f"oracle.{method}_sweep", r=r, jobs=jobs):
                res = sweep(code, r, jobs=jobs)
            rows.append({"method": method, "r": r, "jobs": jobs,
                         "d_r": res.d_r, "examined": res.examined})
    return rows


def _verify(gl, code, w, seed, tracer):
    """Same RNG sequence as ``ghwlab verify --seed``."""
    field = code.field
    params = code.params
    rng = random.Random(seed)
    errors = []
    for _ in range(w.count):
        with tracer.span("linalg.sample_bases"):
            r = rng.randint(1, params.k)
            basis = []
            while len(basis) < r:
                cand = tuple(rng.randrange(params.Q) for _ in range(params.t))
                if any(cand) and gl.linalg.vectors_independent(field, basis + [cand]):
                    basis.append(cand)
        with tracer.span("hierarchy.character_sum", r=r):
            numeric = gl.hierarchy.character_sum_count(code, basis)
        with tracer.span("oracle.exact_count", r=r):
            exact = gl.oracle.count_common_zeros(code, basis)
        errors.append(abs(numeric - exact))
    return {"checked": len(errors), "max_abs_err": max(errors, default=0.0)}


def part_layers(w, tracer):
    """Enumeration alone, row-to-message conversion, and the other job count."""
    gl = _import_ghwlab()
    code = _set_up(gl, w)
    field = code.field
    d = code.t * field.m
    out = {"enumerated": {}}
    for r in w.r_list:
        it = gl.subspaces.SubspaceIter(field, d, r)
        count = 0
        with tracer.span("subspaces.enumerate", r=r):
            for pattern in it.patterns():
                for _ in it.iter_pattern(pattern):
                    count += 1
        out["enumerated"][str(r)] = count
        to_messages = gl.linalg.vector_from_coords
        with tracer.span("linalg.enumerate_to_messages", r=r):
            for pattern in it.patterns():
                for rows in it.iter_pattern(pattern):
                    tuple(to_messages(field, code.t, row) for row in rows)
    other = 2 if w.jobs == 1 else 1
    if other <= len(os.sched_getaffinity(0)):
        out["sweeps"] = _sweeps(gl, code, w, other, tracer)
    else:
        out["sweeps"] = []
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", required=True, choices=("setup", "cli", "layers"))
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.part == "setup":
        result = part_setup(w)
    else:
        tracer = Tracer(f"{w.name}-seed{args.seed}-{args.part}-{os.getpid()}")
        result = (part_cli(w, args.seed, tracer) if args.part == "cli"
                  else part_layers(w, tracer))
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
