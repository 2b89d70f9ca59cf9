import cmath
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ghwlab import cli, oracle
from ghwlab.codes import TraceCode, derive_params
from ghwlab.errors import BudgetExceeded
from ghwlab.linalg import rref, vectors_independent
from ghwlab.oracle import count_common_zeros, ghw_bruteforce, ghw_dual_sweep
from ghwlab.subspaces import SubspaceIter, gaussian_binomial

from helpers import DualContext, frobenius_trace, span_vectors
from paper_lemmas import count_via_dual, vector_coords


def test_brute_example1(example1):
    assert [ghw_bruteforce(example1, r).d_r for r in range(1, 5)] == [2, 4, 6, 8]


def test_brute_simplex(simplex):
    assert ghw_bruteforce(simplex, 1).d_r == 2
    assert ghw_bruteforce(simplex, 2).d_r == 3


def test_brute_witness_achieves_value(example1):
    res = ghw_bruteforce(example1, 2)
    assert len(example1.support_union(res.witness)) == res.d_r == 4
    assert res.examined == 2850


def test_brute_deterministic_witness(example1):
    a = ghw_bruteforce(example1, 1)
    b = ghw_bruteforce(example1, 1)
    assert a.witness == b.witness


def test_budget_guard(example1):
    with pytest.raises(BudgetExceeded) as exc:
        ghw_bruteforce(example1, 2, budget=100)
    assert exc.value.count == 2850
    assert "2850" in str(exc.value)
    # the guard admits a sweep of exactly the budget, and not one more
    assert ghw_bruteforce(example1, 2, budget=2850).examined == 2850
    with pytest.raises(BudgetExceeded) as exc:
        ghw_bruteforce(example1, 2, budget=2849)
    assert exc.value.count == 2850


def test_brute_witness_recount_catches_a_wrong_score(example1, monkeypatch):
    real = oracle._brute_scorer

    def off_by_one(code):
        matrix, score = real(code)
        return matrix, lambda pops: score(pops) + 1

    monkeypatch.setattr(oracle, "_brute_scorer", off_by_one)
    with pytest.raises(RuntimeError, match="recounts to 6 common zeros, the sweep scored 7"):
        ghw_bruteforce(example1, 1)
    # the parent recounts the best subspace of every forked share
    with pytest.raises(RuntimeError, match=r"r=1 recounts to \d+ common zeros"):
        ghw_bruteforce(example1, 1, jobs=2)


def test_brute_recount_checks_every_share(monkeypatch):
    # [24,4] over GF(5) at r=2 on two jobs: the forked child's share peaks
    # at 8 common zeros and the parent's at 12, so a child that scores one
    # too high still loses the reduction, and only a recount of every
    # share's best, not of the winner alone, catches it
    code = TraceCode(derive_params(5, 1, 2, 2, 2, 1))
    assert ghw_bruteforce(code, 2, jobs=2).common_zeros == 12

    def one_too_high(real, *args):
        zeros, *rest = real(*args)
        return (zeros + 1, *rest)

    _in_children(monkeypatch, one_too_high)
    with pytest.raises(RuntimeError, match="r=2 recounts to 8 common zeros, the sweep scored 9"):
        ghw_bruteforce(code, 2, jobs=2)
    _no_children_left()


def test_examined_check_catches_a_skipped_subspace(example1, monkeypatch):
    real = oracle._RowMasks.row_masks

    def skipping(self, pivot, free):
        # drops the last choice of every row that has several: on example 1
        # at r=1 the patterns hold 343 + 49 + 7 + 1 = 400 subspaces
        masks = real(self, pivot, free)
        return masks[:-1] if len(masks) > 1 else masks

    monkeypatch.setattr(oracle._RowMasks, "row_masks", skipping)
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="sweep visited 397 subspaces, expected 400"):
            ghw_bruteforce(example1, 1, jobs=jobs)


def test_pool_units_balance_the_workers():
    # [15,6] over GF(4) at r=3: pattern (0,1,2) alone holds 262,144 of the
    # 376,805 subspaces, so dealing whole patterns cannot balance two workers
    code = TraceCode(derive_params(2, 2, 2, 3, 3, 1))
    total = gaussian_binomial(6, 3, 4)
    it = SubspaceIter(code.field, code.k, 3)
    units = oracle._work_units(it, code.q, 2, total)
    sizes = {unit: size for size, unit in units}
    chunks = oracle._deal(units, 2)
    loads = [sum(sizes[unit] for unit in chunk) for chunk in chunks]
    assert len(chunks) == 2 and sum(loads) == total
    assert max(loads) - min(loads) <= max(sizes.values())
    matrix, score = oracle._brute_scorer(code)
    kernel = oracle._RowMasks(code.field, matrix)
    for chunk, load in zip(chunks, loads):
        assert oracle._sweep_units(kernel, score, it, chunk)[3] == load
    for sweep in (ghw_bruteforce, ghw_dual_sweep):
        assert sweep(code, 3, jobs=2) == sweep(code, 3, jobs=1)


def test_parallel_matches_serial(example1):
    serial = ghw_bruteforce(example1, 2, jobs=1)
    parallel = ghw_bruteforce(example1, 2, jobs=2)
    assert serial.d_r == parallel.d_r
    assert serial.witness == parallel.witness
    assert serial.examined == parallel.examined


def test_pool_workers_inherit_the_code(example1, monkeypatch):
    # tasks carry (r, patterns, mode) only; a pickled TraceCode would raise
    serial = [ghw_bruteforce(example1, 2), ghw_dual_sweep(example1, 2)]

    def refuse(self, protocol):
        raise TypeError("TraceCode was pickled")
    monkeypatch.setattr(TraceCode, "__reduce_ex__", refuse)
    assert [ghw_bruteforce(example1, 2, jobs=2),
            ghw_dual_sweep(example1, 2, jobs=2)] == serial


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_children(monkeypatch, child, parent=None):
    """Patch ``_sweep_units`` to run ``child`` in forked children only, and
    ``parent`` (default: the real sweep) in this process."""
    real, me = oracle._sweep_units, os.getpid()

    def patched(*args):
        return (parent or real)(*args) if os.getpid() == me else child(real, *args)
    monkeypatch.setattr(oracle, "_sweep_units", patched)


def test_fan_out_maps_in_chunk_order():
    me = os.getpid()

    def sweep(chunk):
        return os.getpid() == me, sum(chunk)
    assert oracle._fan_out(sweep, [[1, 2], [3], [4, 5]]) == [(False, 3), (False, 3), (True, 9)]
    assert oracle._fan_out(sweep, [[4, 5]]) == [(True, 9)]  # one share forks nothing
    _no_children_left()


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_fan_out_passes_a_child_error_through(error):
    def fail(chunk):
        raise error(f"unit sweep failed on {chunk}")

    with pytest.raises(error) as serial:
        oracle._fan_out(fail, [[1]])
    me = os.getpid()
    with pytest.raises(error) as fanned:
        oracle._fan_out(lambda chunk: chunk if os.getpid() == me else fail(chunk), [[1], [2]])
    assert type(fanned.value) is type(serial.value) is error
    assert str(fanned.value) == str(serial.value) == "unit sweep failed on [1]"
    _no_children_left()


def test_fan_out_reports_a_child_that_dies(example1, monkeypatch, capsys):
    me = os.getpid()
    with pytest.raises(RuntimeError, match=r"sweep child \d+ ended without a result"):
        oracle._fan_out(lambda chunk: chunk if os.getpid() == me else os._exit(1), [[1], [2]])
    _no_children_left()
    _in_children(monkeypatch, lambda *args: os._exit(1))
    with pytest.raises(RuntimeError, match=r"sweep child \d+ ended without a result"):
        ghw_dual_sweep(example1, 1, jobs=2)
    _no_children_left()
    argv = ["ghw", "--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6",
            "--r", "1", "--method", "brute", "--jobs", "2", "--no-timing"]
    assert cli.main(argv) == 3
    assert "ended without a result" in capsys.readouterr().err
    _no_children_left()


def test_fan_out_kills_the_children_when_its_own_share_fails(example1, monkeypatch):
    def slow(real, *args):
        time.sleep(60)
        return real(*args)

    def fail(*args):
        raise RuntimeError("the parent's share failed")

    killed = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid) or kill(pid, sig))
    _in_children(monkeypatch, slow, fail)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="the parent's share failed"):
        ghw_bruteforce(example1, 1, jobs=2)
    assert time.monotonic() - start < 30
    assert len(killed) == 1 and killed[0] != os.getpid()
    _no_children_left()


def test_fan_out_children_skip_atexit_and_buffered_output():
    # stdout is a pipe, so "before" sits in the buffer when the parent forks
    probe = """
import atexit, sys
from ghwlab.codes import TraceCode, derive_params
from ghwlab.oracle import ghw_bruteforce
atexit.register(lambda: print("atexit"))
sys.stdout.write("before\\n")
code = TraceCode(derive_params(7, 1, 2, 2, 2, 6, (0, 1)))
print(ghw_bruteforce(code, 2, jobs=2).d_r)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout == "before\n4\natexit\n"


def test_count_common_zeros_extremes(example1):
    f = example1.field
    full = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert count_common_zeros(example1, full) == 0
    line = ghw_bruteforce(example1, 1).witness
    assert count_common_zeros(example1, list(line)) == 6


def test_common_zeros_singleton_bound(example1):
    rng = random.Random(7)
    f = example1.field
    for _ in range(40):
        r = rng.randint(1, 4)
        basis = []
        while len(basis) < r:
            cand = (rng.randrange(49), rng.randrange(49))
            if any(cand) and vectors_independent(f, basis + [cand]):
                basis.append(cand)
        assert count_common_zeros(example1, basis) <= example1.n - r


def test_dual_space_dimensions(example1):
    dual = DualContext(example1.field, 2)
    rng = random.Random(3)
    for r in (1, 2, 3):
        basis = []
        while len(basis) < r:
            cand = (rng.randrange(49), rng.randrange(49))
            if any(cand) and vectors_independent(example1.field, basis + [cand]):
                basis.append(cand)
        perp = dual.dual_space(basis)
        assert len(perp) == 4 - r
        for x in basis:
            for y in perp:
                assert dual.pair(x, y) == 0


def test_dual_space_of_full_space(example1):
    f = example1.field
    full = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert DualContext(f, 2).dual_space(full) == []


def test_double_dual_round_trip(example1):
    f = example1.field
    dual = DualContext(f, 2)
    rng = random.Random(11)
    for _ in range(10):
        basis = []
        while len(basis) < 2:
            cand = (rng.randrange(49), rng.randrange(49))
            if any(cand) and vectors_independent(f, basis + [cand]):
                basis.append(cand)
        ddual = dual.dual_space(dual.dual_space(basis))
        orig_key, _ = rref(f, [vector_coords(f, v) for v in basis])
        dd_key, _ = rref(f, [vector_coords(f, v) for v in ddual])
        assert orig_key == dd_key


def test_orthogonality_identity(example1):
    # averaging the GF(q) character over the dual detects membership in H
    f = example1.field
    dual = DualContext(f, 2)
    rng = random.Random(5)
    basis = []
    while len(basis) < 2:
        cand = (rng.randrange(49), rng.randrange(49))
        if any(cand) and vectors_independent(f, basis + [cand]):
            basis.append(cand)
    perp = dual.dual_space(basis)
    members = set(span_vectors(f, basis))
    perp_elems = span_vectors(f, perp) if perp else [(0, 0)]
    for y in [(1, 2), (0, 0), basis[0], (rng.randrange(49), rng.randrange(49))]:
        total = 0j
        for x in perp_elems:
            val = dual.pair(x, y)
            total += cmath.exp(2j * cmath.pi * frobenius_trace(f, val, 1, f.s) / f.p)
        avg = total / len(perp_elems)
        expected = 1.0 if tuple(y) in members else 0.0
        assert abs(avg - expected) < 1e-9


def test_count_via_dual_requires_e_equals_t():
    # e=3 > t=1 over GF(2^4): dual counting is out of scope there
    params = derive_params(2, 1, 4, 3, 1, 1, (0,))
    assert params.assumptions.all_ok
    code = TraceCode(params)
    with pytest.raises(ValueError, match="e == t"):
        count_via_dual(code, [(1,)])


def test_dual_sweep_requires_e_equals_t():
    # the sweep skips count_via_dual's checks per subspace, so it must make
    # the e == t check itself instead of reporting a wrong hierarchy
    code = TraceCode(derive_params(2, 1, 4, 3, 1, 1, (0,)))
    with pytest.raises(ValueError, match="e == t"):
        ghw_dual_sweep(code, 1)


def test_count_via_dual_rejects_dependent(example1):
    with pytest.raises(ValueError, match="dependent"):
        count_via_dual(example1, [(1, 1), (2, 2)])


def test_count_via_dual_trivial_cases(example1):
    f = example1.field
    # full message space: the dual is zero, so no axis-supported vectors
    full = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert count_via_dual(example1, full) == 0


def test_dual_sweep_matches_brute_maxima(example1):
    for r in range(1, 5):
        assert ghw_dual_sweep(example1, r).d_r == ghw_bruteforce(example1, r).d_r


def test_dual_sweep_example2_r2(example2):
    assert ghw_dual_sweep(example2, 2).d_r == 12


def test_dual_count_max_line_example1(example1):
    # max over 1-dim subspaces of the dual recount equals n - d_1 = 6
    res = ghw_dual_sweep(example1, 1)
    assert res.common_zeros == 6
    assert count_via_dual(example1, list(res.witness)) == 6


def test_result_record_shape(example1):
    res = ghw_bruteforce(example1, 1)
    d = res.to_dict()
    assert d["r"] == 1
    assert d["d_r"] == 2
    assert d["subspaces_examined"] == 400
    assert isinstance(d["witness_basis"], list)
