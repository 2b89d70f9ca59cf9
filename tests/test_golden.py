"""``ghw --no-timing`` and ``verify`` output pinned byte for byte.

Each ``tests/golden/<name>.json`` is the stdout of ``ghwlab ghw <args>
--no-timing`` for the arguments below.  Witnesses and subspace counts are
part of the bytes, so a scoring change that alters which subspace wins, or
an enumeration change, fails here.  Each ``tests/golden/verify_<name>.json``
is the stdout of ``ghwlab verify <args>``, which prints no timing; the
character sum is an exact integer count, so its ``max_abs_err`` is 0.0.
Each ``tests/golden/params_<name>.json`` is the stdout of ``ghwlab params
<args>``; these pin the assumption-iii verdicts and detail strings (one
pass, one repeated minimal polynomial, two kinds of degree failure).
"""

import time
from pathlib import Path

import pytest

from ghwlab import cli
from ghwlab.cli import main
from ghwlab.hierarchy import character_sum_count

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "ex1": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"],
    "ex2": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "2"],
    "irr21": ["--p", "2", "--m", "6", "--e", "1", "--t", "1", "--a", "3"],
    "simplex": ["--p", "2", "--m", "2", "--e", "1", "--t", "1", "--a", "1"],
    "e3t1": ["--p", "2", "--m", "4", "--e", "3", "--t", "1", "--a", "1",
             "--deltas", "0"],
    "gf4": ["--p", "2", "--s", "2", "--m", "2", "--e", "3", "--t", "3", "--a", "1",
            "--r", "1,5", "--jobs", "2"],
    "brute_80_8": ["--p", "3", "--s", "1", "--m", "4", "--e", "2", "--t", "2",
                   "--a", "1", "--r", "1,7", "--method", "all", "--jobs", "1"],
    "dual_par_17_8": ["--p", "2", "--s", "1", "--m", "8", "--e", "1", "--t", "1",
                      "--a", "15", "--r", "3", "--method", "all", "--jobs", "2"],
    # [364,12] over GF(3): 265,720 subspaces at r = 1 and at r = 11, on the
    # kernel's value planes; pinned from the index-list kernel's output
    "364_12_r1_11_12": ["--p", "3", "--m", "6", "--e", "2", "--t", "2", "--a", "2",
                        "--r", "1,11,12", "--method", "all", "--jobs", "1"],
    # k = 1 over GF(3^10) and k = 2 over GF(3^5): q is large, so the kernel's
    # q x q tables must be built a row at a time
    "bigfield_61_1": ["--p", "3", "--s", "10", "--m", "1", "--e", "1", "--t", "1",
                      "--a", "968", "--method", "all"],
    "gf243_242_2": ["--p", "3", "--s", "5", "--m", "1", "--e", "2", "--t", "2",
                    "--a", "1", "--method", "all"],
}

VERIFY_CASES = {
    "ex1": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6",
            "--count", "25", "--seed", "1"],
    "q9": ["--p", "3", "--s", "2", "--m", "2", "--e", "1", "--t", "1", "--a", "5"],
    "80_8": ["--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1",
             "--count", "10"],
    "61_1": ["--p", "3", "--s", "10", "--m", "1", "--e", "1", "--t", "1",
             "--a", "968", "--count", "2", "--seed", "0"],
    # p = 2: GF(4) inside GF(16) with three scalars per image, and q = 2,
    # where each image has a single nonzero multiple
    "gf4": ["--p", "2", "--s", "2", "--m", "2", "--e", "3", "--t", "3", "--a", "1",
            "--count", "20"],
    "15_12": ["--p", "2", "--m", "4", "--e", "3", "--t", "3", "--a", "1",
              "--count", "20", "--seed", "0"],
}

PARAMS_CASES = {
    "p7_m2_e2_t2_a6": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"],
    "p7_m2_e2_t2_a4": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "4"],
    "p7_m2_e2_t2_a8": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "8"],
    "p2_m6_e3_t3_a3": ["--p", "2", "--m", "6", "--e", "3", "--t", "3", "--a", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ghw_output_is_byte_identical(name, capsys):
    code = main(["ghw", *CASES[name], "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["bigfield_61_1", "gf243_242_2"])
def test_big_field_sweeps_finish_in_2_s(name, capsys):
    # about 0.6 s and 0.2 s as separate processes on a 2-CPU box; a whole
    # q x q table over GF(3^10) would hold 3.5e9 entries
    start = time.perf_counter()
    code = main(["ghw", *CASES[name], "--no-timing"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()
    assert elapsed < 2.0


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_output_is_byte_identical(name, capsys):
    code = main(["verify", *VERIFY_CASES[name]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"verify_{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_character_sums_are_ints(name, capsys, monkeypatch):
    values = []

    def recorded(code, basis):
        values.append(character_sum_count(code, basis))
        return values[-1]

    monkeypatch.setattr(cli, "character_sum_count", recorded)
    assert main(["verify", *VERIFY_CASES[name]]) == 0
    capsys.readouterr()
    assert values and all(type(v) is int for v in values)


@pytest.mark.parametrize("name", sorted(PARAMS_CASES))
def test_params_output_is_byte_identical(name, capsys):
    code = main(["params", *PARAMS_CASES[name]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"params_{name}.json").read_bytes()
