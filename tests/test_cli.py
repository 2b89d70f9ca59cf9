import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ghwlab.cli as cli
from ghwlab import codes, fields, hierarchy, oracle
from ghwlab.cli import main
from ghwlab.codes import TraceCode
from ghwlab.oracle import DEFAULT_BUDGET, GHWResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EX1 = ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"]
SIMPLEX = ["--p", "2", "--m", "2", "--e", "1", "--t", "1", "--a", "1"]


def test_params_example1(capsys):
    code, out, _ = run(capsys, "params", *EX1, "--deltas", "0,1")
    assert code == 0
    record = json.loads(out)
    assert record["params"]["n"] == 8
    assert record["params"]["N"] == 4
    assert record["params"]["k"] == 4
    assert record["assumptions"]["all_ok"]
    assert record["hypotheses"]["all_hold"]
    assert record["index_base"] == 0
    assert record["field"]["modulus_coeffs"] == [3, 1, 1]


def test_params_example2(capsys):
    code, out, _ = run(capsys, "params", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a", "2")
    assert code == 0
    record = json.loads(out)
    assert record["params"]["n"] == 24
    assert record["params"]["N"] == 4


def test_params_rejects_nonprime(capsys):
    code, _, err = run(capsys, "params", "--p", "4", "--m", "2", "--e", "2",
                       "--t", "2", "--a", "6")
    assert code == 2
    assert "prime" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "params", "--p", "7")
    assert code == 2


def test_check_exit_codes(capsys):
    code, _, _ = run(capsys, "check", *EX1)
    assert code == 0
    code, out, _ = run(capsys, "check", *SIMPLEX)
    assert code == 4
    assert not json.loads(out)["hypotheses"]["all_hold"]


def test_ghw_all_methods_agree(capsys):
    code, out, _ = run(capsys, "ghw", *EX1, "--no-timing")
    assert code == 0
    record = json.loads(out)
    assert record["match"] is True
    assert record["hierarchy"]["formula"] == [2, 4, 6, 8]
    assert record["hierarchy"]["brute"] == [2, 4, 6, 8]
    assert record["hierarchy"]["dual"] == [2, 4, 6, 8]
    formula_rows = [row for row in record["results"] if row["method"] == "formula"]
    assert formula_rows[0]["u_star"] == [2, 1]
    assert formula_rows[0]["branch"] == "high"
    assert formula_rows[1]["branch"] == "low"


def test_ghw_formula_refusal(capsys):
    code, _, err = run(capsys, "ghw", *SIMPLEX, "--method", "formula")
    assert code == 4
    assert "N_in_range" in err


# the hypotheses hold, but a_i = [2, 2]: assumptions ii and iii fail and the
# code has dimension 6, not the t*m = 12 the closed form would assume
DUPLICATE_EXPONENTS = ["--p", "3", "--m", "6", "--e", "2", "--t", "2", "--a", "2",
                       "--deltas", "0,2"]
ASSUMPTIONS_FAILED = ("closed form unavailable: assumption ii: deltas collide mod e at "
                      "residues [0]; assumption iii: repeated minimal polynomial")


@pytest.mark.parametrize("argv, exit_code", [
    (["ghw", "--method", "formula"], 4),
    (["flv"], 4),
    (["check"], 4),
    (["ghw", "--method", "all"], 2),  # no formula, and no code to sweep
])
def test_failed_assumptions_refuse_the_closed_form(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv, *DUPLICATE_EXPONENTS)
    assert code == exit_code
    if argv == ["check"]:
        record = json.loads(out)
        assert record["hypotheses"]["all_hold"] and not record["assumptions"]["all_ok"]
    elif exit_code == 4:
        assert err.startswith("error: " + ASSUMPTIONS_FAILED) and out == ""
    else:
        assert "cannot materialize code" in err and out == ""


def test_params_prints_the_real_dimension(capsys):
    # a_i = [2, 2] span one 6-dimensional space, not t*m = 12 dimensions
    code, out, _ = run(capsys, "params", *DUPLICATE_EXPONENTS)
    assert code == 0
    assert json.loads(out)["params"]["k"] == 6


CODE_364_12 = ["--p", "3", "--m", "6", "--e", "2", "--t", "2", "--a", "2"]


@pytest.mark.parametrize("argv", [
    ["ghw", *CODE_364_12, "--method", "formula", "--no-timing"],
    ["ghw", *CODE_364_12, "--method", "all", "--r", "1,11,12", "--no-timing"],
    ["flv", *CODE_364_12],
])
def test_each_run_evaluates_the_regime_once(capsys, monkeypatch, argv):
    # every module that binds semiprimitive_j counts its calls
    calls = []
    for module in (codes, hierarchy):
        if hasattr(module, "semiprimitive_j"):
            real = module.semiprimitive_j
            monkeypatch.setattr(module, "semiprimitive_j",
                                lambda p, N, real=real: calls.append((p, N)) or real(p, N))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [(3, 4)]


def test_ghw_all_without_hypotheses_still_cross_checks(capsys):
    code, out, _ = run(capsys, "ghw", *SIMPLEX, "--no-timing")
    assert code == 0
    record = json.loads(out)
    assert "formula" not in record["hierarchy"]
    assert record["hierarchy"]["brute"] == record["hierarchy"]["dual"] == [2, 3]


def test_ghw_budget_exit(capsys):
    code, _, err = run(capsys, "ghw", *EX1, "--method", "brute", "--budget", "100")
    assert code == 5
    assert "400" in err     # exact count for the first refused sweep
    code, _, err = run(capsys, "ghw", *EX1, "--method", "brute", "--r", "2",
                       "--budget", "100")
    assert code == 5
    assert "2850" in err


E3T1 = ["--p", "2", "--m", "4", "--e", "3", "--t", "1", "--a", "1", "--deltas", "0"]


def test_ghw_all_skips_dual_when_e_exceeds_t(capsys):
    code, out, _ = run(capsys, "ghw", *E3T1, "--no-timing")
    assert code == 0
    record = json.loads(out)
    assert set(record["hierarchy"]) == {"brute"}
    assert record["hierarchy"]["brute"] == [8, 12, 14, 15]


def test_ghw_dual_refuses_e_exceeding_t(capsys):
    code, out, err = run(capsys, "ghw", *E3T1, "--method", "dual",
                         "--format", "table", "--no-timing")
    assert code == 2
    assert out == ""
    assert "dual counting requires e == t" in err


def test_ghw_refuses_an_over_budget_r_before_any_sweep(capsys, monkeypatch):
    # [16,8] over GF(3): r = 1 is within the default budget, r = 3 is not
    def no_sweep(code, r, budget=None, jobs=1):
        raise AssertionError(f"swept r={r}")
    monkeypatch.setattr(oracle, "ghw_bruteforce", no_sweep)
    monkeypatch.setattr(oracle, "ghw_dual_sweep", no_sweep)
    argv = ["ghw", "--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1"]
    code, out, err = run(capsys, *argv, "--r", "1,3")
    assert (code, out) == (5, "")
    assert err.splitlines() == ["error: enumeration of 25095280 subspaces exceeds budget "
                                f"{DEFAULT_BUDGET} ([8 choose 3]_3 = 25095280)"]
    assert run(capsys, *argv, "--r", "3") == (5, "", err)
    # a refusal the first sweep gave before its budget still comes first
    code, _, err = run(capsys, "ghw", *E3T1, "--method", "dual", "--budget", "0")
    assert code == 2
    assert "dual counting requires e == t" in err
    # --method all leaves dual out for e != t silently; brute's refusal stands
    code, out, err = run(capsys, "ghw", *E3T1, "--method", "all", "--budget", "0")
    assert (code, out) == (5, "")
    assert err.splitlines() == ["error: enumeration of 15 subspaces exceeds budget 0 "
                                "([4 choose 1]_2 = 15)"]
    code, _, err = run(capsys, "ghw", "--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "4",
                       "--method", "brute", "--budget", "0")  # a = 4 fails assumption iii
    assert code == 2
    assert "cannot materialize code" in err


@pytest.mark.parametrize("cmd", ["params", "ghw"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, cmd):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, cmd, *EX1, "--output", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {path}: ")


def test_ghw_refuses_an_unwritable_output_before_any_sweep(capsys, monkeypatch, tmp_path):
    def no_sweep(code, r, budget=None, jobs=1):
        raise AssertionError(f"swept r={r}")
    monkeypatch.setattr(oracle, "ghw_bruteforce", no_sweep)
    monkeypatch.setattr(oracle, "ghw_dual_sweep", no_sweep)
    argv = ["ghw", "--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1"]
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--r", "1,7", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: cannot write {path}: No such file or directory"]
    # a run that fails later leaves an existing file as it was, makes no new
    # one and keeps a symlink the user gave, even a dangling one, whose
    # target it does not leave behind
    kept, fresh, link = tmp_path / "kept.json", tmp_path / "fresh.json", tmp_path / "link.json"
    kept.write_text("earlier record\n")
    link.symlink_to(tmp_path / "target.json")
    for target in (kept, fresh, link):
        code, out, err = run(capsys, *argv, "--r", "1,3", "--output", str(target))
        assert (code, out) == (5, "")
        assert "exceeds budget" in err
    assert kept.read_text() == "earlier record\n"
    assert not fresh.exists()
    assert link.is_symlink()
    assert not (tmp_path / "target.json").exists()


def test_explicit_jobs_are_bounded_by_the_usable_cpus(capsys, monkeypatch):
    dealt = []

    def serial(sweep, chunks):  # records the chunks, starts no process
        dealt.append(len(chunks))
        return [sweep(chunk) for chunk in chunks]

    monkeypatch.setattr(oracle, "_fan_out", serial)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["ghw", "--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1", "--r", "2",
            "--method", "brute", "--no-timing"]
    code, out, _ = run(capsys, *argv, "--jobs", "64")
    assert code == 0
    assert dealt == [2]
    assert run(capsys, *argv, "--jobs", "1") == (0, out, "")
    assert dealt == [2, 1]


def test_ghw_rejects_negative_jobs_and_budget(capsys):
    for flag, value in (("--jobs", "-3"), ("--budget", "-1")):
        code, out, err = run(capsys, "ghw", *EX1, "--method", "brute", flag, value)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be >= 0, got {value}" in err
    code, _, err = run(capsys, "sweep", *EX1[:-2], "--a-range", "6:6", "--budget", "-1")
    assert code == 2
    assert "argument --budget: must be >= 0" in err


def test_ghw_budget_env_is_ignored(capsys, monkeypatch):
    # only --budget sets the budget; a GHWLAB_BUDGET variable, even a
    # negative one, changes neither the exit code nor the "budget" field
    for value in ("100", "-1"):
        monkeypatch.setenv("GHWLAB_BUDGET", value)
        code, out, _ = run(capsys, "ghw", *EX1, "--method", "brute", "--no-timing")
        assert code == 0
        assert json.loads(out)["budget"] == DEFAULT_BUDGET
        code, out, _ = run(capsys, "sweep", *EX1[:-2], "--a-range", "6:6")
        assert code == 0
        assert "n/a (budget)" not in out
    code, _, _ = run(capsys, "ghw", *EX1, "--method", "brute", "--budget", "100")
    assert code == 5


def test_ghw_r_subset_and_csv(capsys):
    code, out, _ = run(capsys, "ghw", *EX1, "--method", "brute", "--r", "1,2",
                       "--format", "csv", "--no-timing")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,method,d_r")
    assert len(lines) == 3


def test_ghw_deterministic_output(capsys):
    _, out1, _ = run(capsys, "ghw", *EX1, "--no-timing")
    _, out2, _ = run(capsys, "ghw", *EX1, "--no-timing")
    assert out1 == out2


def test_ghw_timing_present_by_default(capsys):
    _, out, _ = run(capsys, "ghw", *EX1, "--method", "formula", "--r", "1")
    assert "timing_s" in out


def test_ghw_parallel_flag(capsys):
    code, out, _ = run(capsys, "ghw", *EX1, "--method", "brute", "--jobs", "2",
                       "--no-timing")
    assert code == 0
    assert json.loads(out)["hierarchy"]["brute"] == [2, 4, 6, 8]


def test_gauss_periods(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "2", "--m", "6", "--N", "3")
    assert code == 0
    record = json.loads(out)
    assert record["class_size"] == 21
    values = [row["re"] for row in record["periods"]]
    assert sum(values) == pytest.approx(-1, abs=1e-9)
    assert all(abs(row["im"]) < 1e-9 for row in record["periods"])


def test_gauss_rejects_bad_divisor(capsys):
    code, _, err = run(capsys, "gauss", "--p", "2", "--m", "6", "--N", "5")
    assert code == 2


def test_flv_table(capsys):
    code, out, _ = run(capsys, "flv", *EX1, "--format", "table")
    assert code == 0
    assert "v = 0" in out
    assert "12" in out


def test_flv_refuses_bad_regime(capsys):
    code, _, _ = run(capsys, "flv", *SIMPLEX)
    assert code == 4


def test_sweep_contains_worked_examples(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "2:6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,s,m,e,t,a,deltas")
    rows = {line.split(",")[5]: line for line in lines[1:]}
    assert "2;4;6;8" in rows["6"]
    assert "6;12;18;24" in rows["2"]
    assert rows["6"].split(",")[-2] == "True"   # match column
    assert rows["2"].split(",")[-2] == "True"
    # a=3 has N=2: formula marked not applicable
    assert "n/a (hypotheses)" in rows["3"]


def test_sweep_empty_admissible_set(capsys):
    # a = 48 = Q-1 is 0 mod Q-1, so no admissible row: a sweep that checked
    # nothing refuses with exit 4, as check does
    code, out, err = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                         "--t", "2", "--a-range", "48:48")
    assert code == 4
    assert len(out.strip().splitlines()) == 1
    assert err == "sweep: skipped 1 of 1 a values whose assumptions fail\n"


def test_sweep_reports_skipped_a_values(capsys):
    # a = 4 fails assumption iii: no row, a count on stderr, and the rest passes
    code, out, err = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                         "--t", "2", "--a-range", "2:6")
    assert code == 0
    assert [line.split(",")[5] for line in out.strip().splitlines()[1:]] == ["2", "3", "5", "6"]
    assert err == "sweep: skipped 1 of 5 a values whose assumptions fail\n"
    code, out, err = run(capsys, "sweep", *DUPLICATE_EXPONENTS[:-4], "--a-range", "2:2",
                         *DUPLICATE_EXPONENTS[-2:])
    assert code == 4
    assert out == ",".join(cli.SWEEP_COLUMNS) + "\r\n"
    assert err == "sweep: skipped 1 of 1 a values whose assumptions fail\n"
    code, _, err = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "6:6")
    assert code == 0 and err == ""


def test_sweep_budget_column(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "6:6", "--budget", "10")
    assert code == 0
    # the formula still runs; the oracle, match and error cells are left empty
    assert out.splitlines()[1:] == ["7,1,2,2,2,6,0;1,7,49,4,6,8,4,True,True,1,True,True,True,"
                                    "2;4;6;8,n/a (budget),,"]


def test_verify_example1(capsys):
    code, out, _ = run(capsys, "verify", *EX1, "--count", "25", "--seed", "1")
    assert code == 0
    record = json.loads(out)
    assert record["checked"] == 25
    assert record["ok"] is True
    assert record["max_abs_err"] <= 1e-6


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "params", *EX1, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["params"]["n"] == 8


@pytest.mark.parametrize("cmd, flag", [
    (cmd, flag)
    for cmd in ("params", "check", "gauss", "verify") for flag in ("--format", "--no-timing")
] + [("flv", "--no-timing")])
def test_options_that_change_nothing_are_not_registered(capsys, cmd, flag):
    argv = ["--p", "7", "--m", "2", "--N", "4"] if cmd == "gauss" else EX1
    extra = [flag, "json"] if flag == "--format" else [flag]
    code, out, err = run(capsys, cmd, *argv, *extra)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(extra)}" in err


def _args_read(name, defs):
    """Attributes of ``args`` read in cli function ``name`` or in a cli
    function that it names, transitively."""
    reads, pending, seen = set(), [name], set()
    while pending:
        if (fn := pending.pop()) in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                reads.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in defs:
                pending.append(node.id)
    return reads


def test_every_registered_option_is_read():
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for cmd, sub in subs.choices.items():
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        if missing := dests - _args_read(cli.COMMANDS[cmd].__name__, defs):
            unread[cmd] = sorted(missing)
    assert unread == {}


def test_sweep_exit_3_on_mismatch(capsys, monkeypatch):
    real = oracle.ghw_bruteforce

    def off_by_one(code, r, budget=None, jobs=1):
        res = real(code, r, budget=budget, jobs=jobs)
        return res._replace(d_r=res.d_r + 1)

    monkeypatch.setattr(oracle, "ghw_bruteforce", off_by_one)
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "2:6")
    assert code == 3
    rows = {line.split(",")[5]: line for line in out.strip().splitlines()[1:]}
    assert set(rows) == {"2", "3", "5", "6"}   # every admissible a; a=4 fails (iii)
    assert rows["6"].split(",")[-2] == "False"


def test_sweep_exit_3_on_error_row(capsys, monkeypatch):
    def broken(code, r, budget=None, jobs=1):
        raise RuntimeError("count is not an integer")

    monkeypatch.setattr(oracle, "ghw_bruteforce", broken)
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "6:6")
    assert code == 3
    assert out.strip().splitlines()[1].endswith("RuntimeError: count is not an integer")


def test_sweep_exit_3_on_hierarchy_shape(capsys, monkeypatch):
    # ex1 is [8,4]: 8;8;8;8 from both methods matches, but is not strictly
    # increasing and breaks the Singleton bound d_1 <= 5
    monkeypatch.setattr(cli, "closed_form_dr", lambda params, fp, r: (8, 0, 0, "low", ()))
    monkeypatch.setattr(oracle, "ghw_bruteforce", lambda code, r, budget=None, jobs=1:
                        GHWResult(r=r, d_r=8, common_zeros=0, witness=(), examined=1))
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "6:6")
    assert code == 3
    row = out.strip().splitlines()[1].split(",")
    assert row[-4:-1] == ["8;8;8;8", "8;8;8;8", "True"]
    assert row[-1] == "RuntimeError: hierarchy is not strictly increasing: 8;8;8;8"


def test_sweep_formula_cell_empty_on_closed_form_error(capsys, monkeypatch):
    # the hypotheses hold for ex1, so the cell used to read "n/a (hypotheses)"
    def broken(params, fp, r):
        raise RuntimeError(f"scaled objective for r={r} is not an integer")

    monkeypatch.setattr(cli, "closed_form_dr", broken)
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "6:6")
    assert code == 3
    row = out.strip().splitlines()[1].split(",")
    assert row[-5:] == ["True", "", "", "",
                        "RuntimeError: scaled objective for r=1 is not an integer"]


def test_ghw_formula_exits_3_on_an_inexact_scaled_objective(capsys, monkeypatch):
    real = hierarchy.optimize_profile

    def off_by_one(fp, t, r):
        u, objective = real(fp, t, r)
        return u, objective + 1

    monkeypatch.setattr(hierarchy, "optimize_profile", off_by_one)
    code, out, err = run(capsys, "ghw", *EX1, "--method", "formula")
    assert (code, out) == (3, "")
    assert err == "error: scaled objective for r=1 is not an integer\n"


def test_sweep_rejects_empty_a_range(capsys):
    code, out, err = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                         "--t", "2", "--a-range", "47:1")
    assert code == 2
    assert out == ""
    assert "--a-range" in err and "'47:1'" in err


@pytest.mark.parametrize("a_range", ["5", "x:y"])
def test_sweep_rejects_an_a_range_that_is_not_start_stop(capsys, a_range):
    code, out, err = run(capsys, "sweep", *EX1[:-2], "--a-range", a_range)
    assert (code, out) == (2, "")
    assert err == f"error: --a-range must be START:STOP, got {a_range!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["--p", "4", "--m", "2", "--e", "1", "--t", "1", "--a-range", "1:5"], "prime"),
    (["--p", "7", "--m", "2", "--e", "5", "--t", "2", "--a-range", "1:5"], "deltas"),
    (["--p", "7", "--m", "2", "--e", "5", "--t", "2", "--deltas", "0,1", "--a-range", "1:5"],
     "does not divide"),
    (["--p", "7", "--m", "2", "--e", "2", "--t", "3", "--a-range", "1:5"], "exceeds"),
    (["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a-range", "0:2"], "'0:2'"),
])
def test_sweep_rejects_parameters_invalid_for_every_a(capsys, argv, message):
    # these used to print only the CSV header (or drop a = 0) and exit 0
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_sweep_builds_the_field_once(capsys, monkeypatch):
    # every row of a sweep shares one field, and through it one trace table
    built = []
    init = fields.FieldCtx.__init__

    def counting_init(self, *args):
        built.append(args[:3])
        init(self, *args)

    monkeypatch.setattr(fields.FieldCtx, "__init__", counting_init)
    fields._build_field.cache_clear()
    code, out, _ = run(capsys, "sweep", "--p", "7", "--m", "2", "--e", "2",
                       "--t", "2", "--a-range", "1:12")
    assert code == 0
    assert len(out.strip().splitlines()) > 2
    assert built == [(7, 1, 2)]


def test_sweep_sizes_each_r_in_the_plan_and_in_its_sweep(capsys, monkeypatch):
    # [8,4] over GF(7): oracle.plan_sweeps sizes r = 1..4, then each sweep its own r
    sized = []
    real = oracle.sweep_size

    def counting(params, r, mode, budget=None):
        sized.append((mode, r))
        return real(params, r, mode, budget)

    monkeypatch.setattr(oracle, "sweep_size", counting)
    code, _, _ = run(capsys, "sweep", *EX1[:-2], "--a-range", "6:6")
    assert code == 0
    assert sized == [("brute", r) for r in (1, 2, 3, 4)] * 2


def test_ghw_runtime_error_exit_3(capsys, monkeypatch):
    def flat(code, r, budget=None, jobs=1):
        return GHWResult(r=r, d_r=5, common_zeros=3, witness=(), examined=1)

    monkeypatch.setattr(oracle, "ghw_bruteforce", flat)
    code, out, err = run(capsys, "ghw", *EX1, "--method", "brute", "--no-timing")
    assert code == 3
    assert out == ""
    assert err.startswith("error: hierarchy is not strictly increasing")


def test_brute_recount_catches_a_wrong_codeword(capsys, monkeypatch):
    # the generator matrix is read from the trace tables, so a codeword that
    # disagrees with it fails the witness recount instead of scoring d_1 = 0
    monkeypatch.setattr(TraceCode, "codeword", lambda self, xbar: (0,) * self.n)
    code, out, err = run(capsys, "ghw", *EX1, "--method", "brute", "--r", "1",
                         "--jobs", "1")
    assert code == 3
    assert out == ""
    assert ("brute witness at r=1 recounts to 8 common zeros, "
            "the sweep scored 6") in err


def test_shape_check_covers_partial_r_lists(capsys, monkeypatch):
    # ex1 is [8,4]: d_r <= 4 + r, and d_r grows strictly with r
    def constant(d):
        def sweep(code, r, budget=None, jobs=1):
            return GHWResult(r=r, d_r=d, common_zeros=8 - d, witness=(), examined=1)
        return sweep

    for d, r_arg, message in ((8, "1", "Singleton bound violated at r=1"),
                              (8, "1,2", "not strictly increasing"),
                              (5, "3,1", "not strictly increasing")):
        monkeypatch.setattr(oracle, "ghw_bruteforce", constant(d))
        code, out, err = run(capsys, "ghw", *EX1, "--method", "brute", "--r", r_arg,
                             "--no-timing")
        assert code == 3, (d, r_arg)
        assert out == ""
        assert message in err
    monkeypatch.undo()
    # unsorted and repeated r values pass on the real sweep
    code, out, _ = run(capsys, "ghw", *EX1, "--method", "brute", "--r", "2,1,2",
                       "--no-timing")
    assert code == 0
    assert json.loads(out)["hierarchy"]["brute"] == [4, 2, 4]


def test_chain_bound_catches_a_d2_one_too_small(capsys, monkeypatch):
    # [80,8] over GF(3) and [73,9] over GF(2) meet the chain bound with
    # equality at r = 1, so d_2 - 1 fails it while still increasing and
    # meeting the Singleton bound
    for argv, n, d1, d2 in (
            (["--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1"], 80, 24, 32),
            (["--p", "2", "--m", "9", "--e", "1", "--t", "1", "--a", "7"], 73, 28, 42)):
        for lowered in (0, 1):
            values = {1: d1, 2: d2 - lowered}
            monkeypatch.setattr(oracle, "ghw_bruteforce", lambda code, r, budget=None, jobs=1:
                                GHWResult(r=r, d_r=values[r], common_zeros=n - values[r],
                                          witness=(), examined=1))
            code, out, err = run(capsys, "ghw", *argv, "--method", "brute", "--r", "1,2",
                                 "--no-timing")
            if lowered:
                assert (code, out) == (3, "")
                assert err == f"error: chain bound violated at r=1: {d1};{d2 - 1}\n"
            else:
                assert code == 0, err
                assert json.loads(out)["hierarchy"]["brute"] == [d1, d2]


def test_griesmer_bound_catches_a_d_r_one_too_small(capsys, monkeypatch):
    # d_r >= sum_{i<r} ceil(d_1 / q^i): 39 at r = 7 on [80,8] over GF(3) and
    # 49 at r = 3 on [73,9] over GF(2); one less still increases and meets
    # the Singleton bound, and the chain bound needs r and r + 1 requested
    for argv, n, r, d1, dr, bound in (
            (["--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1"], 80, 7, 24, 78, 39),
            (["--p", "2", "--m", "9", "--e", "1", "--t", "1", "--a", "7"], 73, 3, 28, 51, 49)):
        for d in (dr, bound - 1):
            values = {1: d1, r: d}
            monkeypatch.setattr(oracle, "ghw_bruteforce", lambda code, r, budget=None, jobs=1:
                                GHWResult(r=r, d_r=values[r], common_zeros=n - values[r],
                                          witness=(), examined=1))
            code, out, err = run(capsys, "ghw", *argv, "--method", "brute", "--r", f"1,{r}",
                                 "--no-timing")
            if d < bound:
                assert (code, out) == (3, "")
                assert err == f"error: Griesmer bound violated at r={r}: {d1};{d}\n"
            else:
                assert code == 0, err
                assert json.loads(out)["hierarchy"]["brute"] == [d1, d]


def test_closed_form_exits_3_when_branch_and_objective_disagree(capsys, monkeypatch):
    real = hierarchy.optimize_profile

    def raised(fp, t, r):  # the objective up by t*delta (delta = 6): its scaled value up by N
        u_star, t_star = real(fp, t, r)
        return u_star, t_star + t * 6

    monkeypatch.setattr(hierarchy, "optimize_profile", raised)
    code, out, err = run(capsys, "ghw", *EX1, "--method", "formula", "--no-timing")
    assert (code, out) == (3, "")
    assert err.startswith("error: branch/objective mismatch at r=1: ")


def test_sweep_writes_each_cell_under_its_own_header(capsys, monkeypatch):
    argv = ["sweep", "--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a-range", "2:6"]
    _, out, _ = run(capsys, *argv)
    monkeypatch.setattr(cli, "SWEEP_COLUMNS", cli.SWEEP_COLUMNS[::-1])
    _, permuted, _ = run(capsys, *argv)
    assert permuted != out
    assert list(csv.DictReader(io.StringIO(permuted))) == list(csv.DictReader(io.StringIO(out)))


def test_ghw_refuses_an_r_outside_1_to_k_before_any_sweep(capsys, monkeypatch):
    def no_sweep(code, r, budget=None, jobs=1):
        raise AssertionError(f"swept r={r}")
    monkeypatch.setattr(oracle, "ghw_bruteforce", no_sweep)
    monkeypatch.setattr(oracle, "ghw_dual_sweep", no_sweep)
    for r in ("0", "9"):
        code, out, err = run(capsys, "ghw", "--p", "3", "--m", "4", "--e", "2", "--t", "2",
                             "--a", "1", "--r", r)
        assert (code, out) == (2, "")
        assert err == f"error: r must lie in 1..8, got {r}\n"


@pytest.mark.parametrize("argv, message", [
    (["params", "--p", "7", "--m", "0", "--e", "2", "--t", "2", "--a", "6"],
     "m must be positive, got 0"),
    (["params", "--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "0"],
     "a must be positive, got 0"),
    (["gauss", "--p", "3", "--m", "0", "--N", "2"], "ext_degree must be positive"),
])
def test_nonpositive_degree_or_a_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_python_m_ghwlab_matches_main(capsys):
    # the entry the benchmark runs: same stdout and exit code as main()
    argv = ["ghw", *EX1, "--r", "1,2", "--no-timing"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ghwlab", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and json.loads(out)["match"]


def test_verify_refuses_e_not_t_before_its_budget(capsys, monkeypatch):
    # e3t1: e = 3, t = 1; the refusal comes before the first sample is drawn
    class NoDraws:
        def __init__(self, seed):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"drew a sample: {name}")
    monkeypatch.setattr(cli.random, "Random", NoDraws)
    for budget in ("0", str(DEFAULT_BUDGET)):
        code, out, err = run(capsys, "verify", *E3T1, "--count", "1", "--budget", budget)
        assert (code, out) == (2, "")
        assert err == "error: character-sum counting requires e == t, got e=3, t=1\n"


def test_verify_rejects_count_below_1(capsys):
    for value in ("0", "-3"):
        code, out, err = run(capsys, "verify", *EX1, "--count", value)
        assert code == 2
        assert out == ""
        assert f"argument --count: must be >= 1, got {value}" in err
    code, out, _ = run(capsys, "verify", *EX1, "--count", "1")
    assert code == 0
    assert json.loads(out)["checked"] == 1


def test_verify_budget_refuses_before_enumerating(capsys, monkeypatch):
    # [1023,30] over GF(2): seed 0 draws r = 28, a subspace of 2^28 members
    def enumerated(code, basis):
        raise AssertionError("enumerated a refused subspace")
    monkeypatch.setattr(cli, "character_sum_count", enumerated)
    monkeypatch.setattr(cli, "count_common_zeros", enumerated)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--p", "2", "--m", "10", "--e", "3", "--t", "3",
                         "--a", "1", "--count", "1", "--seed", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert out == ""
    assert err.splitlines() == [
        f"error: enumeration of {2**28} subspace members exceeds budget {DEFAULT_BUDGET} "
        "(verify drew r=28: q^r = 2^28)"]
    # ex1 at seed 5 draws r = 3 first: 7^3 = 343 members
    code, _, err = run(capsys, "verify", *EX1, "--count", "1", "--seed", "5", "--budget", "342")
    assert code == 5
    assert "enumeration of 343 subspace members exceeds budget 342" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", *EX1, "--count", "1", "--seed", "5", "--budget", "343")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, _, err = run(capsys, "verify", *EX1, "--budget", "-1")
    assert code == 2
    assert "argument --budget: must be >= 0" in err


def test_verify_fails_when_one_sample_is_off(capsys, monkeypatch):
    calls = []
    exact = cli.count_common_zeros

    def second_off(code, basis):
        # both counts are ints, so the smallest error is one zero too many
        calls.append(basis)
        return exact(code, basis) + (len(calls) == 2)
    monkeypatch.setattr(cli, "character_sum_count", second_off)
    code, out, _ = run(capsys, "verify", *EX1, "--count", "4")
    assert code == 3
    record = json.loads(out)
    assert record["ok"] is False
    assert record["max_abs_err"] == 1.0
    assert record["checked"] == 4
