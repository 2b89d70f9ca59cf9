"""The sweep kernel's row masks against the per-row references.

``oracle._RowMasks`` gives the masks of every choice of a pattern row at
once, from depth-first prefix words and one bucket pass per prefix.  It
holds a word as its value planes (one bitmask per value that occurs,
``ghwlab.bitplanes``) when 2*q*q <= w, else as a list of w scalar indices;
the tests below force each form on the same matrices.
``helpers.brute_row_mask`` and ``helpers.dual_row_mask`` build each
choice's word on its own, the way the sweeps did before the kernel.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from ghwlab.codes import TraceCode, derive_params
from ghwlab.linalg import ScalarTable
from ghwlab.oracle import _RowMasks, _dual_scorer

import helpers
from helpers import kernel, kernel_mismatches, small_sweeps

# (p, s, m, e, t, a) and the dimensions whose patterns are checked (None:
# every dimension); all have e == t, so both kernels apply
CODES = {
    "ex1": ((7, 1, 2, 2, 2, 6), None),
    "ex2": ((7, 1, 2, 2, 2, 2), None),
    "irr21": ((2, 1, 6, 1, 1, 3), None),
    "gf4": ((2, 2, 2, 3, 3, 1), None),    # [15,6] over GF(4), codes not 0..3
    "q9": ((3, 2, 2, 1, 1, 5), None),     # over GF(9)
    "80_8": ((3, 1, 4, 2, 2, 1), (1, 7)),
}


@lru_cache(maxsize=None)
def _code(key):
    return TraceCode(derive_params(*CODES[key][0]))


@pytest.mark.parametrize("mode", ["brute", "dual"])
@pytest.mark.parametrize("key", sorted(CODES))
def test_kernel_masks_match_reference(key, mode):
    # q = 7, 7, 2, 4, 9 and 3; each word form, whichever the kernel would take
    code = _code(key)
    dims = CODES[key][1] or range(1, code.k + 1)
    for bitplanes in (True, False):
        assert kernel_mismatches(code, mode, dims, bitplanes) == []


@given(small_sweeps())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_kernel_masks_match_reference_random(sweep):
    code, r = sweep
    for mode in ("brute", "dual"):
        for bitplanes in (True, False):
            assert kernel_mismatches(code, mode, [r], bitplanes) == []


def test_word_form_follows_q_against_width():
    # value planes from 2*q*q <= w on: [80,8] over GF(3) (w = 80), irr21
    # over GF(2) (w = 21) and the dual matrix of [15,6] over GF(4) (w = 45);
    # ex1 over GF(7) (w = 8 and 24), the GF(4) generator matrix (w = 15) and
    # GF(9) (w = 16) keep index lists
    planes = {key: [kernel(_code(key), mode).bitplanes for mode in ("brute", "dual")]
              for key in CODES}
    assert planes == {"80_8": [True, True], "irr21": [True, True], "gf4": [False, True],
                      "ex1": [False, False], "ex2": [False, False], "q9": [False, False]}


# (p, degree, s) of a field whose GF(q) has q = 2, 3, 4, 9 and 243 (q = Q)
TABLE_FIELDS = [(2, 3, 1), (3, 2, 1), (2, 4, 2), (3, 4, 2), (3, 5, 5)]


@pytest.mark.parametrize("p,degree,s", TABLE_FIELDS)
def test_root_rows_are_minus_x_over_g(p, degree, s):
    # root[g][x] is the c with x + c*g = 0, entry by entry -x/g; at q >= 3 a
    # row taken for g in place of -1/g differs
    field = helpers.field(p, degree, s)
    scalars = field.subfield_q
    table = ScalarTable(field)
    for g in range(1, len(scalars)):
        row = [scalars[c] for c in table.root[g]]
        xs = [field.neg(field.mul(x, field.inv(scalars[g]))) for x in scalars]
        assert row == xs, g
        assert all(field.add(x, field.mul(c, scalars[g])) == 0 for x, c in zip(scalars, row))


@pytest.mark.parametrize("p,degree,s", TABLE_FIELDS)
def test_add_and_mul_rows_match_the_field(p, degree, s):
    # every entry of the kernel's add and mul tables, read back to codes,
    # is FieldCtx's sum or product; scalars are in subfield_q order, so
    # index 0 is zero and index 1 is one, and at q = Q the index is range(Q)
    field = helpers.field(p, degree, s)
    scalars = field.subfield_q
    table = _RowMasks(field, [list(scalars)]).table
    assert isinstance(table, ScalarTable) and table.q == len(scalars)
    assert (table.index == range(field.Q)) == (field.q == field.Q)
    assert [table.index[c] for c in scalars] == list(range(len(scalars)))
    for a, x in enumerate(scalars):
        assert [scalars[c] for c in table.add[a]] == [field.add(x, y) for y in scalars], a
        assert [scalars[c] for c in table.mul[a]] == [field.mul(x, y) for y in scalars], a


PLANES_PROBE = """
import json, sys
from ghwlab.cli import main
loaded = []
for args in (["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"],  # lists
             ["--p", "2", "--m", "6", "--e", "1", "--t", "1", "--a", "3"]):  # planes
    assert main(["ghw", *args, "--method", "all", "--no-timing"]) == 0
    loaded.append("ghwlab.bitplanes" in sys.modules)
print(json.dumps(loaded))
"""


def test_plane_words_load_on_the_first_row_on_planes():
    # ex1 over GF(7) keeps index lists, so its sweeps never load bitplanes;
    # irr21 over GF(2) is swept on planes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", PLANES_PROBE], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [False, True]


def test_prefix_words_are_built_depth_first():
    # pattern (0,) of [80,8] over GF(3): 3^7 masks from 3^6 prefix words,
    # each up to three value planes of 80 bits.  The masks take about
    # 0.1 MB; all prefix words of one level at once would take another
    # 0.25 MB as planes (0.5 MB as lists of 80 indices).
    masks = kernel(_code("80_8"), "brute")
    assert masks.bitplanes
    masks.row_masks(0, list(range(1, 8)))  # fills the lazily built tables
    tracemalloc.start()
    try:
        out = masks.row_masks(0, list(range(1, 8)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 3 ** 7
    assert peak < 200_000


def test_row_masks_hold_no_int_per_position():
    # the dual matrix of [61,1] over GF(3^10) is one row of 59,048 positions
    # with no free column; a list of the single-bit ints 1 << i, one per
    # position, took 223 MB
    code = TraceCode(derive_params(3, 10, 1, 1, 1, 968))
    matrix = _dual_scorer(code)[0]
    tracemalloc.start()
    try:
        (mask,) = _RowMasks(code.field, matrix).row_masks(0, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask == sum(1 << i for i, x in enumerate(matrix[0]) if x)
    assert peak < 16_000_000


def test_row_masks_at_q_eq_Q_build_no_index_dict():
    # at q = Q the scalars are range(Q), which is its own index: a dict from
    # each of the 59,049 codes of GF(3^10) to its position held 6.35 MB
    # while _RowMasks was built on the [61,1] dual matrix.  The entries
    # already are their indices, so the copy holds 0.49 MB of pointers;
    # read through range(Q), which makes a fresh int for each code above
    # 256, it held 2.40 MB
    code = TraceCode(derive_params(3, 10, 1, 1, 1, 968))
    matrix = _dual_scorer(code)[0]
    tracemalloc.start()
    try:
        masks = _RowMasks(code.field, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.rows == matrix
    assert peak < 1_000_000
