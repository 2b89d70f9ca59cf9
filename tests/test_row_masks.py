"""The sweep kernel's row masks against the per-row references.

``oracle._RowMasks`` gives the masks of every choice of a pattern row at
once, from depth-first prefix words and one bucket pass per prefix;
``helpers.brute_row_mask`` and ``helpers.dual_row_mask`` build each
choice's word on its own, the way the sweeps did before the kernel.
"""

import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings

from ghwlab.codes import TraceCode, derive_params
from ghwlab.oracle import _RowMasks, _dual_scorer

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
    code = _code(key)
    dims = CODES[key][1] or range(1, code.k + 1)
    assert kernel_mismatches(code, mode, dims) == []


@given(small_sweeps())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_kernel_masks_match_reference_random(sweep):
    code, r = sweep
    for mode in ("brute", "dual"):
        assert kernel_mismatches(code, mode, [r]) == []


def test_prefix_words_are_built_depth_first():
    # pattern (0,) of [80,8] over GF(3): 3^7 masks from 3^6 prefix words of
    # 80 entries each.  The masks take about 0.1 MB; all prefix words of
    # one level at once would take another 0.5 MB.
    masks = kernel(_code("80_8"), "brute")
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
    # while _RowMasks was built on the [61,1] dual matrix
    code = TraceCode(derive_params(3, 10, 1, 1, 1, 968))
    matrix = _dual_scorer(code)[0]
    tracemalloc.start()
    try:
        _RowMasks(code.field, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
