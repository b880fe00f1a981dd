"""The in-package assignment solver.

Oracle: SciPy's ``linear_sum_assignment``, whose tie rule the solver
documents as its own.  So every table, tied or not, must give SciPy's
rows and columns, and with them SciPy's optimal total.  ``assign_blocks``
must give ``linear_assignment``'s answer for every table of a batch.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import microact
from microact.assignment import assign_blocks, linear_assignment


@st.composite
def _tables(draw, max_side=8):
    """An r x c table, r and c each 1..max_side: random floats, or
    integers 0-2, where tied optima are common."""
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 3, size=(r, c))
    return rng.random((r, c)) * draw(st.sampled_from([1.0, 1e-3, 1e6]))


def _total(table, rows, cols):
    return sum(table[i][j] for i, j in zip(rows, cols))


class TestMatchesScipy:
    @settings(max_examples=1500, deadline=None)
    @given(table=_tables(), maximize=st.booleans())
    def test_assignment_and_total(self, table, maximize):
        rows, cols = linear_assignment(table.tolist(), maximize)
        want_rows, want_cols = linear_sum_assignment(table, maximize=maximize)
        assert rows == sorted(rows) and len(set(cols)) == len(cols)
        assert len(rows) == min(table.shape)
        # the tie rule is SciPy's, so tied optima agree too
        assert (rows, cols) == (want_rows.tolist(), want_cols.tolist())
        got = _total(table.tolist(), rows, cols)
        want = table[want_rows, want_cols].sum()
        if table.dtype.kind == "i":
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("r", range(1, 9))
    @pytest.mark.parametrize("c", range(1, 9))
    def test_every_shape(self, r, c):
        rng = np.random.default_rng(r * 10 + c)
        for table in [rng.integers(0, 3, size=(r, c)) for _ in range(20)] \
                + [rng.random((r, c)) for _ in range(5)]:
            for maximize in (False, True):
                want = linear_sum_assignment(table, maximize=maximize)
                got = linear_assignment(table.tolist(), maximize)
                assert got == tuple(a.tolist() for a in want)

    @settings(max_examples=300, deadline=None)
    @given(table=_tables(max_side=4), maximize=st.booleans())
    def test_total_is_the_brute_force_optimum(self, table, maximize):
        # independent of SciPy: the best of every assignment
        r, c = table.shape
        t = table if r <= c else table.T
        totals = [sum(t[i, p[i]] for i in range(len(p)))
                  for p in itertools.permutations(range(t.shape[1]),
                                                  t.shape[0])]
        best = max(totals) if maximize else min(totals)
        rows, cols = linear_assignment(table.tolist(), maximize)
        assert _total(table.tolist(), rows, cols) == pytest.approx(
            best, rel=1e-12, abs=1e-12)

    def test_constant_table_gives_the_identity(self):
        for r, c in ((3, 3), (2, 5), (5, 2)):
            rows, cols = linear_assignment([[1.0] * c for _ in range(r)])
            assert rows == list(range(min(r, c)))
            assert cols == list(range(min(r, c)))

    def test_large_tables(self):
        # far beyond the pipeline's sizes, where the search does the work
        rng = np.random.default_rng(4)
        for table in (rng.integers(0, 3, size=(60, 45)),
                      rng.random((40, 70)), rng.random((90, 90))):
            for maximize in (False, True):
                want = linear_sum_assignment(table, maximize=maximize)
                got = linear_assignment(table.tolist(), maximize)
                assert got == tuple(a.tolist() for a in want)

    def test_empty(self):
        assert linear_assignment([]) == ([], [])
        assert linear_assignment([[], []]) == ([], [])
        rows, cols = assign_blocks(np.zeros((3, 0, 2)))
        assert rows.shape == cols.shape == (3, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, bad):
        table = [[0.5, 1.0], [bad, 0.25]]
        with pytest.raises(ValueError, match="non-finite"):
            linear_assignment(table)
        with pytest.raises(ValueError, match="non-finite"):
            assign_blocks(np.array([table]), maximize=True)


@st.composite
def _batches(draw):
    """k tables of one shape up to 5 x 5: floats, a few distinct values,
    or repeats of one table, so that near and exact ties both occur."""
    r = draw(st.integers(0, 5))
    c = draw(st.integers(0, 5))
    k = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float", "few", "repeat"]))
    if kind == "float":
        return rng.random((k, r, c))
    if kind == "few":
        return rng.choice([0.0, 0.1, 1 / 3, 0.5, 1.0], size=(k, r, c))
    return np.repeat(rng.integers(0, 3, size=(1, r, c)), k, axis=0)


class TestBlocks:
    @settings(max_examples=600, deadline=None)
    @given(blocks=_batches(), maximize=st.booleans())
    def test_each_block_as_the_scalar_solver(self, blocks, maximize):
        rows, cols = assign_blocks(blocks, maximize)
        k, r, c = blocks.shape
        assert rows.shape == cols.shape == (k, min(r, c))
        for q in range(k):
            want = linear_assignment(blocks[q].tolist(), maximize)
            assert (rows[q].tolist(), cols[q].tolist()) == want


def test_package_imports_no_scipy():
    # scipy is only the tests' oracle: no microact module may load it
    src = str(Path(microact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    prog = ("import sys\n"
            "import microact, microact.pipeline, microact.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", prog], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
