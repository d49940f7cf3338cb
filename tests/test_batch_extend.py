"""Batched ingest and cached queries: the fast paths must be invisible.

The contract of the batch cascade (:func:`repro.core.swat.extend_trees`,
behind :meth:`~repro.core.swat.Swat.extend` and
:meth:`~repro.core.multi.StreamEnsemble.extend_columns`) is
*bit-identity*: any split of a stream into blocks must leave each tree in
exactly the state a value-by-value :meth:`~repro.core.swat.Swat.update`
replay produces — same coefficient bits, same end times, same deviations,
same ring buffer — whichever trees share its cascade.  The properties here
drive that across window sizes, ``k``, reduced trees (``min_level``),
deviation tracking, cold starts, heterogeneous ensembles and arbitrary
block boundaries, and pin the query-side caches (node reconstruction
memoization, vectorized extraction) to the scalar behaviour.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import contracts
from repro.core.coverage import CoverageError
from repro.core.errors import require_finite
from repro.core.multi import StreamEnsemble
from repro.core.swat import Swat, extend_trees
from repro.histogram.prefix import PrefixStats
from repro.metrics.error import GroundTruthWindow
from repro.wavelets.haar import (
    haar_reconstruct,
    parent_position,
    sparse_combine,
)

# --------------------------------------------------------------------- helpers


def tree_bits(tree):
    """Every content-bearing bit of the tree state, exactly."""
    nodes = []
    for level in range(tree.n_levels):
        for role in ("R", "S", "L"):
            try:
                node = tree.node(level, role)
            except KeyError:
                continue
            coeffs = None if node.coeffs is None else node.coeffs.tobytes()
            positions = None if node.positions is None else node.positions.tobytes()
            dev = (
                None
                if node.deviation is None
                else np.float64(node.deviation).tobytes()
            )
            nodes.append((level, role, coeffs, node.end_time, dev, positions))
    return (tree.time, tuple(float(v) for v in tree._buffer), tuple(nodes))


def replay_scalar(tree, values):
    for v in values:
        tree.update(v)


finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def batch_cases(draw):
    n = draw(st.sampled_from([4, 8, 16, 64, 256]))
    k = draw(st.integers(min_value=1, max_value=8))
    min_level = draw(st.integers(min_value=0, max_value=int(math.log2(n)) - 1))
    track = k == 1 and draw(st.booleans())
    total = draw(st.integers(min_value=0, max_value=3 * n))
    values = draw(
        st.lists(finite_values, min_size=total, max_size=total).map(tuple)
    )
    splits = []
    remaining = total
    while remaining:
        s = draw(st.integers(min_value=1, max_value=remaining))
        splits.append(s)
        remaining -= s
    return n, k, min_level, track, values, tuple(splits)


# ------------------------------------------------------- batch == scalar replay


class TestBatchEquivalence:
    @given(case=batch_cases())
    @settings(max_examples=150)
    def test_extend_is_bit_identical_to_scalar_replay(self, case):
        n, k, min_level, track, values, splits = case
        scalar = Swat(n, k=k, min_level=min_level, track_deviation=track)
        batched = Swat(n, k=k, min_level=min_level, track_deviation=track)
        replay_scalar(scalar, values)
        pos = 0
        for size in splits:
            batched.extend(np.asarray(values[pos : pos + size], dtype=np.float64))
            pos += size
        assert tree_bits(batched) == tree_bits(scalar)

    @given(case=batch_cases())
    @settings(max_examples=50)
    def test_queries_agree_after_batched_ingest(self, case):
        n, k, min_level, track, values, splits = case
        scalar = Swat(n, k=k, min_level=min_level, track_deviation=track)
        batched = Swat(n, k=k, min_level=min_level, track_deviation=track)
        replay_scalar(scalar, values)
        pos = 0
        for size in splits:
            batched.extend(list(values[pos : pos + size]))
            pos += size
        try:
            want = scalar.reconstruct_window()
        except CoverageError:
            # A cold reduced tree has nothing to answer from; the batched
            # tree must be in the same (empty) state.
            with pytest.raises(CoverageError):
                batched.reconstruct_window()
            return
        np.testing.assert_array_equal(batched.reconstruct_window(), want)

    def test_single_block_covering_many_windows(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=10_000)
        scalar = Swat(64)
        batched = Swat(64)
        replay_scalar(scalar, values)
        batched.extend(values)
        assert tree_bits(batched) == tree_bits(scalar)

    def test_extend_accepts_generators_and_empty_blocks(self):
        tree = Swat(8)
        tree.extend(float(v) for v in range(10))
        tree.extend([])
        tree.extend(np.empty(0))
        other = Swat(8)
        replay_scalar(other, range(10))
        assert tree_bits(tree) == tree_bits(other)

    @pytest.mark.parametrize(
        "shape, settle",
        [
            ({}, False),
            ({"k": 3, "selection": "largest"}, False),
            ({"k": 2, "wavelet": "db2"}, False),
            ({}, True),
        ],
        ids=["cascade", "largest-k", "db2", "settling"],
    )
    def test_extend_rejects_non_finite_atomically(self, shape, settle):
        tree = Swat(8, **shape)
        tree.extend(np.arange(20.0))
        if settle:
            tree.reconfigure(min_level=1)
            assert tree.settling  # its blocks replay through update
        before = tree_bits(tree)
        with pytest.raises(ValueError, match="finite"):
            tree.extend([1.0, float("nan"), 2.0])
        assert tree_bits(tree) == before  # validation precedes any mutation

    def test_largest_k_falls_back_to_scalar_and_matches(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=300)
        scalar = Swat(32, k=3, selection="largest")
        batched = Swat(32, k=3, selection="largest")
        replay_scalar(scalar, values)
        batched.extend(values[:120])
        batched.extend(values[120:])
        assert tree_bits(batched) == tree_bits(scalar)

    def test_generic_wavelet_falls_back_to_scalar_and_matches(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=200)
        scalar = Swat(16, k=4, wavelet="db2")
        batched = Swat(16, k=4, wavelet="db2")
        replay_scalar(scalar, values)
        batched.extend(values)
        assert tree_bits(batched) == tree_bits(scalar)

    def test_invariant_contracts_run_at_block_boundaries(self):
        tree = Swat(16, check_invariants=True)
        tree.extend(np.arange(100.0))  # raises if any block leaves bad state
        assert tree.is_warm

    def test_invariant_contracts_run_on_every_tree_of_a_group(self, monkeypatch):
        checked = []
        monkeypatch.setattr(contracts, "check_swat", checked.append)
        trees = [Swat(16, check_invariants=True) for _ in range(3)]
        extend_trees(trees, np.arange(300.0).reshape(3, 100))
        assert checked == trees  # once per tree at the block boundary


# ---------------------------------------------------------- reconstruction cache


class TestReconstructionCache:
    def test_cache_returns_same_array_until_contents_change(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        node = tree.node(1, "R")
        first = node.reconstruct()
        assert node.reconstruct() is first
        assert first.flags.writeable is False
        with pytest.raises(ValueError):
            first[0] = 99.0

    def test_query_after_shift_never_serves_stale_reconstruction(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        node = tree.node(1, "S")
        before = node.reconstruct().copy()
        version_before = node.version
        # Four more arrivals: level 1 refreshes twice, S takes new contents.
        tree.extend(np.arange(8.0, 12.0))
        assert node.version > version_before
        after = node.reconstruct()
        expected = haar_reconstruct(node.coeffs, node.segment_length)
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(after, before)

    def test_shift_shared_arrays_do_not_alias_stale_entries(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        right = tree.node(1, "R")
        cached = right.reconstruct()
        tree.extend(np.arange(8.0, 16.0))
        shift = tree.node(1, "S")
        # After the shift S shares R's old coefficient array by reference;
        # its reconstruction must describe those (shared) contents, not
        # whatever the S slot held before.
        assert shift.coeffs is not None
        np.testing.assert_array_equal(
            shift.reconstruct(), haar_reconstruct(shift.coeffs, shift.segment_length)
        )
        del cached

    def test_set_contents_bumps_version_and_invalidates(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        node = tree.node(0, "R")
        old = node.reconstruct()
        v = node.version
        node.set_contents(np.array([1.0]), node.end_time)
        assert node.version == v + 1
        fresh = node.reconstruct()
        assert fresh is not old
        np.testing.assert_array_equal(fresh, haar_reconstruct([1.0], 2))


# ----------------------------------------------------------- vectorized queries


class TestVectorizedExtraction:
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([8, 32, 128]),
        total=st.integers(1, 400),
    )
    @settings(max_examples=40)
    def test_estimates_match_per_index_queries(self, seed, n, total):
        rng = np.random.default_rng(seed)
        tree = Swat(n, k=2)
        tree.extend(rng.normal(size=total))
        size = tree.size
        indices = list(rng.integers(0, size, size=min(size, 17)))
        bulk = tree.estimates(indices)
        singles = np.array([tree.estimates([int(i)])[0] for i in indices])
        np.testing.assert_array_equal(bulk, singles)

    def test_reduced_tree_extrapolation_unchanged(self):
        tree = Swat(16, min_level=2)
        tree.extend(np.arange(32.0))
        est = tree.estimates(list(range(16)))
        assert est.shape == (16,)
        assert np.isfinite(est).all()

    def test_out_of_range_message_format_preserved(self):
        tree = Swat(8)
        tree.extend(np.arange(4.0))
        with pytest.raises(IndexError, match=r"window indices \[9\] out of range"):
            tree.estimates([0, 9])


# -------------------------------------------------- sparse_combine vectorization


def _sparse_combine_reference(older_pos, older_val, newer_pos, newer_val, k):
    """The historical per-coefficient zip-loop implementation."""
    sqrt2 = math.sqrt(2.0)
    a_l = float(older_val[0]) if older_pos.size and older_pos[0] == 0 else 0.0
    a_r = float(newer_val[0]) if newer_pos.size and newer_pos[0] == 0 else 0.0
    cand_pos = [0, 1]
    cand_val = [(a_l + a_r) / sqrt2, (a_l - a_r) / sqrt2]
    for pos_arr, val_arr, newer in (
        (older_pos, older_val, False),
        (newer_pos, newer_val, True),
    ):
        for p, v in zip(pos_arr, val_arr):
            if p >= 1:
                cand_pos.append(parent_position(int(p), newer))
                cand_val.append(float(v))
    pos = np.asarray(cand_pos, dtype=np.int64)
    val = np.asarray(cand_val, dtype=np.float64)
    if pos.size <= k:
        order = np.argsort(pos)
        return pos[order], val[order]
    rest = np.argsort(-np.abs(val[1:]))[: k - 1] + 1
    keep = np.concatenate([[0], rest])
    keep = keep[np.argsort(pos[keep])]
    return pos[keep], val[keep]


@st.composite
def sparse_children(draw):
    length = draw(st.sampled_from([4, 8, 16, 32]))
    k = draw(st.integers(1, 8))

    def child():
        n_extra = draw(st.integers(0, min(k - 1, length - 1)))
        extras = draw(
            st.lists(
                st.integers(1, length - 1),
                min_size=n_extra,
                max_size=n_extra,
                unique=True,
            )
        )
        pos = np.asarray(sorted([0] + extras), dtype=np.int64)
        vals = draw(
            st.lists(finite_values, min_size=pos.size, max_size=pos.size)
        )
        return pos, np.asarray(vals, dtype=np.float64)

    op, ov = child()
    np_, nv = child()
    return op, ov, np_, nv, k


class TestSparseCombineVectorized:
    @given(case=sparse_children())
    @settings(max_examples=150)
    def test_matches_zip_loop_reference_including_ties(self, case):
        op, ov, np_, nv, k = case
        got_pos, got_val = sparse_combine(op, ov, np_, nv, k)
        want_pos, want_val = _sparse_combine_reference(op, ov, np_, nv, k)
        np.testing.assert_array_equal(got_pos, want_pos)
        assert got_val.tobytes() == want_val.tobytes()

    def test_tie_breaking_with_equal_magnitudes(self):
        # Every candidate magnitude identical: selection must be the exact
        # argsort order the scalar loop produced.
        op = np.array([0, 1, 3], dtype=np.int64)
        ov = np.array([1.0, 1.0, -1.0])
        np_ = np.array([0, 1, 3], dtype=np.int64)
        nv = np.array([1.0, -1.0, 1.0])
        for k in (1, 2, 3, 4):
            got = sparse_combine(op, ov, np_, nv, k)
            want = _sparse_combine_reference(op, ov, np_, nv, k)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


# ------------------------------------------------------------------ PrefixStats


class TestPrefixStatsBatch:
    @given(
        w=st.integers(1, 40),
        blocks=st.lists(st.lists(finite_values, max_size=90), max_size=8),
    )
    @settings(max_examples=100)
    def test_extend_matches_scalar_updates(self, w, blocks):
        scalar = PrefixStats(w)
        batched = PrefixStats(w)
        for block in blocks:
            for v in block:
                scalar.update(v)
            batched.extend(block)
        assert batched.size == scalar.size
        np.testing.assert_allclose(batched.window(), scalar.window())
        # Prefix sums cancel against bases that can be ~1e12, so the
        # achievable agreement is a few ulps of the *running total*, not of
        # the window values themselves.
        total = sum(abs(float(v)) for block in blocks for v in block)
        total_sq = sum(float(v) * float(v) for block in blocks for v in block)
        cs_b, cq_b = batched.prefix_arrays()
        cs_s, cq_s = scalar.prefix_arrays()
        np.testing.assert_allclose(cs_b, cs_s, atol=1e-9 * (1.0 + total))
        np.testing.assert_allclose(cq_b, cq_s, atol=1e-9 * (1.0 + total_sq))
        sse_tol = 1e-9 * (1.0 + total_sq)
        for i, j in [(0, scalar.size), (scalar.size // 2, scalar.size)]:
            assert batched.sse(i, j) == pytest.approx(scalar.sse(i, j), abs=sse_tol)

    def test_extend_survives_many_compactions(self):
        stats = PrefixStats(8)
        rng = np.random.default_rng(0)
        expected_tail = None
        for _ in range(50):
            block = rng.normal(size=7)
            stats.extend(block)
            expected_tail = block
        assert stats.size == 8
        np.testing.assert_allclose(stats.window()[-7:], expected_tail)

    def test_oversized_block_keeps_window_tail(self):
        stats = PrefixStats(4)
        stats.extend(np.arange(100.0))
        np.testing.assert_array_equal(stats.window(), [96.0, 97.0, 98.0, 99.0])
        assert stats.interval_sum(0, 4) == pytest.approx(96 + 97 + 98 + 99)

    def test_rejects_non_finite(self):
        stats = PrefixStats(4)
        with pytest.raises(ValueError, match="finite"):
            stats.update(float("inf"))
        with pytest.raises(ValueError, match="finite"):
            stats.extend([1.0, float("-inf")])


# ---------------------------------------------------------------- require_finite


class TestRequireFinite:
    def test_scalar_pass_and_fail(self):
        require_finite(1.5)
        require_finite(3)
        with pytest.raises(ValueError, match="stream values must be finite"):
            require_finite(float("nan"))

    def test_array_names_first_offender(self):
        require_finite(np.arange(5.0))
        with pytest.raises(ValueError, match="inf"):
            require_finite(np.array([0.0, np.inf, np.nan]))

    def test_custom_subject(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            require_finite(np.array([np.nan]), what="weights")


# ------------------------------------------------------------- ensemble / truth


@st.composite
def ensemble_cases(draw):
    """A heterogeneous ensemble's life: per-stream shapes set before any
    data, a stream added after the first block (its own clock), a stream
    reconfigured after data (it settles and replays through ``update``),
    and arbitrary block lengths, empty and longer than N included."""
    n = draw(st.sampled_from([4, 8, 16, 64, 256]))
    levels = int(math.log2(n))
    shape = st.tuples(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=levels - 1),
    )
    # Streams draw from a few shapes, so some share a cascade group.
    pool = st.sampled_from(draw(st.lists(shape, min_size=1, max_size=3)))
    shapes = draw(st.lists(pool, min_size=1, max_size=5))
    late_shape = draw(pool)
    sizes = draw(
        st.lists(st.integers(min_value=0, max_value=2 * n + 1), min_size=2, max_size=6)
    )
    settle_before = draw(st.integers(min_value=1, max_value=len(sizes) - 1))
    settle_to = draw(st.integers(min_value=0, max_value=levels - 1))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, shapes, late_shape, sizes, settle_before, settle_to, seed


class TestEnsembleAndTruthBatch:
    @given(case=ensemble_cases())
    @settings(max_examples=40)
    def test_extend_columns_matches_row_updates(self, case):
        n, shapes, late_shape, sizes, settle_before, settle_to, seed = case
        rng = np.random.default_rng(seed)
        ens = StreamEnsemble(n, k=2)
        lone = {}

        def add(name, k, min_level):
            ens.add_stream(name)
            lone[name] = Swat(n, k=2)
            for tree in (ens.tree(name), lone[name]):
                tree.reconfigure(k=k, min_level=min_level)

        for i, (k, min_level) in enumerate(shapes):
            add(f"s{i}", k, min_level)
        for b, size in enumerate(sizes):
            if b == 1:
                add("late", *late_shape)
            if b == settle_before:
                for tree in (ens.tree("s0"), lone["s0"]):
                    tree.reconfigure(min_level=settle_to)
            columns = {name: rng.normal(size=size) * 100.0 for name in lone}
            ens.extend_columns(columns)
            for name, column in columns.items():
                replay_scalar(lone[name], column)
        assert ens.ticks == sum(sizes)
        for name, tree in lone.items():
            assert tree_bits(ens.tree(name)) == tree_bits(tree), name

    @staticmethod
    def _filled_ensemble():
        ens = StreamEnsemble(16, k=2)
        for name in ("a", "b", "c"):
            ens.add_stream(name)
        ens.extend_columns({name: np.arange(40.0) * (i + 1) for i, name in enumerate("abc")})
        return ens

    def test_extend_columns_rejects_non_finite_blocks_atomically(self):
        ens = self._filled_ensemble()
        before = [tree_bits(ens.tree(name)) for name in ens.streams]
        with pytest.raises(ValueError, match="finite"):
            ens.extend_columns(
                {"a": [1.0, 2.0], "b": [3.0, float("nan")], "c": [5.0, 6.0]}
            )
        assert [tree_bits(ens.tree(name)) for name in ens.streams] == before
        assert ens.ticks == 40

    def test_update_rejects_non_finite_ticks_atomically(self):
        ens = self._filled_ensemble()
        before = [tree_bits(ens.tree(name)) for name in ens.streams]
        with pytest.raises(ValueError, match="finite"):
            ens.update({"a": 1.0, "b": float("inf"), "c": 2.0})
        assert [tree_bits(ens.tree(name)) for name in ens.streams] == before
        assert ens.ticks == 40

    def test_extend_trees_validates_block_and_trees(self):
        a, b = Swat(8), Swat(8)
        with pytest.raises(ValueError, match=r"\(2, B\) block"):
            extend_trees([a, b], np.zeros((3, 4)))
        with pytest.raises(ValueError, match=r"\(2, B\) block"):
            extend_trees([a, b], np.zeros(4))
        with pytest.raises(ValueError, match="more than once"):
            extend_trees([a, a], np.zeros((2, 4)))
        assert a.time == b.time == 0

    def test_extend_columns_validates_lengths_and_names(self):
        ens = StreamEnsemble(8)
        ens.add_stream("x")
        ens.add_stream("y")
        with pytest.raises(ValueError, match="column lengths differ"):
            ens.extend_columns({"x": [1.0, 2.0], "y": [1.0]})
        with pytest.raises(ValueError, match="missing values"):
            ens.extend_columns({"x": [1.0]})
        with pytest.raises(KeyError, match="unknown streams"):
            ens.extend_columns({"x": [1.0], "y": [1.0], "z": [1.0]})

    def test_ground_truth_window_extend_matches_updates(self):
        a = GroundTruthWindow(8)
        b = GroundTruthWindow(8)
        values = np.arange(20.0)
        for v in values:
            a.update(v)
        b.extend(values)
        np.testing.assert_array_equal(
            a.values_newest_first(), b.values_newest_first()
        )
