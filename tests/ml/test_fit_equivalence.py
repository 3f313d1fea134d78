"""Vectorized fit must reproduce the pointer reference bit for bit.

``DecisionTreeRegressor.fit`` (level-synchronous builder, see
:mod:`repro.ml.treebuilder`) and ``fit_pointer`` (per-node queue over
pointer nodes) share canonical arithmetic by construction: the same RNG
consumption order for feature subsampling, the same sequential weighted
cumulative sums, the same tie-breaking.  These tests pin that contract at
full strength — *exact* equality of the emitted flat node tables and of
every prediction, across seeds, ``max_features`` settings, duplicate rows,
constant targets, and bootstrap sample weights.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, resolve_split_feature_count
from repro.ml.treebuilder import build_forest_flat

FLAT_FIELDS = ("feature", "threshold", "left", "right", "value", "variance", "n_samples")


def assert_flat_equal(flat_a, flat_b):
    for field in FLAT_FIELDS:
        a = getattr(flat_a, field)
        b = getattr(flat_b, field)
        assert a.shape == b.shape, field
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b, equal_nan=True), field


def _problem(seed, n, d, duplicates=False, constant=False):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if duplicates:
        X = np.round(X * 4.0) / 4.0
    if constant:
        y = np.full(n, 7.5)
    else:
        y = rng.normal(size=n) + 2.0 * X[:, 0] - X[:, d // 2] ** 2
    return X, y


TREE_CASES = [
    # (seed, n, d, max_features, max_depth, min_leaf, duplicates, constant)
    (0, 120, 5, None, None, 1, False, False),
    (1, 120, 5, 5.0 / 6.0, None, 1, False, False),
    (2, 120, 5, 0.5, None, 1, False, False),
    (3, 120, 5, 2, None, 1, False, False),
    (4, 80, 4, 1, 3, 1, False, False),
    (5, 150, 6, 0.5, None, 7, False, False),
    (6, 90, 5, 5.0 / 6.0, None, 1, True, False),
    (7, 40, 3, None, None, 1, False, True),
    (8, 2, 2, None, None, 1, False, False),
    (9, 1, 2, None, None, 1, False, False),
    (10, 60, 3, 0.5, 1, 1, True, False),
]


class TestTreeFitEquivalence:
    @pytest.mark.parametrize(
        "seed,n,d,max_features,max_depth,min_leaf,dup,const", TREE_CASES
    )
    def test_flat_arrays_and_predictions_identical(
        self, seed, n, d, max_features, max_depth, min_leaf, dup, const
    ):
        X, y = _problem(seed, n, d, duplicates=dup, constant=const)
        kwargs = dict(
            max_depth=max_depth,
            min_samples_leaf=min_leaf,
            max_features=max_features,
            seed=seed * 13 + 1,
        )
        fast = DecisionTreeRegressor(**kwargs).fit(X, y)
        ref = DecisionTreeRegressor(**kwargs).fit_pointer(X, y)
        assert_flat_equal(fast.flat, ref.flat)
        rng = np.random.default_rng(seed + 100)
        for Xq in (X, rng.random((80, d))):
            assert np.array_equal(fast.predict(Xq), ref.predict(Xq))
            mean_a, var_a = fast.predict_with_variance(Xq)
            mean_b, var_b = ref.predict_with_variance(Xq)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(var_a, var_b)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sample_weight_equivalence(self, seed):
        """Integer weights (the bootstrap encoding) agree across both paths."""
        X, y = _problem(seed, 70, 4)
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 4, size=70).astype(float)
        w[0] = 1.0  # guarantee a positive entry
        fast = DecisionTreeRegressor(seed=5).fit(X, y, sample_weight=w)
        ref = DecisionTreeRegressor(seed=5).fit_pointer(X, y, sample_weight=w)
        assert_flat_equal(fast.flat, ref.flat)
        # Rows with zero weight must not influence the tree: root count is
        # the total weight, not the row count.
        assert fast.flat.n_samples[0] == int(w.sum())

    def test_rng_consumption_matches(self):
        """Both fits leave the feature-subsampling stream in the same state."""
        X, y = _problem(11, 100, 6)
        fast = DecisionTreeRegressor(max_features=0.5, seed=9).fit(X, y)
        ref = DecisionTreeRegressor(max_features=0.5, seed=9).fit_pointer(X, y)
        a = fast._rng.integers(0, 2**31 - 1)
        b = ref._rng.integers(0, 2**31 - 1)
        assert a == b


class TestForestFitEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_leaf", [1, 4])
    def test_forest_bit_for_bit(self, seed, min_leaf):
        X, y = _problem(seed, 130, 6)
        kwargs = dict(n_estimators=12, min_samples_leaf=min_leaf, seed=seed)
        fast = RandomForestRegressor(**kwargs).fit(X, y)
        ref = RandomForestRegressor(**kwargs).fit_pointer(X, y)
        assert len(fast.trees_) == len(ref.trees_)
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)
        Xq = np.random.default_rng(seed + 50).random((200, 6))
        mean_a, std_a = fast.predict_mean_std(Xq)
        mean_b, std_b = ref.predict_mean_std(Xq)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)
        assert np.array_equal(fast.predict(Xq), ref.predict(Xq))

    def test_no_bootstrap_equivalence(self):
        X, y = _problem(4, 90, 5)
        fast = RandomForestRegressor(n_estimators=6, bootstrap=False, seed=2).fit(X, y)
        ref = RandomForestRegressor(n_estimators=6, bootstrap=False, seed=2).fit_pointer(
            X, y
        )
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)

    def test_constant_target_forest(self):
        X, _ = _problem(6, 50, 4)
        y = np.full(50, -3.25)
        fast = RandomForestRegressor(n_estimators=8, seed=1).fit(X, y)
        ref = RandomForestRegressor(n_estimators=8, seed=1).fit_pointer(X, y)
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)
            assert tree_a.n_leaves == 1
        assert np.allclose(fast.predict(X), -3.25)

    def test_duplicate_rows_forest(self):
        """Quantised features force threshold tie-breaking in every tree."""
        X, y = _problem(7, 110, 5, duplicates=True)
        fast = RandomForestRegressor(n_estimators=10, seed=3).fit(X, y)
        ref = RandomForestRegressor(n_estimators=10, seed=3).fit_pointer(X, y)
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)

    def test_forest_rng_consumption_matches(self):
        X, y = _problem(8, 80, 5)
        fast = RandomForestRegressor(n_estimators=5, seed=11).fit(X, y)
        ref = RandomForestRegressor(n_estimators=5, seed=11).fit_pointer(X, y)
        assert fast._rng.integers(0, 2**31 - 1) == ref._rng.integers(0, 2**31 - 1)


def _study_problem(seed, n, d, n_binary):
    """Encoded-configuration-like data: unit-interval columns, a few of them
    quantised to knob steps, and ``n_binary`` one-hot-style 0/1 columns."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    X[:, 1::4] = np.round(X[:, 1::4] * 3.0) / 3.0
    X[:, d - n_binary :] = rng.random((n, n_binary)) < 0.3
    y = rng.lognormal(size=n) + 3.0 * X[:, 0] - X[:, d // 3]
    return X, y


STUDY_SHAPES = [
    # (name, n, d, n_binary, forest kwargs) at the shapes the studies fit.
    ("smac-postgres", 38, 21, 0, dict(min_samples_split=3, max_features=5.0 / 6.0)),
    ("smac-redis", 92, 12, 3, dict(min_samples_split=3, max_features=5.0 / 6.0)),
    ("noise-adjuster", 110, 35, 10, dict(min_samples_leaf=2)),
]


@pytest.mark.parametrize(
    "name,n,d,n_binary,kwargs", STUDY_SHAPES, ids=[case[0] for case in STUDY_SHAPES]
)
def test_study_shape_forest_bit_for_bit(name, n, d, n_binary, kwargs):
    X, y = _study_problem(len(name), n, d, n_binary)
    forest_kwargs = dict(n_estimators=24, bootstrap=True, seed=n * d, **kwargs)
    fast = RandomForestRegressor(**forest_kwargs).fit(X, y)
    ref = RandomForestRegressor(**forest_kwargs).fit_pointer(X, y)
    for tree_a, tree_b in zip(fast.trees_, ref.trees_):
        assert_flat_equal(tree_a.flat, tree_b.flat)


def _assert_builder_matches_pointer(X, y, weights, seeds, **tree_kwargs):
    """``build_forest_flat`` over all rows of ``weights`` at once equals one
    ``fit_pointer`` per row with the same weights and seed."""
    max_features = tree_kwargs.pop("max_features", None)
    flats = build_forest_flat(
        X,
        y,
        weights,
        [np.random.default_rng(seed) for seed in seeds],
        max_depth=tree_kwargs.get("max_depth"),
        min_samples_split=tree_kwargs.get("min_samples_split", 2),
        min_samples_leaf=tree_kwargs.get("min_samples_leaf", 1),
        n_split_features=resolve_split_feature_count(max_features, X.shape[1]),
    )
    for flat, w, seed in zip(flats, weights, seeds):
        ref = DecisionTreeRegressor(max_features=max_features, seed=seed, **tree_kwargs)
        assert_flat_equal(flat, ref.fit_pointer(X, y, sample_weight=w).flat)


def test_one_long_segment_among_many_single_member_nodes():
    """A level whose nodes are one long segment and many length-1 ones:
    the edge of the length-sorted position-major scan layout."""
    X, y = _problem(12, 50, 4, duplicates=True)
    weights = np.zeros((33, 50))
    weights[0] = 1.0  # one tree over every row
    weights[1:31, np.arange(30)] = np.eye(30)  # thirty one-row trees
    weights[31, :2] = 1.0  # two short trees
    weights[32, [5, 9, 40]] = 2.0
    _assert_builder_matches_pointer(X, y, weights, range(100, 133), max_features=0.5)


@st.composite
def _weighted_problems(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    levels = draw(st.lists(st.sampled_from([0, 2, 3]), min_size=d, max_size=d))
    for col, n_levels in enumerate(levels):
        if n_levels:  # duplicate-heavy column
            X[:, col] = rng.integers(0, n_levels, size=n)
    y = np.round(rng.normal(size=n) + X[:, 0], draw(st.sampled_from([1, 8])))
    n_trees = draw(st.integers(1, 3))
    weights = rng.integers(0, 4, size=(n_trees, n)).astype(float)
    weights[:, 0] += weights.sum(axis=1) == 0  # every tree needs a member
    max_features = draw(
        st.none() | st.floats(0.05, 1.0) | st.integers(1, d + 2)
    )
    tree_kwargs = dict(
        max_features=max_features,
        max_depth=draw(st.none() | st.integers(0, 6)),
        min_samples_split=draw(st.integers(2, 4)),
        min_samples_leaf=draw(st.integers(1, 4)),
    )
    return X, y, weights, [seed + t for t in range(n_trees)], tree_kwargs


@given(_weighted_problems())
def test_property_builder_equals_pointer(problem):
    X, y, weights, seeds, tree_kwargs = problem
    _assert_builder_matches_pointer(X, y, weights, seeds, **tree_kwargs)
