"""The columnar candidate pool must reproduce the row pool bit for bit.

:meth:`ConfigurationSpace.candidate_pool` keeps one array per knob and
builds a :class:`Configuration` only for the rows asked for.  The reference
below is the row pool it replaced, kept here verbatim in behaviour: build
every candidate as a dict (``sample_batch`` plus one ``neighbours`` call per
incumbent, each knob drawn with the row-level parameter operations), then
encode the list per knob.  Both must draw the same numbers in the same
order, encode to the same bits and yield the same, Python-typed values.
"""

import math
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configspace import (
    BooleanParameter,
    CategoricalParameter,
    ConfigurationSpace,
    FloatParameter,
    IntegerParameter,
)
from repro.systems.nginx import build_nginx_knob_space
from repro.systems.postgres.knobs import build_postgres_knob_space
from repro.systems.redis import build_redis_knob_space


# -- reference: the row pool -------------------------------------------------


def _ref_decode(p, units):
    units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
    if isinstance(p, CategoricalParameter):
        indices = np.minimum((units * len(p.choices)).astype(np.int64), len(p.choices) - 1)
        return [p.choices[i] for i in indices.tolist()]
    if p.log:
        raw = np.exp(math.log(p.lower) + units * (math.log(p.upper) - math.log(p.lower)))
    else:
        raw = p.lower + units * (p.upper - p.lower)
    if isinstance(p, IntegerParameter):
        return np.clip(np.round(raw), p.lower, p.upper).astype(np.int64).tolist()
    return raw.tolist()


def _ref_sample(p, n, rng):
    if isinstance(p, CategoricalParameter):
        return [p.choices[i] for i in rng.integers(0, len(p.choices), size=n).tolist()]
    return _ref_decode(p, rng.random(n))


def _ref_neighbour(p, value, n, rng, scale):
    if isinstance(p, CategoricalParameter):
        p.validate(value)
        others = [c for c in p.choices if c != value]
        return [others[i] for i in rng.integers(0, len(others), size=n).tolist()]
    unit = p.encode(value)
    steps = rng.normal(0.0, scale, size=n)
    units = np.clip(unit + steps, 0.0, 1.0)
    if isinstance(p, FloatParameter):
        return _ref_decode(p, units)
    candidates = np.array(_ref_decode(p, units), dtype=np.int64)
    stalled = np.flatnonzero(candidates == int(value))
    if stalled.size:
        directions = np.where(rng.random(stalled.size) < 0.5, 1, -1)
        candidates[stalled] = np.clip(int(value) + directions, p.lower, p.upper)
    return candidates.tolist()


def _ref_encode(p, values):
    if isinstance(p, CategoricalParameter):
        indices = np.array([p.choices.index(v) for v in values], dtype=float)
        return (indices + 0.5) / len(p.choices)
    if isinstance(p, IntegerParameter):
        as_int = np.asarray(values).astype(np.int64)
        if p.log:
            return (np.log(as_int) - math.log(p.lower)) / (
                math.log(p.upper) - math.log(p.lower)
            )
        return (as_int - p.lower) / (p.upper - p.lower)
    values = np.asarray(values, dtype=float)
    if p.log:
        return (np.log(values) - math.log(p.lower)) / (math.log(p.upper) - math.log(p.lower))
    return (values - p.lower) / (p.upper - p.lower)


def reference_pool(space, n_random, incumbents, per_incumbent, rng, scale):
    """(X, rows): the row pool exactly as the optimizers used to build it."""
    names = space.names
    rows: List[Dict] = []
    if n_random:
        columns = [_ref_sample(p, n_random, rng) for p in space.parameters]
        rows.extend(dict(zip(names, row)) for row in zip(*columns))
    if per_incumbent > 0:
        for incumbent in incumbents:
            base = incumbent.as_dict()
            for name in names:
                space[name].validate(base[name])
            chosen = rng.integers(0, space.dimension, size=per_incumbent)
            block = [dict(base) for _ in range(per_incumbent)]
            for index, name in enumerate(names):
                slots = np.flatnonzero(chosen == index)
                if slots.size == 0:
                    continue
                values = _ref_neighbour(space[name], base[name], slots.size, rng, scale)
                for slot, value in zip(slots.tolist(), values):
                    block[slot][name] = value
            rows.extend(block)
    X = np.empty((len(rows), space.dimension), dtype=float)
    for j, name in enumerate(names):
        X[:, j] = _ref_encode(space[name], [row[name] for row in rows])
    return X, rows


# -- spaces -------------------------------------------------------------------


def synthetic_space():
    return ConfigurationSpace(
        [
            FloatParameter("lin", 0.0, 10.0),
            FloatParameter("flog", 1e-3, 1e3, log=True),
            IntegerParameter("ilin", -5, 5),
            IntegerParameter("ilog", 2, 4096, log=True),
            BooleanParameter("flag"),
            CategoricalParameter("mixed", [None, 0.25, 4, "auto"]),
            CategoricalParameter("sizes", [16, 64, 256]),
        ]
    )


SPACES = {
    "postgres": build_postgres_knob_space,
    "redis": build_redis_knob_space,
    "nginx": build_nginx_knob_space,
    "synthetic": synthetic_space,
}


def incumbents_for(space, n, seed):
    """Legal incumbents: the default plus random rows; on the synthetic
    space one also carries an int on a float knob (``lin=3``)."""
    configs = [space.default_configuration()]
    if "lin" in space:
        configs.append(configs[0].with_updates(lin=3))
    rng = np.random.default_rng([seed, 99])
    _, rows = reference_pool(space, n, [], 0, rng, 0.2)
    configs.extend(space.configuration(row) for row in rows)
    return configs[:n]


def assert_pool_matches_reference(space, n_random, incumbents, per, seed, scale):
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    X_ref, rows = reference_pool(space, n_random, incumbents, per, ref_rng, scale)
    pool = space.candidate_pool(n_random, incumbents, per, rng=new_rng, scale=scale)

    assert len(pool) == len(rows)
    assert np.array_equal(pool.encode(), X_ref)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    configs = pool.configurations()
    for row, (config, expected) in enumerate(zip(configs, rows)):
        assert config.as_dict() == expected
        for name in space.names:
            value = config[name]
            assert not isinstance(value, np.generic), (row, name, value)
            assert type(value) is type(expected[name]), (row, name)
            assert repr(value) == repr(expected[name]), (row, name)
    # Building one row on its own gives the same configuration.
    for row in sorted({0, len(rows) // 2, len(rows) - 1}) if rows else []:
        assert pool.configurations([row])[0].as_dict() == rows[row]


# -- tests ---------------------------------------------------------------------


class TestCandidatePoolMatchesRowReference:
    @pytest.mark.parametrize("space_name", sorted(SPACES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_smac_shaped_pool(self, space_name, seed):
        space = SPACES[space_name]()
        incumbents = incumbents_for(space, 4, seed)
        assert_pool_matches_reference(space, 400, incumbents, 15, seed, 0.15)

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_gp_shaped_pool(self, space_name):
        space = SPACES[space_name]()
        incumbents = incumbents_for(space, 3, 5)
        assert_pool_matches_reference(space, 500, incumbents, 20, 5, 0.1)

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_random_only_and_neighbours_only(self, space_name):
        space = SPACES[space_name]()
        assert_pool_matches_reference(space, 37, [], 0, 2, 0.2)
        assert_pool_matches_reference(space, 0, incumbents_for(space, 2, 3), 9, 3, 0.2)

    @settings(max_examples=40)
    @given(
        space_name=st.sampled_from(sorted(SPACES)),
        n_random=st.integers(0, 60),
        n_incumbents=st.integers(0, 4),
        per=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-9, 0.1, 0.15, 0.2, 1.0]),
    )
    def test_property_pool_matches_reference(
        self, space_name, n_random, n_incumbents, per, seed, scale
    ):
        space = SPACES[space_name]()
        incumbents = incumbents_for(space, n_incumbents, seed)
        assert_pool_matches_reference(space, n_random, incumbents, per, seed, scale)
