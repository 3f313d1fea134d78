"""Shared fixtures for TUNA-core tests."""

import json
from pathlib import Path

import pytest

from repro.cloud import Cluster
from repro.core.execution import ExecutionEngine
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


@pytest.fixture()
def cluster():
    return Cluster(n_workers=10, seed=7)


@pytest.fixture()
def postgres_system():
    return PostgreSQLSystem()


@pytest.fixture()
def tpcc_execution(postgres_system):
    return ExecutionEngine(postgres_system, TPCC, seed=11)


@pytest.fixture()
def smac_optimizer(postgres_system):
    return SMACOptimizer(
        postgres_system.knob_space,
        seed=3,
        n_initial_design=5,
        n_candidates=80,
        n_local=20,
        n_trees=8,
    )


@pytest.fixture()
def random_optimizer(postgres_system):
    return RandomSearchOptimizer(postgres_system.knob_space, seed=3)


#: Recorded trajectories of the batch-size-1 equivalence cases (the
#: sequential-driver runs the lockstep engine must reproduce).
BATCH1_GOLDEN = Path(__file__).parent / "golden" / "batch1.json"


@pytest.fixture()
def step():
    """Step a sampler by hand: propose, evaluate inline, complete."""

    def _step(sampler, iteration):
        request = sampler.propose_work(iteration)
        samples = sampler.execution.evaluate_on_many(
            request.config, request.vms, iteration, request.budget
        )
        return sampler.complete_work(request, samples)

    return _step


@pytest.fixture(scope="session")
def batch1_golden():
    """Assert that a finished run reproduces a recorded batch-1 case.

    Worker, iteration, budget, crashed flag and iteration count must match
    exactly; floating-point values to a relative 1e-12.
    """
    cases = json.loads(BATCH1_GOLDEN.read_text())["cases"]

    def check(case, sampler, result):
        golden = cases[case]
        samples = sampler.datastore.all_samples()
        assert [(s.worker_id, s.iteration, s.budget, s.crashed) for s in samples] == [
            tuple(row[:4]) for row in golden["samples"]
        ]
        assert [s.value for s in samples] == pytest.approx(
            [row[4] for row in golden["samples"]], rel=1e-12
        )
        assert result.n_iterations == golden["n_iterations"]
        for key in ("wall_clock_hours", "best_catalog_value"):
            assert getattr(result, key) == pytest.approx(golden[key], rel=1e-12)
        assert [vm.clock_hours for vm in sampler.cluster.workers] == pytest.approx(
            golden["worker_clock_hours"], rel=1e-12
        )

    return check
