"""Smoke test: every fast example script runs to completion.

Each example drives the full tuning stack end to end, so an API change
that breaks one (a removed option, a renamed class) fails here instead of
on a user's first run.  ``tune_postgres_workloads.py`` is left out: it
takes half a minute on its own.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES = [
    "async_cluster_tuning.py",
    "cloud_noise_study.py",
    "fault_tolerant_tuning.py",
    "heterogeneous_fleet_tuning.py",
    "quickstart.py",
    "straggler_mitigation.py",
    "tune_redis_ycsb.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Examples that write scratch files (event logs, checkpoints) put them
    # under the temp directory; keep them inside the test's own tmp_path.
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
