#!/usr/bin/env python3
"""Whole-study benchmark: time TUNA tuning studies end to end, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tuna-mssales --seed 1 --seconds 20 --trace 0

One invocation is one process running one workload.  It

1. measures set-up time in fresh interpreters (import ``repro`` and build the
   study), several times before and after the runs below, and keeps the
   median;
2. runs one short untimed warm-up study;
3. runs the workload's study again and again, always at the same seed, until
   ``--seconds`` have passed (at least once), checking every run's outputs
   and that every run's trajectory digest is identical;
4. with ``--trace 0`` reports the end-to-end metrics (medians over the runs);
   with ``--trace 1`` it alternates untraced and traced runs, wraps the
   public entry point of every layer in host-time spans during the traced
   ones, writes the last traced run's spans as Chrome trace JSON under
   ``perfbench/out/``, and reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
sample slots, ``failed`` the slots lost to exhausted retries or quarantine
penalties (every slot, if a correctness check failed).  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: BLAS/OpenMP pools pinned to one thread in this process and every child.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: Fresh-interpreter set-up measurements per invocation (median reported),
#: half before and half after the timed runs.
SETUP_PROBES = 6

#: Calls beyond the tail percentile (the highest with at least this many).
TAIL_BEYOND = 10


class CheckFailed(Exception):
    """A run's outputs failed a correctness check."""


# --------------------------------------------------------------------- set-up
def probe_setup(workload: str, seed: int) -> None:
    """Child mode: import ``repro`` and build one study, print the timings."""
    t0 = time.perf_counter()
    from perfbench import workloads

    t1 = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    try:
        workloads.build(workload, seed, workdir)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


class SetupProbes:
    """Set-up measured in fresh interpreters, in batches spread over a run.

    Set-up is almost all ``import repro`` (scipy dominates), which is memory
    bound and so follows the shared host's speed closely.  Probes taken both
    before and after the timed runs sample the host over the whole run rather
    than its first seconds, so one run's median is steadier.  Hash
    randomization is fixed so every probe builds the same dictionaries.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
                    "--workload", workload, "--seed", str(seed)]
        self.probes: list = []

    def take(self, n: int) -> None:
        for _ in range(n):
            proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
            self.probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def medians(self) -> dict:
        """Median import/build seconds and their sum over the kept probes."""
        return {
            key: statistics.median(p[key] for p in self.probes)
            for key in ("import_s", "build_s")
        } | {"setup_s": statistics.median(p["import_s"] + p["build_s"] for p in self.probes)}


# ------------------------------------------------------------------ latencies
class LatencyProbe:
    """Host latency of the sampler's propose and ingest entry points.

    Latency is process CPU time: both calls are single-threaded computation
    without blocking I/O, so on an idle host it equals their wall time, but
    it leaves out the time a shared host takes the CPU away mid-call, which
    otherwise dominates the tail of millisecond calls.

    Only proposals that ask the optimizer (``WorkRequest.kind == "new"``)
    are timed: promotions only move a configuration up a rung (~0.2 ms) and
    are about half the calls under TUNA, so with them the distribution has
    two modes and its median jumps between them from seed to seed.  Ingest
    times the outermost call only, so a default ``complete_work_batch``
    looping over ``complete_work`` counts once.  Patches the sampler's
    *class*: instances must stay picklable for checkpoints.
    """

    def __init__(self, sampler_cls: type) -> None:
        self.cls = sampler_cls
        self.propose_ms: list = []
        self.ingest_ms: list = []
        self._depth = 0
        self._saved: dict = {}

    def __enter__(self) -> "LatencyProbe":
        for attr, sink, keep in (
            ("propose_work", self.propose_ms, lambda request: request.kind == "new"),
            ("complete_work", self.ingest_ms, None),
            ("complete_work_batch", self.ingest_ms, None),
        ):
            original = getattr(self.cls, attr)
            self._saved[attr] = self.cls.__dict__.get(attr)
            setattr(self.cls, attr, self._timed(original, sink, keep))
        return self

    def __exit__(self, *exc) -> None:
        for attr, original in self._saved.items():
            if original is None:
                delattr(self.cls, attr)
            else:
                setattr(self.cls, attr, original)

    def _timed(self, fn, sink, keep):
        probe = self

        def timed(*args, **kwargs):
            probe._depth += 1
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                probe._depth -= 1
            elapsed_ms = (time.process_time() - t0) * 1e3
            if probe._depth == 0 and (keep is None or keep(result)):
                sink.append(elapsed_ms)
            return result

        return timed


def tail(values: list) -> tuple:
    """``(value, percentile)`` of the highest percentile with >= 10 calls beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


# ------------------------------------------------------------- correctness
def digest(sampler, result) -> str:
    """Trajectory digest: every sample's config/worker/value plus the makespan."""
    from repro.core.eventlog import config_digest

    h = hashlib.sha256()
    for sample in sampler.datastore.all_samples():
        h.update(f"{config_digest(sample.config)}|{sample.worker_id}|{sample.value!r}\n".encode())
    h.update(repr(result.wall_clock_hours).encode())
    return h.hexdigest()[:16]


def check(study, result) -> None:
    """Raise :class:`CheckFailed` unless the run's outputs are correct."""
    import numpy as np

    samples = study.loop.sampler.datastore.all_samples()
    if result.n_samples < study.max_samples:
        raise CheckFailed(f"{result.n_samples} samples < budget {study.max_samples}")
    if result.n_samples != len(samples):
        raise CheckFailed(f"n_samples {result.n_samples} != datastore {len(samples)}")
    if not all(math.isfinite(s.value) for s in samples):
        raise CheckFailed("a stored sample value is not finite")
    encoded = study.system.knob_space.encode(result.best_config)
    if not (np.all(np.isfinite(encoded)) and np.all((encoded >= 0.0) & (encoded <= 1.0))):
        raise CheckFailed("best config encodes outside the knob space")
    if study.event_log_path is not None:
        check_event_log(study.event_log_path, result.engine_stats or {}, len(samples))


def check_event_log(path: str, stats: dict, n_samples: int) -> None:
    """The write-ahead log agrees with ``engine_stats``: one accepted
    completion per datastore sample, no fenced epoch ever completes."""
    from repro.core import EventLog, EventLogError

    try:
        events = EventLog.replay(path)
    except EventLogError as exc:
        raise CheckFailed(f"event log does not replay: {exc}") from exc
    kinds = Counter(event["kind"] for event in events)
    for kind, key in (
        ("suspect", "n_suspected"),
        ("zombie_rejected", "n_zombies_rejected"),
        ("quarantined", "n_quarantined"),
    ):
        if kinds[kind] != stats.get(key, 0):
            raise CheckFailed(f"log has {kinds[kind]} {kind} events, stats {stats.get(key, 0)}")
    if stats.get("n_quarantined", 0) != stats.get("n_quarantine_retries", 0) + stats.get(
        "n_quarantine_penalized", 0
    ):
        raise CheckFailed("quarantined != quarantine retries + penalties")
    accepted = [e["item"] for e in events if e["kind"] == "complete"]
    if len(accepted) + stats.get("n_exhausted", 0) != n_samples:
        raise CheckFailed(
            f"{len(accepted)} accepted + {stats.get('n_exhausted', 0)} exhausted != {n_samples} samples"
        )
    if len(set(accepted)) != len(accepted):
        raise CheckFailed("an item completed twice")
    fenced = {e["item"] for e in events if e["kind"] == "lease_fence"}
    if not fenced.isdisjoint(accepted):
        raise CheckFailed("a fenced epoch completed")


def lost_slots(result) -> int:
    """Slots lost to exhausted retries or quarantine penalties."""
    stats = result.engine_stats or {}
    return int(stats.get("n_exhausted", 0)) + int(stats.get("n_quarantine_penalized", 0))


# --------------------------------------------------------------------- runs
class Runner:
    """Builds, runs and checks one workload's studies.

    ``--seed`` selects a fixed set of ``studies`` distinct studies (sub-seeds
    ``seed * 1000 + i``); averaging over several studies is what keeps the
    figures steady from one seed to the next.  Every run of a sub-seed must
    reproduce the same trajectory digest.
    """

    def __init__(self, workload: str, seed: int, max_samples=None) -> None:
        from perfbench import workloads

        self.workloads = workloads
        self.spec = workloads.WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.max_samples = max_samples
        self.workdir = os.path.join(OUT_DIR, f"{workload}-s{seed}-p{os.getpid()}")
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list = []

    def sub_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def run(self, index: int, tracer=None, max_samples=None) -> dict:
        """Run sub-study ``index`` once; returns its figures (checked)."""
        seed = self.sub_seed(index)
        shutil.rmtree(self.workdir, ignore_errors=True)
        study = self.workloads.build(
            self.workload, seed, self.workdir, max_samples or self.max_samples
        )
        sampler = study.loop.sampler
        with LatencyProbe(type(sampler)) as probe:
            if tracer is None:
                t0 = time.perf_counter()
                result = study.loop.run()
                elapsed = time.perf_counter() - t0
            else:
                from perfbench.tracing import STUDY

                tracer.start_study()
                t0 = time.perf_counter()
                with tracer.span(STUDY, STUDY):
                    result = study.loop.run()
                elapsed = time.perf_counter() - t0
        slots = len(sampler.datastore.all_samples())
        self.attempted += slots
        try:
            check(study, result)
            trajectory = digest(sampler, result)
            first = self.digests.setdefault((seed, study.max_samples), trajectory)
            if trajectory != first:
                raise CheckFailed(f"seed {seed}: trajectory digest {trajectory} != {first}")
            self.failed += lost_slots(result)
        except CheckFailed as exc:
            self.correct = False
            self.failed += slots
            self.errors.append(str(exc))
        return {
            "seed": seed,
            "study": study,
            "result": result,
            "elapsed": elapsed,
            "samples": result.n_samples,
            "samples_per_s": result.n_samples / elapsed,
            "propose_ms": probe.propose_ms,
            "ingest_ms": probe.ingest_ms,
        }

    def digest(self) -> str:
        """One digest over every sub-study's trajectory, for cross-run comparison."""
        joined = ",".join(f"{key}:{d}" for key, d in sorted(self.digests.items()))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def study_figures(run: dict) -> dict:
    """Deterministic figures of one study, incl. its §6 deployment."""
    from perfbench.workloads import deploy

    result = run["result"]
    tuned, default = deploy(run["study"], result.best_config, run["seed"])
    ratio = tuned.mean / default.mean
    return {
        "deploy_gain": ratio if tuned.higher_is_better else 1.0 / ratio,
        "deploy_cov": tuned.cov,
        "sim_makespan_h": result.wall_clock_hours,
        "failed_slot_frac": lost_slots(result) / result.n_samples,
    }


def latency_notes(runs: list) -> list:
    """Propose and ingest latency, pooled over the runs (printed, not gated)."""
    notes = []
    for key in ("propose", "ingest"):
        pooled = [ms for run in runs for ms in run[f"{key}_ms"]]
        value, pct = tail(pooled)
        notes.append(
            f"{key}_ms p50 {statistics.median(pooled):.6g}, tail {value:.6g} "
            f"(p{pct:.2f} of n={len(pooled)} calls; not gated)"
        )
    return notes


def run_timed(runner: Runner, seconds: float) -> tuple:
    """Whole cycles over the sub-studies while they fit in ``seconds``
    (at least one), tracing off.  Throughput is total samples over total
    study seconds: steadier than a median of per-study rates, which differ
    by study."""
    k = runner.spec.studies
    runs = []
    start = time.perf_counter()
    while True:
        for i in range(k):
            run = runner.run(i)
            if runs:  # only the first study is kept whole (for its figures)
                del run["study"], run["result"]
            runs.append(run)
        spent = time.perf_counter() - start
        if spent * (len(runs) + k) / len(runs) > seconds:
            break
    metrics = {"samples_per_s": sum(r["samples"] for r in runs) / sum(r["elapsed"] for r in runs)}
    return runs, metrics, latency_notes(runs)


def run_traced(runner: Runner, seconds: float) -> tuple:
    """Pairs of one untraced and one traced run of the same sub-study while
    time remains (at least one pair); per-layer metrics."""
    from perfbench.tracing import Tracer, instrument, layer_targets

    tracer = Tracer()
    targets = layer_targets()
    pairs = []
    deadline = time.perf_counter() + seconds
    while not pairs or (
        len(pairs) < runner.spec.studies
        and time.perf_counter() + pairs[-1][0]["elapsed"] * 2 < deadline
    ):
        index = len(pairs)
        plain = runner.run(index)
        with instrument(tracer, targets):
            traced = runner.run(index, tracer)
        pairs.append((plain, traced))
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{runner.workload}-s{runner.seed}.json")
    tracer.write_chrome(trace_path, 0)
    traced = [t for _, t in pairs]
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead"] = statistics.median(
        1.0 - t["samples_per_s"] / p["samples_per_s"] for p, t in pairs
    )
    for key in ("propose", "ingest"):
        pooled = [ms for p, _ in pairs for ms in p[f"{key}_ms"]]
        metrics[f"samplers.{key}_ms_p50"] = statistics.median(pooled)
        metrics[f"samplers.{key}_ms_tail"] = tail(pooled)[0]
    return traced, metrics, [f"chrome trace: {os.path.relpath(trace_path, ROOT)}"]


def layer_metrics(tracer, traced: list) -> dict:
    """Self time and share per layer (medians over the traced studies) and
    counts of the first traced study (they repeat exactly at a seed)."""
    from perfbench.tracing import LAYERS, STUDY

    per_study = [tracer.self_seconds(i) for i in range(len(traced))]
    metrics = {}
    for layer in LAYERS + (STUDY,):
        name = "unattributed" if layer == STUDY else layer
        if layer != STUDY:
            metrics[f"{name}.self_s"] = statistics.median(s.get(layer, 0.0) for s in per_study)
        metrics[f"{name}.share"] = statistics.median(
            s.get(layer, 0.0) / r["elapsed"] for s, r in zip(per_study, traced)
        )
    metrics["trace.samples_per_s"] = statistics.median(r["samples_per_s"] for r in traced)

    run = traced[0]
    counts = tracer.study_counts[0]
    maxima = tracer.study_maxima[0]

    def calls(name, parent=None):
        return tracer.calls(0, name, parent)

    def ratio(a, b):
        return a / b if b else 0.0

    fit_s = tracer.inclusive_seconds(0, "ml.fit")
    metrics.update(
        {
            "samplers.propose.calls": calls("samplers.propose"),
            "samplers.ingest.calls": calls("samplers.ingest"),
            "samplers.promotions": sum(1 for r in run["result"].history if r.budget > 1),
            "optimizers.ask.calls": calls("optimizers.ask"),
            "optimizers.refit_per_ask": ratio(
                calls("ml.fit", "optimizers.ask"), tracer.asks_with_predict(0)
            ),
            "ml.fit.calls": calls("ml.fit"),
            "ml.fit.rows": counts["ml.fit.rows"],
            "ml.fit.ms_per_krow": ratio(fit_s * 1e6, counts["ml.fit.rows"]),
            "ml.predict.rows": counts["ml.predict.rows"],
            "configspace.configs_built": counts["configspace.configs_built"],
            "configspace.encode.rows": counts["configspace.encode.rows"],
            "noise_adjuster.train.calls": calls("noise_adjuster.train"),
            "noise_adjuster.train.refits": calls("ml.fit", "noise_adjuster.train"),
            "noise_adjuster.adjust.calls": calls("noise_adjuster.adjust"),
            "outlier.calls": calls("outlier.is_unstable"),
            "outlier.unstable_frac": ratio(counts["outlier.unstable"], calls("outlier.is_unstable")),
            "scheduler.assign.calls": calls("scheduler.assign"),
            "engine.drain.calls": calls("engine.drain"),
            "systems.run.calls": calls("systems.run"),
            "eventlog.records": calls("eventlog.append"),
            "checkpoint.calls": calls("checkpoint"),
            "checkpoint.bytes_max": maxima["checkpoint.bytes_max"],
        }
    )
    metrics.update(engine_metrics(run))
    metrics.update({f"study.{k}": v for k, v in study_figures(run).items()})
    return metrics


def engine_metrics(run: dict) -> dict:
    """Engine counters from ``engine_stats``; simulated queue waits and
    utilization from the run's own event log (0 where a layer is absent)."""
    stats = run["result"].engine_stats or {}
    metrics = {
        "engine.retries": stats.get("n_retries", 0),
        "engine.exhausted": stats.get("n_exhausted", 0),
        "engine.suspected": stats.get("n_suspected", 0),
        "engine.zombies_rejected": stats.get("n_zombies_rejected", 0),
        "engine.quarantined": stats.get("n_quarantined", 0),
        "engine.speculation.win_frac": (
            stats["n_duplicate_wins"] / stats["n_duplicates_submitted"]
            if stats.get("n_duplicates_submitted")
            else 0.0
        ),
        "engine.queue_wait_h_p50": 0.0,
        "engine.queue_wait_h_p90": 0.0,
        "engine.utilization": 0.0,
        "eventlog.bytes": 0,
    }
    path = run["study"].event_log_path
    if path is not None:
        from repro.obs.report import report_from_log

        report = report_from_log(path)
        metrics["engine.queue_wait_h_p50"] = report.queue_wait_hours.get("p50", 0.0)
        metrics["engine.queue_wait_h_p90"] = report.queue_wait_hours.get("p90", 0.0)
        metrics["engine.utilization"] = report.utilization.get("mean_busy_fraction", 0.0)
        metrics["eventlog.bytes"] = os.path.getsize(path)
    return metrics


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="override the studies' sample budget (self-check only)")
    parser.add_argument("--setup-probes", type=int, default=SETUP_PROBES)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probes < 1:
        parser.error("--setup-probes must be >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        parser.error(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")

    setup = SetupProbes(args.workload, args.seed)
    setup.take(args.setup_probes // 2)
    runner = Runner(args.workload, args.seed, args.samples)
    try:
        if args.trace:
            runs, measured, notes = run_traced(runner, args.seconds)
            wanted = spec["per_layer"]
        else:
            # Untimed warm-up that doubles as a determinism check: sub-study
            # 0 at a fifth of its budget, twice, with identical digests.
            budget = max(10, (args.samples or runner.spec.max_samples) // 5)
            runner.run(0, max_samples=budget)
            runner.run(0, max_samples=budget)
            runs, measured, notes = run_timed(runner, args.seconds)
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            notes += [f"{k} = {v!r} (seed {runs[0]['seed']})" for k, v in study_figures(runs[0]).items()]
            wanted = spec["end_to_end"]
    finally:
        runner.close()
    setup.take(args.setup_probes - args.setup_probes // 2)
    setup_s = setup.medians()
    if args.trace:
        measured["setup.import_s"] = setup_s["import_s"]
        measured["setup.build_s"] = setup_s["build_s"]
    else:
        measured["setup_s"] = setup_s["setup_s"]

    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  studies {len(runs)}  digest {runner.digest()}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']}")
    for note in notes + [f"check failed: {e}" for e in runner.errors]:
        print(f"  {note}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    # The event log stamps a git SHA; stop git from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    sys.exit(main())
