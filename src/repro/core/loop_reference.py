"""Retained linear-scan reference of the cluster event loop.

:class:`ScanEventLoop` is the pre-refactor :class:`ClusterEventLoop`
preserved verbatim: a ``Dict[str, float]`` of per-worker clocks and O(n)
linear scans over ``cluster.workers`` for every idle/placement query.  It
exists for two reasons, mirroring the ``fit`` vs ``fit_pointer`` discipline
in ``ml/``:

* **equivalence** — the indexed loop must reproduce the scans' completion
  order, placements and clocks bit-for-bit (the property tests in
  ``tests/core/test_indexed_loop.py`` drive randomized submit / complete /
  cancel / fail sequences through both);
* **benchmark baseline** — ``make bench-eventloop`` measures the indexed
  loop's events/sec *against this loop* at 1k workers, guarding the >=10x
  speedup that makes 10k-worker / 1M-sample runs feasible.

Do not grow features here: the point of the file is to stay the scan-based
semantics that the indexed implementation is checked against.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cloud.cluster import Cluster
from repro.cloud.vm import VirtualMachine
from repro.core.async_engine import WorkItem, WorkRequest
from repro.faults import (
    CrashDecision,
    CrashModel,
    FaultModel,
    InjectionContext,
    Injector,
    active,
)


class ScanEventLoop:
    """Linear-scan discrete-event loop (the pre-refactor implementation).

    Semantics are identical to :class:`~repro.core.ClusterEventLoop`; only
    the data structures differ — every query walks ``cluster.workers``.
    """

    def __init__(
        self,
        cluster: Cluster,
        lockstep: bool = False,
        fault_model: "Injector[float] | str | None" = None,
        crash_model: "Injector[CrashDecision] | str | None" = None,
    ) -> None:
        self.cluster = cluster
        self.lockstep = lockstep
        self.fault_model = active(FaultModel.build(fault_model))
        self.crash_model = active(CrashModel.build(crash_model))
        self._free_at: Dict[str, float] = {vm.vm_id: 0.0 for vm in cluster.workers}
        self._events: List[Tuple[float, int, WorkItem]] = []
        self._sequence = 0
        self._n_cancelled = 0
        self._dead: Dict[str, float] = {}
        self.now = 0.0
        self.makespan = 0.0

    # -- submit ---------------------------------------------------------------
    def submit(
        self,
        request: WorkRequest,
        vm: VirtualMachine,
        duration_hours: float,
        speculative: bool = False,
        not_before: float = 0.0,
    ) -> WorkItem:
        """Queue one run on a worker; returns its scheduled work item."""
        if duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if vm.vm_id not in self._free_at:
            raise KeyError(f"worker {vm.vm_id!r} is not part of this cluster")
        if self.lockstep:
            start = self.now
        else:
            start = max(self._free_at[vm.vm_id], self.now, not_before)
        stretch = 1.0
        if self.fault_model is not None:
            context = InjectionContext(
                worker_id=vm.vm_id,
                start_hours=start,
                duration_hours=duration_hours,
                concurrent_items=self.n_in_flight,
                n_workers=len(self._free_at),
                speculative=speculative,
            )
            stretch = max(float(self.fault_model.decide(context)), 0.05)
            finish = start + duration_hours * stretch
        else:
            finish = start + duration_hours
        item = WorkItem(
            request,
            vm,
            start,
            finish,
            self._sequence,
            stretch=stretch,
            speculative=speculative,
        )
        if vm.vm_id in self._dead:
            item.failed = True
            item.failure_kind = "node-death"
            finish = start
            item.finish_hours = start
        elif self.crash_model is not None:
            decision = self.crash_model.decide(
                InjectionContext(
                    worker_id=vm.vm_id,
                    start_hours=start,
                    duration_hours=finish - start,
                    speculative=speculative,
                )
            )
            if decision.failed:
                fail_at = min(max(decision.fail_at_hours, start), finish)
                item.failed = True
                item.failure_kind = decision.kind
                finish = fail_at
                item.finish_hours = fail_at
                if decision.worker_dead:
                    self._dead[vm.vm_id] = fail_at
        self._free_at[vm.vm_id] = finish
        heapq.heappush(self._events, (finish, self._sequence, item))
        self._sequence += 1
        return item

    # -- introspection --------------------------------------------------------
    @property
    def n_in_flight(self) -> int:
        return len(self._events) - self._n_cancelled

    def worker_free_at(self, vm_id: str) -> float:
        return self._free_at[vm_id]

    def idle_workers(self) -> List[VirtualMachine]:
        """Live workers whose queue has drained — the O(n) linear scan."""
        return [
            vm
            for vm in self.cluster.workers
            if self._free_at[vm.vm_id] <= self.now and vm.vm_id not in self._dead
        ]

    def first_idle_worker(self) -> Optional[VirtualMachine]:
        """First idle live worker in cluster order (O(n) scan)."""
        for vm in self.cluster.workers:
            if self._free_at[vm.vm_id] <= self.now and vm.vm_id not in self._dead:
                return vm
        return None

    def fastest_idle_worker(
        self, excluded_ids: Iterable[str] = ()
    ) -> Optional[VirtualMachine]:
        """Fastest idle live worker not excluded; ties by cluster index."""
        excluded = frozenset(excluded_ids)
        candidates = [
            vm for vm in self.idle_workers() if vm.vm_id not in excluded
        ]
        if not candidates:
            return None
        order = {vm.vm_id: i for i, vm in enumerate(self.cluster.workers)}
        return min(candidates, key=lambda vm: (-vm.speed_factor, order[vm.vm_id]))

    def best_retry_worker(
        self, excluded_ids: Iterable[str] = ()
    ) -> Optional[VirtualMachine]:
        """Live worker minimising ``(max(free_at, now), -speed, index)``."""
        excluded = frozenset(excluded_ids)
        candidates = [
            vm
            for vm in self.cluster.workers
            if vm.vm_id not in excluded and vm.vm_id not in self._dead
        ]
        if not candidates:
            return None
        order = {vm.vm_id: i for i, vm in enumerate(self.cluster.workers)}
        now = self.now
        return min(
            candidates,
            key=lambda vm: (
                max(self._free_at[vm.vm_id], now),
                -vm.speed_factor,
                order[vm.vm_id],
            ),
        )

    def is_dead(self, vm_id: str) -> bool:
        return vm_id in self._dead

    @property
    def n_dead(self) -> int:
        return len(self._dead)

    def peek_finish(self) -> Optional[float]:
        self._purge_cancelled_heads()
        if not self._events:
            return None
        return self._events[0][0]

    # -- cancellation ----------------------------------------------------------
    def cancel(self, item: WorkItem) -> None:
        """Cancel a pending item (it will never pop as a completion)."""
        if item.sample is not None or item.done:
            raise RuntimeError("cannot cancel an already-completed item")
        if item.cancelled:
            return
        item.cancelled = True
        self._n_cancelled += 1
        vm_id = item.vm.vm_id
        if self._free_at[vm_id] == item.finish_hours:
            self._free_at[vm_id] = max(
                item.start_hours, min(self.now, item.finish_hours)
            )

    def _purge_cancelled_heads(self) -> None:
        while self._events and self._events[0][2].cancelled:
            heapq.heappop(self._events)
            self._n_cancelled -= 1

    def advance_now(self, hours: float) -> None:
        if hours > self.now:
            self.now = hours

    # -- completions ----------------------------------------------------------
    def next_completion(self) -> WorkItem:
        """Pop the earliest pending live completion and advance ``now``."""
        self._purge_cancelled_heads()
        if not self._events:
            raise RuntimeError("no work in flight")
        finish, _, item = heapq.heappop(self._events)
        self.now = max(self.now, finish)
        if not item.failed:
            self.makespan = max(self.makespan, finish)
        item.done = True
        return item
