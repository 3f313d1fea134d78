"""Successive-Halving budget schedule (§4.1, §5.1).

TUNA associates a configuration's multi-fidelity *budget* with the number of
distinct worker nodes it has been evaluated on.  New configurations start at
the lowest budget; the best fraction of each rung is promoted to the next,
until the most promising configurations have been evaluated on the whole
cluster (budget 10 in the paper's setup, chosen in Fig. 9 to give 95 %
confidence of catching unstable configurations).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.configspace import Configuration
from repro.workloads.base import Objective


@dataclass
class _RungEntry:
    config: Configuration
    value: float  # aggregated objective value at this rung
    order: int  # insertion position in the rung (the stable tie-break)
    promoted: bool = False
    #: Reserved by :meth:`SuccessiveHalvingSchedule.propose_promotion` but not
    #: yet committed — the promotion is in flight (being scheduled/evaluated).
    pending: bool = False


@dataclass
class SuccessiveHalvingSchedule:
    """Decides whether to promote an existing configuration or try a new one.

    Each rung is kept ranked as results arrive: an entry is inserted by
    bisection on ``(value, insertion order)`` (value negated when higher is
    better), which is exactly the stable ``sorted`` order of the rung, and a
    re-recorded configuration moves to its new place.  A config → entry map
    per rung makes :meth:`record` and the promotion commit/rollback O(1)
    lookups, and :meth:`propose_promotion` / :meth:`n_pending_promotions`
    only walk the promotable top ``1/eta`` of a rung — nothing re-sorts.

    Parameters
    ----------
    objective:
        The workload objective (defines which direction is "better").
    budgets:
        Increasing node budgets; the paper's implementation uses a minimum of
        1, an intermediate rung of ~3, and the full 10-node cluster.
    eta:
        Promotion ratio: roughly the top ``1/eta`` of a rung moves up.
    """

    objective: Objective
    budgets: Tuple[int, ...] = (1, 3, 10)
    eta: float = 3.0
    _rungs: Dict[int, List[_RungEntry]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.budgets) < 2:
            raise ValueError("need at least two budget levels")
        if list(self.budgets) != sorted(set(self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        if self.eta <= 1.0:
            raise ValueError("eta must be > 1")
        self._rungs = {budget: [] for budget in self.budgets}  # insertion order
        self._build_indexes()

    def _build_indexes(self) -> None:
        """Derive the config → entry maps and the best-first rung orders."""
        self._index: Dict[int, Dict[Configuration, _RungEntry]] = {
            budget: {entry.config: entry for entry in rung}
            for budget, rung in self._rungs.items()
        }
        self._ranked: Dict[int, List[_RungEntry]] = {
            budget: sorted(rung, key=self._rank_key)
            for budget, rung in self._rungs.items()
        }

    # Checkpoints pickle the rungs only; the indexes are rebuilt on load.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_index"], state["_ranked"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._build_indexes()

    # ------------------------------------------------------------------ info
    @property
    def min_budget(self) -> int:
        return self.budgets[0]

    @property
    def max_budget(self) -> int:
        return self.budgets[-1]

    def next_budget(self, budget: int) -> Optional[int]:
        """The rung above ``budget`` (``None`` if already at the top)."""
        if budget not in self.budgets:
            raise ValueError(f"unknown budget {budget}")
        index = self.budgets.index(budget)
        if index + 1 >= len(self.budgets):
            return None
        return self.budgets[index + 1]

    def rung_configs(self, budget: int) -> List[Configuration]:
        return [entry.config for entry in self._rungs[budget]]

    def configs_at_max_budget(self) -> List[Configuration]:
        return self.rung_configs(self.max_budget)

    # ------------------------------------------------------------------ record
    def _rank_key(self, entry: _RungEntry) -> Tuple[float, int]:
        """Position of an entry in its rung's best-first order."""
        if self.objective.higher_is_better:
            return -entry.value, entry.order
        return entry.value, entry.order

    def record(self, config: Configuration, budget: int, value: float) -> None:
        """Record the aggregated value a configuration achieved at a rung."""
        if budget not in self._rungs:
            raise ValueError(f"unknown budget {budget}")
        if math.isnan(value):
            raise ValueError("a rung value cannot be NaN (it has no rank)")
        ranked = self._ranked[budget]
        entry = self._index[budget].get(config)
        if entry is None:
            rung = self._rungs[budget]
            entry = _RungEntry(config, value, order=len(rung))
            rung.append(entry)
            self._index[budget][config] = entry
        else:
            del ranked[bisect_left(ranked, self._rank_key(entry), key=self._rank_key)]
            entry.value = value
        insort(ranked, entry, key=self._rank_key)

    # ------------------------------------------------------------------ decide
    def _promotable(self, budget: int) -> Iterator[_RungEntry]:
        """The rung's top ``1/eta`` entries, best first (none while the rung
        holds fewer than ``eta`` configurations)."""
        ranked = self._ranked[budget]
        if len(ranked) < self.eta:
            return iter(())
        return islice(ranked, max(1, int(len(ranked) / self.eta)))

    def propose_promotion(self) -> Optional[Tuple[Configuration, int]]:
        """Return ``(config, next_budget)`` if some rung is ready to promote.

        Higher rungs are inspected first so promising configurations reach the
        full cluster quickly.  A rung is ready when it holds at least ``eta``
        finished configurations and its best not-yet-promoted configuration
        ranks within the top ``1/eta`` of the rung.

        A proposal only *reserves* the entry (it will not be proposed again
        while in flight).  The caller must either :meth:`commit_promotion`
        once the promotion's samples are scheduled, or
        :meth:`rollback_promotion` if scheduling fails — otherwise the
        configuration would be silently lost from its rung forever.
        """
        for budget in reversed(self.budgets[:-1]):
            for entry in self._promotable(budget):
                if not entry.promoted and not entry.pending:
                    entry.pending = True
                    return entry.config, self.next_budget(budget)
        return None

    def _pending_entry(self, config: Configuration) -> _RungEntry:
        for budget in self.budgets[:-1]:
            entry = self._index[budget].get(config)
            if entry is not None and entry.pending:
                return entry
        raise KeyError(f"no pending promotion for {config!r}")

    def commit_promotion(self, config: Configuration) -> None:
        """Finalise a proposed promotion once its samples are scheduled."""
        entry = self._pending_entry(config)
        entry.pending = False
        entry.promoted = True

    def rollback_promotion(self, config: Configuration) -> None:
        """Release a proposed promotion whose scheduling failed.

        The entry becomes proposable again, so a transient scheduling error
        (e.g. no free workers) does not permanently drop the configuration
        from the successive-halving race.
        """
        entry = self._pending_entry(config)
        entry.pending = False

    def n_pending_promotions(self) -> int:
        """How many configurations are currently eligible for promotion."""
        return sum(
            1
            for budget in self.budgets[:-1]
            for entry in self._promotable(budget)
            if not entry.promoted and not entry.pending
        )
