"""One seeded injector contract shared by every fault domain.

Four kinds of faults are injected into the simulated cluster.  Each is a
*domain* with its own decision type, combine rule and entropy tag:

* **fault** -- a duration stretch (``float``); stretches multiply; no tag.
* **crash** -- a :class:`~repro.faults.crash.CrashDecision`; the earliest
  failure wins; tag 13.
* **partition** -- a :class:`~repro.faults.partition.PartitionDecision`; the
  longest delay wins; tag 17.
* **corruption** -- a :class:`~repro.faults.corruption.CorruptionDecision`;
  the first corruption wins; tag 19.

The windowed fault RNG (an episode pinned to a simulated time window rather
than to the submission order) uses tag 7.

:class:`Injector` owns everything the domains share: the master seed, the
lazy per-``(worker, channel)`` RNG stream, structural nullness, the
registry and the :meth:`Injector.build` entry point.  A domain declares only
its tag, its decision method, its null decision and its combine rule;
:class:`CompositeInjector` stacks several injectors of one domain.

Determinism contract
--------------------
A worker's stream is derived from the entropy vector
``[seed, crc32(worker), *tag, channel]``, so it depends neither on how many
workers exist nor on which worker is queried first.  Channel 0 carries
regular submissions, channel 1 speculative duplicates, so mitigation never
shifts the draws regular work sees.  The per-domain tags keep streams built
from one master seed decorrelated across domains.  A null injector (the
``"none"`` model of every domain) never creates a stream at all: injecting
it reproduces an uninjected run bit-for-bit.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Generic, List, Optional, Sequence, Tuple, Type, TypeVar

import numpy as np

D = TypeVar("D")
InjectorT = TypeVar("InjectorT", bound="Injector[Any]")


@dataclass(frozen=True)
class InjectionContext:
    """The scheduled run an injection decision is drawn for.

    ``duration_hours`` is the window the domain acts on: the base duration
    for the fault domain, the stretched window for crashes, the final
    window (up to any failure instant) for partitions and corruption.
    ``concurrent_items`` is the number of other items in flight cluster-wide
    at submission and ``n_workers`` normalises it to an occupancy fraction.
    ``speculative`` marks a straggler-mitigation duplicate, drawn from
    channel 1.
    """

    worker_id: str
    start_hours: float
    duration_hours: float
    concurrent_items: int = 0
    n_workers: int = 1
    speculative: bool = False

    @property
    def occupancy(self) -> float:
        """Fraction of the cluster busy with other items at submission."""
        return self.concurrent_items / max(self.n_workers, 1)

    @property
    def finish_hours(self) -> float:
        return self.start_hours + self.duration_hours


#: domain -> registered name or alias -> model class.
_REGISTRY: Dict[str, Dict[str, Type["Injector[Any]"]]] = {}


class Injector(abc.ABC, Generic[D]):
    """Base class: seeded per-worker RNG streams + the decision interface.

    A custom injector subclasses a domain base and implements its decision
    method (``stretch`` for faults, ``decide`` elsewhere).
    """

    #: Registry name of a concrete model, plus alternative names.
    name: ClassVar[str] = "abstract"
    aliases: ClassVar[Tuple[str, ...]] = ()
    #: True for a domain's ``"none"`` model: it never draws randomness.
    null: ClassVar[bool] = False
    #: The fault domain; also the registry namespace.
    domain: str = ""
    #: Entropy words between the worker hash and the channel.
    tag: ClassVar[Tuple[int, ...]] = ()

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = 0 if seed is None else int(seed)
        self._streams: Dict[Tuple[str, int], np.random.Generator] = {}

    @property
    def is_null(self) -> bool:
        """True when the injector never injects and never consumes RNG."""
        return self.null

    def _derive(self, worker_id: str, *words: int) -> np.random.Generator:
        """A fresh RNG from ``[seed, crc32(worker), *words]``."""
        if self.is_null:
            raise RuntimeError(f"{type(self).__name__} is null and draws no randomness")
        entropy = np.random.SeedSequence(
            [self._seed, zlib.crc32(worker_id.encode("utf-8")), *words]
        )
        return np.random.default_rng(entropy)

    def stream_for(self, worker_id: str, channel: int = 0) -> np.random.Generator:
        """A worker's private stream on a channel (lazily derived, cached)."""
        key = (worker_id, channel)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._derive(worker_id, *self.tag, channel)
            self._streams[key] = stream
        return stream

    def _stream(self, context: InjectionContext) -> np.random.Generator:
        """The stream a draw for this submission should come from."""
        return self.stream_for(context.worker_id, 1 if context.speculative else 0)

    @abc.abstractmethod
    def decide(self, context: InjectionContext) -> D:
        """What this injector does to the run described by ``context``."""

    @abc.abstractmethod
    def combine(self, decisions: Sequence[D]) -> D:
        """The domain's rule for merging several members' decisions."""

    @classmethod
    def registry(cls) -> Dict[str, Type["Injector[Any]"]]:
        """Registered names (aliases included) of this class's domain."""
        return dict(_REGISTRY.get(cls.domain, {}))

    @classmethod
    def build(
        cls, spec: "Injector[Any] | str | None", seed: Optional[int] = None, **kwargs: Any
    ) -> "Optional[Injector[Any]]":
        """Instantiate a model of this domain by name.

        Instances of this domain and ``None`` pass through.  A ``"none"``
        name returns the domain's null model, which ignores ``seed`` and
        ``kwargs``; ``None`` means nothing is injected at all.  The two
        behave identically.
        """
        if spec is None:
            return None
        if isinstance(spec, Injector):
            if spec.domain != cls.domain:
                raise TypeError(f"{spec!r} is a {spec.domain} injector, not {cls.domain}")
            return spec
        known = _REGISTRY.get(cls.domain, {})
        model = known.get(str(spec).lower())
        if model is None:
            raise KeyError(f"unknown {cls.domain} model {spec!r}; known: {sorted(known)}")
        if model.null:
            return model()
        return model(seed=seed, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(seed={self._seed})"


def register(*models: Type[Injector[Any]]) -> None:
    """Add models to their domain's registry under their name and aliases."""
    for model in models:
        names = _REGISTRY.setdefault(model.domain, {})
        for key in (model.name, *model.aliases):
            names[key] = model


def active(injector: Optional[InjectorT]) -> Optional[InjectorT]:
    """``injector`` if it can inject anything, else ``None``.

    Engines apply this once at construction, so their hot paths test only
    ``is not None``.
    """
    if injector is None or injector.is_null:
        return None
    return injector


class CompositeInjector(Injector[D]):
    """Several injectors of one domain at once.

    Every member decides unconditionally, so member stream positions never
    depend on sibling outcomes; the domain's combine rule merges the
    decisions (ties break on member order).
    """

    name = "composite"

    def __init__(self, models: Sequence[Injector[D]]) -> None:
        if not models:
            raise ValueError("composite needs at least one model")
        domains = {model.domain for model in models}
        if len(domains) != 1:
            raise ValueError(f"composite members span several domains: {sorted(domains)}")
        super().__init__(seed=0)
        self.models: List[Injector[D]] = list(models)
        self.domain = self.models[0].domain

    @property
    def is_null(self) -> bool:
        return all(model.is_null for model in self.models)

    def decide(self, context: InjectionContext) -> D:
        return self.combine([model.decide(context) for model in self.models])

    def combine(self, decisions: Sequence[D]) -> D:
        return self.models[0].combine(decisions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompositeInjector({self.models!r})"
