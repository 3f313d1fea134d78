"""Configuration spaces: ordered collections of typed parameters."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.configspace.configuration import Configuration
from repro.configspace.parameters import Parameter


class ConfigurationSpace:
    """An ordered set of knobs with sampling and encoding helpers.

    The order of parameters is the order in which they are added and defines
    the column order of the unit-cube encoding consumed by surrogate models.
    """

    def __init__(self, parameters: Optional[Iterable[Parameter]] = None, seed: Optional[int] = None) -> None:
        self._parameters: Dict[str, Parameter] = {}
        # detlint DET001 audit: every production caller (samplers, optimizers,
        # experiments) threads an explicit seed or passes its own Generator to
        # sample()/neighbours(); seed=None is the documented interactive
        # opt-in to ambient entropy, not a reproducibility path.
        self._rng = np.random.default_rng(seed)
        if parameters is not None:
            for parameter in parameters:
                self.add(parameter)

    # -- construction ------------------------------------------------------
    def add(self, parameter: Parameter) -> "ConfigurationSpace":
        if not isinstance(parameter, Parameter):
            raise TypeError("can only add Parameter instances")
        if parameter.name in self._parameters:
            raise ValueError(f"duplicate parameter name: {parameter.name}")
        self._parameters[parameter.name] = parameter
        return self

    # -- basic accessors ------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return list(self._parameters.keys())

    @property
    def parameters(self) -> List[Parameter]:
        return list(self._parameters.values())

    def __getitem__(self, name: str) -> Parameter:
        return self._parameters[name]

    def __contains__(self, name: str) -> bool:
        return name in self._parameters

    def __len__(self) -> int:
        return len(self._parameters)

    @property
    def dimension(self) -> int:
        """Number of knobs (== dimensionality of the unit-cube encoding)."""
        return len(self._parameters)

    # -- configurations ------------------------------------------------------
    def default_configuration(self) -> Configuration:
        return Configuration(self, {p.name: p.default for p in self.parameters})

    def configuration(self, values: Dict) -> Configuration:
        """Build a configuration from a complete dict of knob values."""
        return Configuration(self, values)

    def partial_configuration(self, **overrides) -> Configuration:
        """Default configuration with some knobs overridden."""
        values = {p.name: p.default for p in self.parameters}
        values.update(overrides)
        return Configuration(self, values)

    def sample(self, rng: Optional[np.random.Generator] = None) -> Configuration:
        rng = rng if rng is not None else self._rng
        return Configuration(self, {p.name: p.sample(rng) for p in self.parameters})

    def sample_batch(self, n: int, rng: Optional[np.random.Generator] = None) -> List[Configuration]:
        """Draw ``n`` random configurations, one columnar draw per knob."""
        return self.candidate_pool(n, rng=rng).configurations()

    def candidate_pool(
        self,
        n_random: int,
        incumbents: Sequence[Configuration] = (),
        per_incumbent: int = 0,
        rng: Optional[np.random.Generator] = None,
        scale: float = 0.2,
    ) -> "CandidatePool":
        """A pool of candidates held as one column per knob.

        The pool is ``n_random`` uniform random rows followed, for each
        incumbent in order, by ``per_incumbent`` single-knob perturbations
        of it.  Draw order: one ``sample_column`` per knob in knob order;
        then per incumbent the perturbed knob of every row, followed by one
        ``neighbour_column`` per perturbed knob in knob order.
        """
        if n_random < 0:
            raise ValueError("n must be non-negative")
        rng = rng if rng is not None else self._rng
        params = self.parameters
        names = self.names
        if per_incumbent <= 0:
            incumbents = ()
        bases = [config.as_dict() for config in incumbents]
        # Neighbour rows are built without per-configuration re-validation,
        # so the base values must be legal *in this space* (the config may
        # come from a structurally identical space with different bounds).
        for base in bases:
            for name in names:
                self[name].validate(base[name])
        columns = []
        for p, name in zip(params, names):
            blocks = [p.sample_column(n_random, rng)] if n_random else []
            if bases:
                cells = p.column_of([base[name] for base in bases])
                blocks.append(np.repeat(cells, per_incumbent))
            columns.append(np.concatenate(blocks) if blocks else p.column_of([]))
        perturbed = np.empty(len(bases) * per_incumbent, dtype=np.int64)
        for i, base in enumerate(bases):
            chosen = rng.integers(0, self.dimension, size=per_incumbent)
            perturbed[i * per_incumbent : (i + 1) * per_incumbent] = chosen
            # Rows grouped by perturbed knob, ascending within each knob.
            rows = n_random + i * per_incumbent + np.argsort(chosen, kind="stable")
            counts = np.bincount(chosen, minlength=self.dimension).tolist()
            start = 0
            for knob, count in enumerate(counts):
                if count == 0:
                    continue
                columns[knob][rows[start : start + count]] = params[knob].neighbour_column(
                    base[names[knob]], count, rng, scale=scale
                )
                start += count
        return CandidatePool(self, columns, n_random, bases, per_incumbent, perturbed)

    # -- encoding ------------------------------------------------------
    def encode(self, config: Configuration) -> np.ndarray:
        """Encode a configuration into a vector in the unit hypercube."""
        self._check_space(config)
        return np.array(
            [self[name].encode(config[name]) for name in self.names], dtype=float
        )

    def _check_space(self, config: Configuration) -> None:
        if config.space is not self:
            # Allow structurally identical spaces (e.g. rebuilt knob spaces).
            if config.space.names != self.names:
                raise ValueError("configuration does not belong to this space")

    def encode_batch(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Unit-cube encoding of a batch, one columnar op per knob."""
        if not configs:
            return np.zeros((0, self.dimension), dtype=float)
        for config in configs:
            self._check_space(config)
        out = np.empty((len(configs), self.dimension), dtype=float)
        for column, name in enumerate(self.names):
            values = [config[name] for config in configs]
            out[:, column] = self[name].encode_array(values)
        return out

    def decode(self, unit_vector) -> Configuration:
        """Decode a unit-cube vector back into a configuration."""
        vector = np.asarray(unit_vector, dtype=float).ravel()
        if vector.shape[0] != self.dimension:
            raise ValueError(
                f"expected a vector of length {self.dimension}, got {vector.shape[0]}"
            )
        values = {
            name: self[name].decode(vector[i]) for i, name in enumerate(self.names)
        }
        return Configuration(self, values)

    # -- neighbourhoods ------------------------------------------------------
    def neighbour(
        self,
        config: Configuration,
        rng: Optional[np.random.Generator] = None,
        n_changes: int = 1,
        scale: float = 0.2,
    ) -> Configuration:
        """Perturb ``n_changes`` randomly chosen knobs of ``config``."""
        rng = rng if rng is not None else self._rng
        if n_changes < 1:
            raise ValueError("n_changes must be >= 1")
        n_changes = min(n_changes, self.dimension)
        chosen = rng.choice(self.dimension, size=n_changes, replace=False)
        values = config.as_dict()
        for index in chosen:
            name = self.names[int(index)]
            values[name] = self[name].neighbour(values[name], rng, scale=scale)
        return Configuration(self, values)

    def neighbours(
        self,
        config: Configuration,
        n: int,
        rng: Optional[np.random.Generator] = None,
        scale: float = 0.2,
    ) -> List[Configuration]:
        """A list of ``n`` single-knob perturbations of ``config``."""
        if n <= 0:
            return []
        return self.candidate_pool(0, [config], n, rng=rng, scale=scale).configurations()


class CandidatePool:
    """Candidate configurations held as one array per knob.

    Built by :meth:`ConfigurationSpace.candidate_pool`.  Optimizers encode
    and score every row with :meth:`encode` and build a
    :class:`Configuration` only for the rows they keep.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        columns: List[np.ndarray],
        n_random: int,
        bases: List[Dict],
        per_incumbent: int,
        perturbed: np.ndarray,
    ) -> None:
        self.space = space
        self._columns = columns
        self._n_random = n_random
        self._bases = bases
        self._per_incumbent = per_incumbent
        # Knob index perturbed in each neighbour row (rows n_random onwards).
        self._perturbed = perturbed

    def __len__(self) -> int:
        return self._n_random + len(self._perturbed)

    def encode(self) -> np.ndarray:
        """Unit-cube encoding of every row, one columnar op per knob."""
        out = np.empty((len(self), self.space.dimension), dtype=float)
        for j, (p, column) in enumerate(zip(self.space.parameters, self._columns)):
            out[:, j] = p.encode_column(column)
        return out

    def configurations(self, rows: Optional[Sequence[int]] = None) -> List[Configuration]:
        """The configurations at ``rows`` (default: every row), Python-typed.

        A neighbour row copies its incumbent's values and replaces only the
        perturbed knob, so untouched knobs keep the incumbent's own values.
        """
        rows = np.arange(len(self)) if rows is None else np.asarray(rows, dtype=np.int64)
        names = self.space.names
        values = [
            p.column_values(column[rows])
            for p, column in zip(self.space.parameters, self._columns)
        ]
        configs = []
        for i, row in enumerate(rows.tolist()):
            if row < self._n_random:
                config_values = {name: column[i] for name, column in zip(names, values)}
            else:
                offset = row - self._n_random
                config_values = dict(self._bases[offset // self._per_incumbent])
                knob = int(self._perturbed[offset])
                config_values[names[knob]] = values[knob][i]
            configs.append(Configuration._from_validated(self.space, config_values))
        return configs
