"""Typed tunable parameters (knobs).

Each parameter knows how to sample a random value, encode a value into
``[0, 1]`` for surrogate models, decode it back, and produce a nearby
"neighbour" value for local search.  Log-scaled numeric parameters are
supported because most DBMS memory knobs (``shared_buffers``, ``work_mem``,
…) span several orders of magnitude.

Besides the scalar interface, every parameter works on *columns*: one
NumPy array holding a knob's values for a whole batch -- the values
themselves for numeric knobs (float64 / int64) and choice indices for
categorical ones.  ``sample_column``, ``neighbour_column``,
``decode_column`` and ``encode_column`` each process a batch with one
vectorized operation, and ``column_values`` turns a column back into
Python-typed knob values.  The candidate pools of the SMAC and GP
optimizers (:meth:`~repro.configspace.space.ConfigurationSpace.candidate_pool`)
are built, encoded and scored entirely in columns; the row-level helpers
(``encode_array``, ``decode_array``, ``sample_array``, ``neighbour_array``)
are thin wrappers over the column operations.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np


class Parameter:
    """Base class for a single tunable knob."""

    def __init__(self, name: str, default) -> None:
        if not name:
            raise ValueError("parameter name must be non-empty")
        self.name = name
        self.default = default

    # -- interface -------------------------------------------------------
    def sample(self, rng: np.random.Generator):
        """Draw a uniform random legal value."""
        raise NotImplementedError

    def encode(self, value) -> float:
        """Map a legal value into [0, 1]."""
        raise NotImplementedError

    def decode(self, unit: float):
        """Map a [0, 1] scalar back to a legal value."""
        raise NotImplementedError

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2):
        """Return a nearby legal value (for local search)."""
        raise NotImplementedError

    def validate(self, value) -> None:
        """Raise ``ValueError`` if ``value`` is not legal for this knob."""
        raise NotImplementedError

    # -- columnar interface ----------------------------------------------
    # Subclasses override these with truly vectorized implementations; the
    # base-class fallbacks (an object array of values, one scalar call per
    # element) keep custom Parameter subclasses working.
    def column_of(self, values: Sequence) -> np.ndarray:
        """The column holding the legal ``values``."""
        column = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            column[i] = value
        return column

    def column_values(self, column: np.ndarray) -> List:
        """Python-typed knob values of a column (never NumPy scalars)."""
        return column.tolist()

    def encode_column(self, column: np.ndarray) -> np.ndarray:
        """Encode a column into ``[0, 1]``."""
        return np.array([self.encode(v) for v in column], dtype=float)

    def decode_column(self, units: np.ndarray) -> np.ndarray:
        """Decode a batch of ``[0, 1]`` scalars into a column."""
        return self.column_of([self.decode(u) for u in np.asarray(units, dtype=float)])

    def sample_column(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """A column of ``n`` uniform random legal values."""
        return self.decode_column(rng.random(n))

    def neighbour_column(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        """A column of ``n`` nearby legal values of ``value``."""
        return self.column_of([self.neighbour(value, rng, scale=scale) for _ in range(n)])

    # -- row-level wrappers over the columnar interface -------------------
    def encode_array(self, values: Sequence) -> np.ndarray:
        """Encode a batch of legal values into ``[0, 1]``."""
        return self.encode_column(self.column_of(values))

    def decode_array(self, units: np.ndarray) -> List:
        """Decode a batch of ``[0, 1]`` scalars back to legal values."""
        return self.column_values(self.decode_column(units))

    def sample_array(self, n: int, rng: np.random.Generator) -> List:
        """Draw ``n`` uniform random legal values."""
        return self.column_values(self.sample_column(n, rng))

    def neighbour_array(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> List:
        """Return ``n`` nearby legal values of ``value`` (for local search)."""
        return self.column_values(self.neighbour_column(value, n, rng, scale=scale))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, default={self.default!r})"


class _NumericParameter(Parameter):
    """Range, log scaling and columns shared by float and integer knobs."""

    #: Python type of the knob's values (``float`` or ``int``).
    _type: type = float

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        default: Optional[float] = None,
        log: bool = False,
    ) -> None:
        if not lower < upper:
            raise ValueError(f"{name}: lower must be < upper")
        if log and lower <= 0:
            raise ValueError(f"{name}: log-scaled parameters require lower > 0")
        self.lower = self._type(lower)
        self.upper = self._type(upper)
        self.log = log
        if default is None:
            default = self._midpoint(lower, upper)
        super().__init__(name, self._type(default))
        self.validate(self.default)

    def _midpoint(self, lower, upper):
        raise NotImplementedError

    def validate(self, value) -> None:
        value = self._type(value)
        if not (self.lower <= value <= self.upper):
            raise ValueError(
                f"{self.name}: value {value} outside [{self.lower}, {self.upper}]"
            )

    def sample(self, rng: np.random.Generator):
        return self.decode(float(rng.random()))

    def encode(self, value) -> float:
        self.validate(value)
        value = self._type(value)
        if self.log:
            return (math.log(value) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (value - self.lower) / (self.upper - self.lower)

    def _raw(self, unit: float) -> float:
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            return math.exp(
                math.log(self.lower)
                + unit * (math.log(self.upper) - math.log(self.lower))
            )
        return self.lower + unit * (self.upper - self.lower)

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2):
        unit = self.encode(value)
        step = float(rng.normal(0.0, scale))
        return self.decode(min(max(unit + step, 0.0), 1.0))

    # -- columnar (the values themselves) ----------------------------------
    def encode_column(self, column: np.ndarray) -> np.ndarray:
        if column.size and not (
            np.all(column >= self.lower) and np.all(column <= self.upper)
        ):
            raise ValueError(
                f"{self.name}: batch contains values outside "
                f"[{self.lower}, {self.upper}]"
            )
        if self.log:
            return (np.log(column) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (column - self.lower) / (self.upper - self.lower)

    def _raw_column(self, units: np.ndarray) -> np.ndarray:
        units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
        if self.log:
            return np.exp(
                math.log(self.lower)
                + units * (math.log(self.upper) - math.log(self.lower))
            )
        return self.lower + units * (self.upper - self.lower)

    def neighbour_column(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        unit = self.encode(value)
        steps = rng.normal(0.0, scale, size=n)
        return self.decode_column(np.clip(unit + steps, 0.0, 1.0))


class FloatParameter(_NumericParameter):
    """Continuous knob on ``[lower, upper]``, optionally log-scaled."""

    _type = float

    def _midpoint(self, lower, upper) -> float:
        return math.sqrt(lower * upper) if self.log else (lower + upper) / 2.0

    def decode(self, unit: float) -> float:
        return float(self._raw(unit))

    # -- columnar (float64 values) ----------------------------------------
    def column_of(self, values: Sequence) -> np.ndarray:
        return np.asarray(values, dtype=float)

    def decode_column(self, units: np.ndarray) -> np.ndarray:
        return self._raw_column(units)


class IntegerParameter(_NumericParameter):
    """Integer knob on ``[lower, upper]`` (inclusive), optionally log-scaled."""

    _type = int

    def _midpoint(self, lower, upper) -> int:
        return int(round(math.sqrt(lower * upper))) if self.log else (lower + upper) // 2

    def validate(self, value) -> None:
        if int(value) != value:
            raise ValueError(f"{self.name}: value {value!r} is not an integer")
        super().validate(value)

    def decode(self, unit: float) -> int:
        return int(min(max(int(round(self._raw(unit))), self.lower), self.upper))

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2) -> int:
        candidate = super().neighbour(value, rng, scale=scale)
        if candidate == int(value):
            # Force at least a one-step move so local search cannot stall.
            direction = 1 if rng.random() < 0.5 else -1
            candidate = int(min(max(int(value) + direction, self.lower), self.upper))
        return candidate

    # -- columnar (int64 values) ------------------------------------------
    def column_of(self, values: Sequence) -> np.ndarray:
        values = np.asarray(values)
        as_int = values.astype(np.int64)
        if values.size and not np.all(as_int == values):
            raise ValueError(f"{self.name}: batch contains non-integers")
        return as_int

    def decode_column(self, units: np.ndarray) -> np.ndarray:
        # np.round and builtins.round both round half to even, so this
        # matches the scalar decode() exactly.
        return np.clip(np.round(self._raw_column(units)), self.lower, self.upper).astype(
            np.int64
        )

    def neighbour_column(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        candidates = super().neighbour_column(value, n, rng, scale=scale)
        stalled = np.flatnonzero(candidates == int(value))
        if stalled.size:
            # Force at least a one-step move so local search cannot stall.
            directions = np.where(rng.random(stalled.size) < 0.5, 1, -1)
            candidates[stalled] = np.clip(int(value) + directions, self.lower, self.upper)
        return candidates


class CategoricalParameter(Parameter):
    """Unordered categorical knob."""

    def __init__(self, name: str, choices: Sequence, default=None) -> None:
        choices_list: List = list(choices)
        if len(choices_list) < 2:
            raise ValueError(f"{name}: categorical parameters need >= 2 choices")
        # Compared with ``==`` (not ``repr``), like validate/encode/index:
        # ``[1, True]`` or ``[1, 1.0]`` would share one bucket.
        if any(choice in choices_list[:i] for i, choice in enumerate(choices_list)):
            raise ValueError(f"{name}: duplicate choices")
        self.choices = choices_list
        if default is None:
            default = choices_list[0]
        super().__init__(name, default)
        self.validate(self.default)

    def validate(self, value) -> None:
        if value not in self.choices:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices!r}")

    def sample(self, rng: np.random.Generator):
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def encode(self, value) -> float:
        self.validate(value)
        index = self.choices.index(value)
        # Centre of the bucket assigned to this category.
        return (index + 0.5) / len(self.choices)

    def decode(self, unit: float):
        unit = min(max(float(unit), 0.0), 1.0)
        index = min(int(unit * len(self.choices)), len(self.choices) - 1)
        return self.choices[index]

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2):
        self.validate(value)
        others = [c for c in self.choices if c != value]
        return others[int(rng.integers(0, len(others)))]

    # -- columnar (int64 choice indices) -----------------------------------
    def _index_of(self, value) -> int:
        try:
            return self.choices.index(value)
        except ValueError:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices!r}")

    def column_of(self, values: Sequence) -> np.ndarray:
        return np.array([self._index_of(v) for v in values], dtype=np.int64)

    def column_values(self, column: np.ndarray) -> List:
        return [self.choices[i] for i in column.tolist()]

    def encode_column(self, column: np.ndarray) -> np.ndarray:
        if column.size and not (
            np.all(column >= 0) and np.all(column < len(self.choices))
        ):
            raise ValueError(
                f"{self.name}: batch contains choice indices outside "
                f"[0, {len(self.choices)})"
            )
        # Centre of the bucket assigned to each category.
        return (column + 0.5) / len(self.choices)

    def decode_column(self, units: np.ndarray) -> np.ndarray:
        units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
        return np.minimum(
            (units * len(self.choices)).astype(np.int64), len(self.choices) - 1
        )

    def sample_column(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, len(self.choices), size=n)

    def neighbour_column(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        index = self._index_of(value)
        # Draw among the other choices, then skip over ``value``'s own index.
        draws = rng.integers(0, len(self.choices) - 1, size=n)
        return draws + (draws >= index)


class BooleanParameter(CategoricalParameter):
    """Boolean knob, encoded as a two-choice categorical."""

    def __init__(self, name: str, default: bool = False) -> None:
        super().__init__(name, choices=[False, True], default=bool(default))

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.integers(0, 2))
