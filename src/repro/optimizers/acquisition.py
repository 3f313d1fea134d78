"""Acquisition functions for Bayesian optimization (minimisation convention)."""

from __future__ import annotations

import math

import numpy as np

#: 1 / sqrt(2*pi) — the standard normal pdf is written out in closed form
#: instead of going through ``scipy.stats.norm.pdf``, whose distribution
#: machinery (argument broadcasting, shape validation, frozen-dist dispatch)
#: costs far more than the two flops it wraps.  ``ndtr`` is the raw cdf
#: kernel that ``scipy.stats.norm.cdf`` itself bottoms out in, so values are
#: unchanged; the per-call overhead on the EI path is what disappears.  It is
#: imported inside :func:`expected_improvement`: ``import scipy.special``
#: costs ~0.27 s, and only the surrogate optimizers ever need it.
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_cost: float,
    xi: float = 0.01,
) -> np.ndarray:
    """Expected improvement over ``best_cost`` when *minimising*.

    Parameters
    ----------
    mean, std:
        Surrogate posterior mean and standard deviation at the candidates.
    best_cost:
        Lowest observed cost so far (the incumbent).
    xi:
        Exploration bonus; larger values favour exploration.
    """
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError("mean and std must have the same shape")
    std = np.maximum(std, 1e-12)
    improvement = best_cost - mean - xi
    z = improvement / std
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    ei = improvement * ndtr(z) + std * pdf
    return np.maximum(ei, 0.0)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, kappa: float = 1.8
) -> np.ndarray:
    """Lower-confidence-bound score for minimisation (negated for argmax use).

    Returns values where *larger is better* so callers can uniformly take an
    argmax over acquisition scores.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError("mean and std must have the same shape")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return -(mean - kappa * std)
