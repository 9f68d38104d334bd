"""How much the midpoint substitution overestimates the success probability.

The toy model: a normal distribution of width sigma whose true mean sits at
relative offset E0/(Delta/2) inside a symmetric interval of width Delta.
The proxy assumes the mean is centered.  Everything is scale invariant, so
Delta is fixed to 1 internally and only the two dimensionless ratios enter.
Only non-negative shifts are computed; the centered case is symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .stats import NormalSpec, erf, interval_probability

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CenteringPoint:
    rel_shift: float  # E0 / (Delta/2)
    rel_width: float  # sigma / Delta

    def __post_init__(self):
        if not 0.0 <= self.rel_shift < 1.0:
            raise ValidationError(f"rel_shift must lie in [0, 1), got {self.rel_shift}")
        if self.rel_width <= 0:
            raise ValidationError(f"rel_width must be positive, got {self.rel_width}")


def success_maps(shift_axis, width_axis):
    """(true, proxy, error) over the grid, each indexed [shift_index, width_index].

    true is the interval mass of the off-center distribution (Delta = 1),
    proxy the mass assuming it is centered, and error = (proxy - true)/true.
    Errors are >= 0 (off-centering only loses mass for a symmetric
    interval); cells where the true probability underflows are NaN.
    """
    shifts = np.asarray(shift_axis, dtype=float)
    widths = np.asarray(width_axis, dtype=float)
    if shifts.ndim != 1 or widths.ndim != 1 or shifts.size == 0 or widths.size == 0:
        raise ValidationError("axes must be non-empty 1-D sequences")
    bad = ~((shifts >= 0.0) & (shifts < 1.0))
    if bad.any():
        raise ValidationError(f"rel_shift must lie in [0, 1), got {shifts[bad][0]}")
    bad = ~(widths > 0)
    if bad.any():
        raise ValidationError(f"rel_width must be positive, got {widths[bad][0]}")
    true = interval_probability(NormalSpec(mean=0.5 * shifts[:, None], sigma=widths),
                                -0.5, 0.5)
    proxy = np.broadcast_to(np.minimum(1.0, erf(0.5 / (widths * _SQRT2))), true.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.where(true > 0.0, (proxy - true) / true, math.nan)
    return true, proxy, error


def true_success(point: CenteringPoint) -> float:
    """Interval mass of the off-center distribution (Delta = 1)."""
    return float(success_maps([point.rel_shift], [point.rel_width])[0][0, 0])


def proxy_success(rel_width: float) -> float:
    """Interval mass assuming the distribution is centered."""
    return float(success_maps([0.0], [rel_width])[1][0, 0])


def default_shift_axis(num: int = 100) -> np.ndarray:
    return np.linspace(0.0, 0.99, num)


def default_width_axis(num: int = 100) -> np.ndarray:
    return np.logspace(-3, 0, num)


def relative_error_map(shift_axis, width_axis) -> np.ndarray:
    """(proxy - true)/true over the grid; see success_maps."""
    return success_maps(shift_axis, width_axis)[2]
