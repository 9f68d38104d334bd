"""Normal-distribution interval probabilities.

The error function is delegated to the platform libm (documented accuracy
well below 1e-12 over the real line) through math.erf, mapped over the
cells with |x| < 6 as one list.  Cells with |x| >= 6 (inf included) are
written as 1 without a call: that is what libm returns there, since
1 - erf(6) = erfc(6) ~ 2e-17 is under half an ulp of 1 (fdlibm's |x| >= 6
branch returns one - tiny, which rounds to 1).  Odd symmetry is enforced
exactly by evaluating on |x| and restoring the sign with np.copysign.  All
probabilities are clamped to [0, 1] to keep round-off from leaking out of
the invariant.

Every function takes floats or broadcastable arrays, applies the scalar
law elementwise, and returns a float for scalar input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)
_SATURATED = 6.0  # math.erf is exactly 1.0 from here on


@dataclass(frozen=True)
class NormalSpec:
    mean: float | np.ndarray
    sigma: float | np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.mean).all() and np.isfinite(self.sigma).all()):
            raise ValidationError("mean and sigma must be finite")
        if not np.greater(self.sigma, 0).all():
            raise ValidationError(f"sigma must be positive, got {np.min(self.sigma)}")


def _float_if_scalar(values):
    values = np.asarray(values, dtype=float)
    return float(values) if values.ndim == 0 else values


def erf(x):
    """Error function, exactly odd: erf(-x) == -erf(x), bitwise copysign(math.erf(|x|), x)."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValidationError("erf argument must not be NaN")
    a = np.abs(x).ravel()
    live = np.flatnonzero(a < _SATURATED)
    magnitude = np.ones(x.size)
    magnitude[live] = np.fromiter(map(math.erf, a[live].tolist()), float, live.size)
    return _float_if_scalar(np.copysign(magnitude.reshape(x.shape), x))


def _clamp(p):
    # min(1, max(0, p)) elementwise, with the builtins' choice on ties
    p = np.where(np.greater(p, 0.0), p, 0.0)
    return _float_if_scalar(np.where(p < 1.0, p, 1.0))


def _z(dist: NormalSpec, x):
    # a z beyond float range saturates to +-inf, where erf is exactly +-1
    with np.errstate(over="ignore"):
        return (x - dist.mean) / (dist.sigma * _SQRT2)


def interval_probability(dist: NormalSpec, lo, hi):
    """P(lo <= X <= hi) for X ~ N(mean, sigma^2)."""
    if np.any(np.greater(lo, hi)):
        raise ValidationError(f"interval bounds out of order: {lo} > {hi}")
    return _clamp(0.5 * (erf(_z(dist, hi)) - erf(_z(dist, lo))))
