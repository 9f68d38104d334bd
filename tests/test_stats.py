import math

import numpy as np
import pytest

from pecbench.errors import ValidationError
from pecbench.stats import (
    NormalSpec,
    erf,
    interval_probability,
)

from oracles import erf_reference, erf_reference_fast, normal_interval_reference


def test_erf_fixed_points():
    assert erf(0.0) == 0.0
    assert erf(-0.0) == 0.0
    assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-14)
    assert erf(6.0) == pytest.approx(1.0, abs=1e-15)


def test_erf_exactly_odd():
    for x in np.linspace(0.0, 6.0, 101):
        assert erf(-x) == -erf(x)
    xs = np.linspace(0.0, 6.0, 101)
    assert np.array_equal(erf(-xs), -erf(xs))


def test_erf_arrays_match_scalars_and_reject_nan():
    xs = np.linspace(-6.0, 6.0, 121).reshape(11, 11)
    values = erf(xs)
    assert values.shape == xs.shape
    assert np.array_equal(values.ravel(), [erf(float(x)) for x in xs.ravel()])
    assert type(erf(0.5)) is float
    with pytest.raises(ValidationError):
        erf(np.array([0.1, math.nan, 0.3]))
    with pytest.raises(ValidationError):
        erf(math.nan)


def test_erf_against_series_oracle():
    xs = np.linspace(-6.0, 6.0, 601)
    worst = max(abs(erf(float(x)) - erf_reference(float(x))) for x in xs)
    assert worst <= 1e-12


def test_erf_oracles_agree():
    for x in np.linspace(-6.0, 6.0, 25):
        assert abs(erf_reference(float(x)) - erf_reference_fast(float(x))) <= 1e-15


def test_interval_probability_against_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(25):
        mean = float(rng.normal(scale=2.0))
        sigma = float(rng.uniform(0.05, 3.0))
        lo = mean + float(rng.uniform(-5.0, 1.0)) * sigma
        hi = lo + float(rng.uniform(0.1, 6.0)) * sigma
        ours = interval_probability(NormalSpec(mean, sigma), lo, hi)
        assert ours == pytest.approx(
            normal_interval_reference(mean, sigma, lo, hi), abs=1e-10)


def test_partition_of_unity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        dist = NormalSpec(float(rng.normal()), float(rng.uniform(0.01, 5.0)))
        lo = dist.mean + float(rng.normal()) * dist.sigma
        hi = lo + abs(float(rng.normal())) * dist.sigma
        total = (interval_probability(dist, -math.inf, lo) + interval_probability(dist, lo, hi)
                 + interval_probability(dist, hi, math.inf))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_tails_symmetric():
    dist = NormalSpec(0.0, 1.0)
    assert interval_probability(dist, 1.3, math.inf) == pytest.approx(
        interval_probability(dist, -math.inf, -1.3), abs=1e-15)
    assert interval_probability(dist, 0.0, math.inf) == pytest.approx(0.5, abs=1e-15)


def test_clamping_and_order_check():
    dist = NormalSpec(0.0, 1e-300)
    assert 0.0 <= interval_probability(dist, -1.0, 1.0) <= 1.0
    assert interval_probability(dist, 100.0, math.inf) == 0.0
    with pytest.raises(ValidationError):
        interval_probability(NormalSpec(0.0, 1.0), 2.0, 1.0)


def test_interval_probability_broadcasts_over_arrays():
    means = np.array([[-1.0], [0.0], [0.7]])
    sigmas = np.array([0.05, 0.5, 2.0])
    grid = interval_probability(NormalSpec(means, sigmas), -0.5, 0.5)
    assert grid.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert grid[i, j] == interval_probability(
                NormalSpec(float(means[i, 0]), float(sigmas[j])), -0.5, 0.5)
    assert type(interval_probability(NormalSpec(0.0, 1.0), -1.0, 1.0)) is float


def test_normal_spec_validation():
    with pytest.raises(ValidationError):
        NormalSpec(0.0, 0.0)
    with pytest.raises(ValidationError):
        NormalSpec(math.nan, 1.0)
    with pytest.raises(ValidationError):
        NormalSpec(np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        NormalSpec(np.array([0.0, math.inf]), 1.0)


def test_erf_is_bitwise_the_odd_libm_erf():
    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    xs = np.concatenate([
        3.0 * rng.standard_normal(200_000),
        rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-320, 300, 100_000),
        bits[~np.isnan(bits)],
        [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, tiny, -tiny, 6.0, -6.0],
    ])
    want = np.array([math.copysign(math.erf(abs(x)), x) for x in xs.tolist()])
    got = erf(xs)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    grid = xs[:40_000].reshape(200, 200)
    assert np.array_equal(erf(grid).view(np.int64), want[:40_000].reshape(200, 200).view(np.int64))
    assert math.copysign(1.0, erf(-0.0)) == -1.0


def test_erf_is_bitwise_libm_erf_where_it_saturates():
    # erf writes 1 for |x| >= 6 without calling libm: that must be what
    # libm returns on either side of the cut
    edge = [np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, math.inf)]
    xs = np.concatenate([edge, np.linspace(5.9, 6.1, 20_001)])
    xs = np.concatenate([xs, -xs])
    want = np.array([math.copysign(math.erf(abs(x)), x) for x in xs.tolist()])
    assert np.array_equal(erf(xs).view(np.int64), want.view(np.int64))
    for x in edge:
        assert erf(float(x)) == math.erf(float(x)) and erf(-float(x)) == math.erf(-float(x))
