import math

import numpy as np
import pytest

from pecbench.centering import (
    CenteringPoint,
    default_shift_axis,
    default_width_axis,
    proxy_success,
    relative_error_map,
    success_maps,
    true_success,
)
from pecbench.errors import ValidationError

from oracles import centering_relative_error_reference, normal_interval_reference


def test_true_success_against_quadrature():
    for shift in (0.0, 0.3, 0.8, 0.99):
        for width in (0.01, 0.1, 0.5, 1.0):
            ours = true_success(CenteringPoint(rel_shift=shift, rel_width=width))
            want = normal_interval_reference(0.5 * shift, width, -0.5, 0.5)
            assert ours == pytest.approx(want, abs=1e-10)


def test_proxy_equals_true_at_zero_shift():
    for width in default_width_axis(20):
        point = CenteringPoint(rel_shift=0.0, rel_width=float(width))
        assert proxy_success(float(width)) == true_success(point)


def test_proxy_never_underestimates():
    rng = np.random.default_rng(9)
    for _ in range(200):
        shift = float(rng.uniform(0.0, 0.99))
        width = float(rng.uniform(1e-3, 1.0))
        assert proxy_success(width) >= true_success(
            CenteringPoint(rel_shift=shift, rel_width=width)) - 1e-15


def _odd_erf(x: float) -> float:
    return math.copysign(math.erf(abs(x)), x)


def test_success_maps_match_cellwise_laws():
    # the cell-by-cell evaluation the grid replaced, in plain floats
    shifts = default_shift_axis(7)
    widths = default_width_axis(9)
    true, proxy, error = success_maps(shifts, widths)
    for i, shift in enumerate(shifts):
        for j, width in enumerate(widths):
            scale = width * math.sqrt(2.0)
            mass = 0.5 * (_odd_erf((0.5 - 0.5 * shift) / scale)
                          - _odd_erf((-0.5 - 0.5 * shift) / scale))
            want_true = min(1.0, max(0.0, mass))
            want_proxy = min(1.0, _odd_erf(0.5 / scale))
            assert true[i, j] == want_true
            assert proxy[i, j] == want_proxy
            assert error[i, j] == (want_proxy - want_true) / want_true
            point = CenteringPoint(rel_shift=float(shift), rel_width=float(width))
            assert true_success(point) == want_true
            assert proxy_success(float(width)) == want_proxy


def test_relative_error_map_shape_and_zero_row():
    shift_axis = default_shift_axis(25)
    width_axis = default_width_axis(30)
    err = relative_error_map(shift_axis, width_axis)
    assert err.shape == (25, 30)
    assert np.all(err[0] == 0.0)
    assert np.nanmin(err) >= 0.0


def test_known_probe_values():
    err = relative_error_map([0.99], [0.01, 0.1])
    # peaked distribution: the proxy saturates but the true mass is Phi(0.5),
    # an error of 0.446
    assert err[0, 0] == pytest.approx(
        centering_relative_error_reference(0.99, 0.01), abs=1e-9)
    # near-boundary mean at matched width: proxy about twice the true value
    # (error 0.923)
    assert err[0, 1] == pytest.approx(
        centering_relative_error_reference(0.99, 0.1), abs=1e-9)


def test_point_validation():
    with pytest.raises(ValidationError):
        CenteringPoint(rel_shift=1.0, rel_width=0.1)
    with pytest.raises(ValidationError):
        CenteringPoint(rel_shift=-0.1, rel_width=0.1)
    with pytest.raises(ValidationError):
        CenteringPoint(rel_shift=0.5, rel_width=0.0)
    with pytest.raises(ValidationError):
        proxy_success(-1.0)
    with pytest.raises(ValidationError):
        relative_error_map([], [0.1])
    with pytest.raises(ValidationError):
        success_maps([0.0, 1.0], [0.1])
    with pytest.raises(ValidationError):
        success_maps([0.0], [0.1, math.nan])
