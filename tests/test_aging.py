import math
from fractions import Fraction

import mpmath as mp
import pytest

from cgralloc.aging import (
    AgingParams,
    delay_curve,
    delay_curve_csv,
    delay_increase,
    delta_vt_raw,
    lifetime,
    lifetime_improvement,
)

DEFAULTS = AgingParams()
HOURS_PER_YEAR = 8760.0

# frozen from the 50-digit evaluation of the drift model (see oracle below):
# T=350 K, vdd=1.0 V, t=3 years in hours, u=1.0
DVT_3Y_FULL_LOAD = 3.7524262539233960893e-4


def oracle_delta_vt(temperature_k, vdd, t_hours, u) -> float:
    """Independent high-precision evaluation of the drift model."""
    with mp.workdps(50):
        value = (
            mp.mpf("0.005")
            * mp.e ** (-1500 / mp.mpf(temperature_k))
            * mp.mpf(vdd) ** 4
            * mp.mpf(t_hours) ** (mp.mpf(1) / 6)
            * mp.mpf(u) ** (mp.mpf(1) / 6)
        )
        return float(value)


def test_params_validation():
    with pytest.raises(ValueError):
        AgingParams(temperature_k=0)
    with pytest.raises(ValueError):
        AgingParams(vdd=-1)
    with pytest.raises(ValueError):
        AgingParams(delay_threshold=0)
    with pytest.raises(ValueError):
        AgingParams(reference_lifetime_years=0)


@pytest.mark.parametrize("field", ["temperature_k", "vdd", "delay_threshold",
                                   "reference_lifetime_years"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "1", [0.1], True])
def test_params_reject_non_finite(field, value):
    """A value that is not an int or float, a bool included, is named as well."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        AgingParams(**{field: value})


def test_delta_vt_zero_load_or_zero_time():
    assert delta_vt_raw(DEFAULTS, 0.0, 1.0) == 0.0
    assert delta_vt_raw(DEFAULTS, 1000.0, 0.0) == 0.0


def test_delta_vt_matches_high_precision_oracle():
    t_hours = 3 * HOURS_PER_YEAR
    got = delta_vt_raw(DEFAULTS, t_hours, 1.0)
    assert got == pytest.approx(DVT_3Y_FULL_LOAD, rel=1e-12)
    assert got == pytest.approx(oracle_delta_vt(350.0, 1.0, t_hours, 1.0), rel=1e-12)
    # off-default point, same oracle
    params = AgingParams(temperature_k=400.0, vdd=1.1)
    assert delta_vt_raw(params, 1000.0, 0.5) == pytest.approx(
        oracle_delta_vt(400.0, 1.1, 1000.0, 0.5), rel=1e-12
    )


def test_delta_vt_domain_errors():
    with pytest.raises(ValueError):
        delta_vt_raw(DEFAULTS, -1.0, 0.5)
    with pytest.raises(ValueError):
        delta_vt_raw(DEFAULTS, 1.0, 1.5)
    with pytest.raises(ValueError):
        delta_vt_raw(DEFAULTS, 1.0, -0.1)


@pytest.mark.parametrize("u", [True, False, None, "0.5", [0.5], 0.5j, math.nan])
def test_utilization_of_a_wrong_type_is_a_value_error(u):
    """Only an int, a float or a Fraction is a utilization; a bool is a flag."""
    for call in (lambda: lifetime(DEFAULTS, u), lambda: delta_vt_raw(DEFAULTS, 1.0, u),
                 lambda: delay_increase(DEFAULTS, 1.0, u),
                 lambda: delay_curve(DEFAULTS, u, 1.0, 2)):
        with pytest.raises(ValueError, match=r"^utilization .* outside \[0, 1\]$"):
            call()
    assert lifetime(DEFAULTS, Fraction(1, 2)) == lifetime(DEFAULTS, 0.5) == 6.0


def test_delta_vt_monotone_in_each_argument():
    # finite differences at 10 sample points per axis
    t0, u0 = 5000.0, 0.5
    temps = [260.0 + 20.0 * i for i in range(10)]
    vals = [delta_vt_raw(AgingParams(temperature_k=T), t0, u0) for T in temps]
    assert all(b > a for a, b in zip(vals, vals[1:]))

    vdds = [0.6 + 0.1 * i for i in range(10)]
    vals = [delta_vt_raw(AgingParams(vdd=v), t0, u0) for v in vdds]
    assert all(b > a for a, b in zip(vals, vals[1:]))

    times = [100.0 * (i + 1) for i in range(10)]
    vals = [delta_vt_raw(DEFAULTS, t, u0) for t in times]
    assert all(b > a for a, b in zip(vals, vals[1:]))

    us = [0.1 * (i + 1) for i in range(10)]
    vals = [delta_vt_raw(DEFAULTS, t0, u) for u in us]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_delay_increase_calibration_anchor_exact():
    assert delay_increase(DEFAULTS, 3.0, 1.0) == 0.10


def test_delay_increase_zero_time():
    assert delay_increase(DEFAULTS, 0.0, 1.0) == 0.0


def test_delay_increase_sixth_root_scaling():
    # 64x the reference lifetime doubles the degradation: 64^(1/6) = 2
    assert delay_increase(DEFAULTS, 3.0 * 64, 1.0) == pytest.approx(0.20, rel=1e-12)


def test_lifetime_reference_point():
    assert lifetime(DEFAULTS, 1.0) == 3.0


def test_lifetime_inverse_proportionality():
    assert lifetime(DEFAULTS, 0.5) == 6.0
    assert lifetime(DEFAULTS, 0.945) == pytest.approx(3.1746031746, rel=1e-9)
    assert lifetime(DEFAULTS, 0.411) == pytest.approx(7.2992700730, rel=1e-9)


def test_lifetime_zero_utilization_is_unbounded():
    assert lifetime(DEFAULTS, 0.0) == math.inf
    # past the largest float, as float division rounds it, for a Fraction u too
    huge = AgingParams(reference_lifetime_years=1e308)
    assert lifetime(huge, 1e-10) == lifetime(huge, Fraction(1, 32)) == math.inf
    assert lifetime(huge, Fraction(1, 1)) == 1e308
    with pytest.raises(ValueError):
        lifetime(DEFAULTS, -0.1)


def test_lifetime_times_utilization_constant():
    for i in range(1, 101):
        u = i / 100
        product = lifetime(DEFAULTS, u) * u
        assert abs(product - 3.0) <= 3.0 * 1e-12


def test_lifetime_hits_threshold_exactly():
    for u in (0.05, 0.33, 0.5, 0.75, 1.0):
        t = lifetime(DEFAULTS, u)
        assert delay_increase(DEFAULTS, t, u) == pytest.approx(
            DEFAULTS.delay_threshold, rel=1e-12
        )


def test_improvement_reproduces_reported_ratios():
    assert lifetime_improvement(0.945, 0.411) == pytest.approx(2.29927007299, rel=1e-9)
    assert lifetime_improvement(0.981, 0.224) == pytest.approx(4.37946428571, rel=1e-9)
    assert lifetime_improvement(0.981, 0.123) == pytest.approx(7.97560975610, rel=1e-9)


def test_improvement_equals_lifetime_ratio_and_is_scale_free():
    hot = AgingParams(temperature_k=420.0, vdd=1.2, delay_threshold=0.2)
    for ub, up in ((0.9, 0.3), (0.5, 0.5), (0.7, 0.2)):
        expected = lifetime(hot, up) / lifetime(hot, ub)
        assert lifetime_improvement(ub, up) == pytest.approx(expected, rel=1e-12)
        assert lifetime_improvement(ub, up) == pytest.approx(
            lifetime(DEFAULTS, up) / lifetime(DEFAULTS, ub), rel=1e-12
        )


def test_improvement_unbounded_signal():
    assert lifetime_improvement(0.5, 0.0) == math.inf


def test_delay_curve_zero_load_is_flat():
    points = delay_curve(DEFAULTS, 0.0, 10.0, 11)
    assert all(frac == 0.0 for _, frac in points)


def test_delay_curve_endpoints_and_monotonicity():
    points = delay_curve(DEFAULTS, 1.0, 3.0, 31)
    assert points[0] == (0.0, 0.0)
    assert points[-1][0] == 3.0
    assert points[-1][1] == 0.10
    fracs = [frac for _, frac in points]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_delay_curve_matches_pointwise_calls():
    points = delay_curve(DEFAULTS, 0.7, 8.0, 17)
    for t, frac in points:
        assert frac == delay_increase(DEFAULTS, t, 0.7)


def test_delay_curve_validation():
    with pytest.raises(ValueError):
        delay_curve(DEFAULTS, 0.5, 0.0, 10)
    with pytest.raises(ValueError):
        delay_curve(DEFAULTS, 0.5, 1.0, 1)
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValueError):
            delay_curve(DEFAULTS, 0.5, horizon, 10)


def test_delay_curve_csv_shape():
    text = delay_curve_csv(delay_curve(DEFAULTS, 1.0, 3.0, 4))
    lines = text.strip().splitlines()
    assert lines[0] == "t_years,delay_fraction"
    assert len(lines) == 5
    t, frac = lines[-1].split(",")
    assert float(t) == 3.0
    assert float(frac) == pytest.approx(0.10, abs=1e-9)
