"""Long-term FU wear model: threshold-voltage drift, delay growth, lifetime.

The drift model gives the threshold-voltage increase of a stressed unit as

    dVt = 0.005 * exp(-1500 / T) * vdd^4 * t^(1/6) * u^(1/6)

with temperature T in kelvin, time t in hours and utilization u in [0, 1]
(the unit's duty cycle).  Delay grows linearly with dVt to first order, so
the delay-increase curve is calibrated against a reference point: a unit at
full utilization (u = 1) reaches the threshold delay degradation (10%) at
the reference lifetime (3 years).  All lifetime ratios derived from the
calibrated curve are independent of T, vdd and the threshold, which is why
the raw equation's unspecified absolute scale never matters downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

_SIXTH = 1.0 / 6.0


class _AgingParams(NamedTuple):
    temperature_k: float = 350.0
    vdd: float = 1.0
    delay_threshold: float = 0.10
    reference_lifetime_years: float = 3.0


class AgingParams(_AgingParams):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in self._asdict().items():
            if type(value) not in (int, float) or not math.isfinite(value):  # a bool is a flag
                kind = "finite" if type(value) is float else "an int or a float"
                raise ValueError(f"{name} must be {kind}, got {value!r}")  # repr(nan) is nan
        if self.temperature_k <= 0:
            raise ValueError("temperature must be > 0 K")
        if self.vdd <= 0:
            raise ValueError("vdd must be > 0 V")
        if not 0 < self.delay_threshold <= 1:
            raise ValueError("delay_threshold must be in (0, 1]")
        if self.reference_lifetime_years <= 0:
            raise ValueError("reference_lifetime_years must be > 0")
        return self


def _check_u(u: float) -> None:
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"utilization {u} outside [0, 1]")


def delta_vt_raw(params: AgingParams, t_hours: float, u: float) -> float:
    """Raw threshold-voltage increase in volts after t_hours at utilization u."""
    if t_hours < 0:
        raise ValueError("time must be >= 0")
    _check_u(u)
    return (0.005 * math.exp(-1500.0 / params.temperature_k) * params.vdd**4
            * t_hours**_SIXTH * u**_SIXTH)


def delay_increase(params: AgingParams, t_years: float, u: float) -> float:
    """Fractional delay degradation after t_years at utilization u.

    Calibrated so (reference_lifetime_years, u = 1) maps exactly to
    delay_threshold; sixth-root scaling in both time and load.
    """
    if t_years < 0:
        raise ValueError("time must be >= 0")
    _check_u(u)
    return (params.delay_threshold * (t_years / params.reference_lifetime_years) ** _SIXTH
            * u**_SIXTH)


def lifetime(params: AgingParams, u: float) -> float:
    """Years until the delay threshold is reached at constant utilization u.

    Closed form of the smallest t with delay_increase(t, u) >= threshold:
    reference_lifetime / u, rounded once (so exact for a Fraction u).  An
    idle unit (u = 0) never reaches the threshold; that is signalled as
    math.inf, and so is a lifetime past the largest float.
    """
    _check_u(u)
    try:
        return float(Fraction(params.reference_lifetime_years) / u) if u else math.inf
    except OverflowError:  # a Fraction too large for a float; float division rounds it to inf
        return math.inf


def lifetime_improvement(u_baseline: float, u_proposed: float) -> float:
    """Lifetime ratio proposed/baseline; equals u_baseline / u_proposed.

    Independent of temperature, supply voltage and the delay threshold.
    Zero proposed utilization means unbounded improvement (math.inf).
    """
    _check_u(u_baseline)
    _check_u(u_proposed)
    return u_baseline / u_proposed if u_proposed else math.inf


def delay_curve(
    params: AgingParams, u: float, horizon_years: float, num_points: int
) -> list[tuple[float, float]]:
    """Sampled (t_years, delay fraction) points from 0 to the horizon."""
    if not 0 < horizon_years < math.inf:
        raise ValueError("horizon must be finite and > 0")
    if num_points < 2:
        raise ValueError("need at least 2 points")
    # i/(n-1) hits 1.0 exactly, so the final sample lands on the horizon
    ts = [horizon_years * (i / (num_points - 1)) for i in range(num_points)]
    return [(t, delay_increase(params, t, u)) for t in ts]


def delay_curve_csv(points: list[tuple[float, float]]) -> str:
    lines = ["t_years,delay_fraction"]
    lines.extend(f"{t:.6f},{frac:.9f}" for t, frac in points)
    return "\n".join(lines) + "\n"
