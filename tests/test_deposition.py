import numpy as np
import pytest

from kpzlab.deposition import (
    DepositionRate,
    builtin_rates,
    check_assumptions,
    check_growth_condition,
    power_clamp_rate,
    quadratic_rate,
    rate_by_label,
    relativistic_rate,
    tabulated_rate,
)
from kpzlab.grid import BadArgumentError


def test_builtin_values():
    q = quadratic_rate()
    assert q.eval(np.array([2.0]))[0] == 4.0
    r = relativistic_rate()
    assert r.eval(np.array([0.0]))[0] == 0.0
    assert r.eval(np.array([1.0]))[0] == pytest.approx(np.sqrt(2) - 1, abs=1e-12)


def test_builtin_assumptions_pass():
    for rate in builtin_rates():
        rep = check_assumptions(rate)
        assert rep.all_pass, str(rep)


def test_linear_rate_fails_quadratic_growth():
    lin = DepositionRate(label="linear", eval=lambda y: np.asarray(y, dtype=float),
                         deriv=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    rep = check_assumptions(lin, np.linspace(0, 2, 2000))
    assert not rep.items["quadratic growth V(y)<=y^2"][0]  # 0.5 > 0.25 at y = 0.5


def test_growth_condition_quadratic_exact():
    assert check_growth_condition(quadratic_rate(), "iii") == pytest.approx(1.0, abs=1e-12)


def test_growth_condition_relativistic_fails_iii():
    # ratio (y V' - V)/y^2 tends to zero at infinity: reported as failure
    assert check_growth_condition(relativistic_rate(), "iii") is None
    y = np.array([100.0])
    r = relativistic_rate()
    ratio = (y * r.deriv(y) - r.eval(y)) / y**2
    assert ratio[0] < 0.02
    ratio2 = (200.0 * r.deriv(np.array([200.0])) - r.eval(np.array([200.0]))) / 200.0**2
    assert ratio2[0] < ratio[0]  # decreasing


def test_growth_condition_powerclamp_ii():
    c = check_growth_condition(power_clamp_rate(1.5), "ii")
    assert c is not None and c > 0


def test_deriv_bound_from_convexity():
    # V'(y) <= 4y for every builtin passing the assumption checks
    y = np.linspace(1e-6, 1e3, 5000)
    for rate in builtin_rates():
        assert check_assumptions(rate).all_pass
        assert np.all(rate.deriv(y) <= 4 * y + 1e-8)


def test_coercivity_nonnegative():
    # y V'(y) - V(y) >= 0 for convex V with V(0) = 0
    y = np.linspace(0, 100.0, 5000)
    for rate in builtin_rates():
        assert np.all(y * rate.deriv(y) - rate.eval(y) >= -1e-10)


def test_rate_by_label():
    assert rate_by_label("quadratic").quadratic
    assert rate_by_label("powerclamp1.5").q == 1.5
    with pytest.raises(BadArgumentError):
        rate_by_label("nonesuch")


def test_tabulated_rate_roundtrip():
    y = np.linspace(0, 10, 200)
    pts = np.stack([y, y**2], axis=1)
    r = tabulated_rate(pts)
    yy = np.linspace(0.1, 9.9, 50)
    # monotone-cubic interpolation is not exact on quadratics; ~1e-4 overshoot
    assert np.abs(r.eval(yy) - yy**2).max() < 5e-4
    rep = check_assumptions(r, np.linspace(0, 9.5, 2000))
    assert rep.items["V(0)=0"][0] and rep.items["convexity"][0]


def test_grid_density_guard():
    with pytest.raises(ValueError):
        check_assumptions(quadratic_rate(), np.linspace(0, 1, 10))
