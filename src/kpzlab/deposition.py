"""Deposition rates V(|grad h|) and verification of their structural assumptions.

A rate is admissible when it is C^2, isotropic, convex, vanishes at zero and
grows at most quadratically.  The checks here are sampled on a grid, not
symbolic: rates are user-supplied code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import BadArgumentError

DEFAULT_Y_MAX = 1e3
DEFAULT_GRID_POINTS = 10_000
GROWTH_FAIL_THRESHOLD = 1e-3


@dataclass(frozen=True)
class DepositionRate:
    """Isotropic nonlinearity V acting on the slope magnitude y = |grad h| >= 0."""

    label: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    q: Optional[float] = None
    quadratic: bool = False

    def __call__(self, y):
        return self.eval(y)


def quadratic_rate() -> DepositionRate:
    return DepositionRate(
        label="quadratic",
        eval=lambda y: np.asarray(y) ** 2,
        deriv=lambda y: 2.0 * np.asarray(y),
        q=2.0,
        quadratic=True,
    )


def relativistic_rate() -> DepositionRate:
    """sqrt(1 + y^2) - 1: the normal-deposition rate, linear growth at infinity."""
    return DepositionRate(
        label="relativistic",
        eval=lambda y: np.sqrt(1.0 + np.asarray(y) ** 2) - 1.0,
        deriv=lambda y: np.asarray(y) / np.sqrt(1.0 + np.asarray(y) ** 2),
    )


def power_clamp_rate(q: float) -> DepositionRate:
    """(2/q)((1+y^2)^{q/2} - 1): behaves like y^2 near 0 and like y^q at infinity."""
    if not (1.0 < q <= 2.0):
        raise BadArgumentError(f"growth exponent q must lie in (1, 2], got {q}")
    return DepositionRate(
        label=f"powerclamp{q:g}",
        eval=lambda y: (2.0 / q) * ((1.0 + np.asarray(y) ** 2) ** (q / 2) - 1.0),
        deriv=lambda y: 2.0 * np.asarray(y) * (1.0 + np.asarray(y) ** 2) ** (q / 2 - 1.0),
        q=q,
    )


def builtin_rates() -> list:
    return [quadratic_rate(), relativistic_rate(), power_clamp_rate(1.5)]


def rate_by_label(label: str) -> DepositionRate:
    """Builtin rate by label; "tabulated:FILE" loads (y, V) pairs from a CSV."""
    try:
        if label.startswith("powerclamp"):
            return power_clamp_rate(float(label[len("powerclamp"):]))
        if label.startswith("tabulated:"):
            return tabulated_rate(np.loadtxt(label[len("tabulated:"):], delimiter=","), label=label)
    except ValueError as e:
        # the label is text from outside the program: an exponent or a table that will not parse is a bad argument
        raise BadArgumentError(str(e)) from e
    for r in builtin_rates():
        if r.label == label:
            return r
    raise BadArgumentError(f"unknown deposition rate {label!r}")


def tabulated_rate(points: np.ndarray, label: str = "tabulated") -> DepositionRate:
    """Rate from (y, V(y)) pairs via monotone cubic interpolation."""
    from scipy.interpolate import PchipInterpolator

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise BadArgumentError("expected an array of (y, V) pairs")
    interp = PchipInterpolator(pts[:, 0], pts[:, 1])
    dinterp = interp.derivative()
    return DepositionRate(label=label, eval=lambda y: interp(y), deriv=lambda y: dinterp(y))


@dataclass
class AssumptionReport:
    """Per-item outcome of the sampled structural checks on a rate."""

    label: str
    items: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(ok for ok, _ in self.items.values())

    def __str__(self):
        lines = [f"assumption report for {self.label}:"]
        for name, (ok, detail) in self.items.items():
            lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}: {detail}")
        return "\n".join(lines)


def _default_grid():
    return np.linspace(0.0, DEFAULT_Y_MAX, DEFAULT_GRID_POINTS)


def check_assumptions(V: DepositionRate, y_grid: np.ndarray = None) -> AssumptionReport:
    """Sampled verification: V(0)=0, V>=0, convexity, V(y)<=y^2, deriv consistency."""
    if y_grid is None:
        y_grid = _default_grid()
    y = np.asarray(y_grid, dtype=float)
    if len(y) < 1000:
        raise BadArgumentError("y_grid too sparse; need >= 1000 points")
    v = np.asarray(V.eval(y), dtype=float)
    rep = AssumptionReport(label=V.label)

    v0 = float(V.eval(np.array([0.0]))[0])
    rep.items["V(0)=0"] = (abs(v0) <= 1e-12, f"V(0) = {v0:.3e}")
    rep.items["V>=0"] = (bool(np.all(v >= -1e-12)), f"min V = {v.min():.3e}")

    d2 = np.diff(v, 2)
    rep.items["convexity"] = (
        bool(np.all(d2 >= -1e-10 * max(1.0, np.abs(v).max()))),
        f"min second difference = {d2.min():.3e}",
    )

    gap = y**2 - v
    rep.items["quadratic growth V(y)<=y^2"] = (
        bool(np.all(gap >= -1e-10 * np.maximum(1.0, y**2))),
        f"min (y^2 - V) = {gap.min():.3e}",
    )

    # centered finite differences of eval vs the supplied derivative
    h = np.maximum(1e-6, 1e-8 * y[1:-1])
    fd = (np.asarray(V.eval(y[1:-1] + h)) - np.asarray(V.eval(y[1:-1] - h))) / (2 * h)
    dv = np.asarray(V.deriv(y[1:-1]), dtype=float)
    denom = np.maximum(np.abs(dv), 1.0)
    rel = np.abs(fd - dv) / denom
    rep.items["deriv matches eval"] = (
        bool(np.all(rel <= 1e-6)),
        f"max relative derivative mismatch = {rel.max():.3e}",
    )
    return rep


def check_growth_condition(V: DepositionRate, kind: str) -> Optional[float]:
    """Estimated coercivity constant of y V'(y) - V(y), or None on failure.

    kind "iii" tests against y^2; kind "ii" against min(y^2, y^q) with the
    rate's exponent q.  The infimum is sampled over the default grid; values
    at or below GROWTH_FAIL_THRESHOLD are declared failures (the infimum of a
    ratio that decays to zero at infinity never goes negative on a finite grid).
    """
    if kind not in ("ii", "iii"):
        raise BadArgumentError("kind must be 'ii' or 'iii'")
    y = _default_grid()
    y = y[y > 0]
    coercive = y * np.asarray(V.deriv(y)) - np.asarray(V.eval(y))
    if kind == "iii":
        denom = y**2
    else:
        if V.q is None:
            raise BadArgumentError("kind 'ii' needs the rate's growth exponent q")
        denom = np.minimum(y**2, y**V.q)
    c = float(np.min(coercive / denom))
    if c <= GROWTH_FAIL_THRESHOLD:
        return None
    return c
