"""Solution procedures for the viscous Hamilton-Jacobi growth equation.

Three routes to a solution of  dh/dt = nu Lap h + lam V(|grad h|) (+ forcing):

* exact Cole-Hopf for the quadratic rate,
* Picard iteration on the Duhamel integral form (mild solutions),
* damped Lie-Trotter splitting for the infra-red cutoff forced equation.

Plus the explicit decaying-bump oracle and log-log decay-rate experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import integrate, special

from .deposition import DepositionRate
from .grid import (
    Field,
    GridSpec,
    OverflowInExponentialError,
    SpaceTimeField,
    _irfftn,
    _rfftn,
    dealias_two_thirds,
    derivative_sup,
    gradient_magnitude,
    ksq_array,
    lp_norm,
)
from .heat import HeatParams, InsufficientHistoryError, heat_apply

EXP_ARG_LIMIT = 700.0  # largest exponent that float64 represents


class RateNotQuadraticError(ValueError):
    pass


class WindowTooShortError(ValueError):
    pass


@dataclass(frozen=True)
class SolveParams:
    """Coefficients of the growth equation and of the numerical schemes."""

    nu: float
    lam: float
    rate: DepositionRate
    dt: float
    D: float = 1.0
    cutoff: Optional[tuple] = None  # (M, j) infra-red cutoff

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError("coupling lam must be positive")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not (self.nu > 0):
            raise ValueError("nu must be positive")

    @property
    def heat(self) -> HeatParams:
        return HeatParams(nu=self.nu)


@dataclass
class Trajectory:
    """Time-sampled solution with per-frame diagnostics."""

    field: SpaceTimeField
    scheme: str
    converged: bool = True
    notes: str = ""

    @property
    def frames(self):
        return self.field.frames

    @property
    def sup(self) -> list:
        """Sup norm of each frame."""
        return [lp_norm(f, np.inf) for f in self.frames]

    @property
    def grad_sup(self) -> list:
        """Sup norm of the gradient magnitude of each frame."""
        return [lp_norm(gradient_magnitude(f), np.inf) for f in self.frames]

    def times(self):
        return self.field.times()


@dataclass
class DecayFit:
    """Log-log slope of one norm over an asymptotic time window."""

    label: str
    window: tuple
    slope: float
    intercept: float
    residual: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) < 5:
            raise WindowTooShortError("decay window needs >= 5 sample times")
        if self.times.max() / self.times.min() < 10.0:
            raise WindowTooShortError("decay window must span at least one decade")


# --- exact Cole-Hopf route --------------------------------------------------


def _checked_exp(arg: np.ndarray, context: str) -> np.ndarray:
    m = float(np.max(arg))
    if m > EXP_ARG_LIMIT:
        raise OverflowInExponentialError(
            f"{context}: exponent sup {m:.3g} exceeds float64 range"
        )
    return np.exp(arg)


def cole_hopf_solve(h0: Field, t: float, p: SolveParams) -> Field:
    """(nu/lam) log( exp(t nu Lap) exp((lam/nu) h0) ), the exact quadratic solver.

    Computed in shifted form around max h0, which leaves the result exactly
    invariant (the semigroup is linear and positive) while keeping the
    exponentials representable.
    """
    if not p.rate.quadratic:
        raise RateNotQuadraticError(
            f"Cole-Hopf requires the quadratic rate, got {p.rate.label!r}"
        )
    a = p.lam / p.nu
    m = float(np.max(h0.values))
    osc = m - float(np.min(h0.values))
    if a * osc > EXP_ARG_LIMIT:
        raise OverflowInExponentialError(
            f"lam/nu * osc(h0) = {a * osc:.3g} exceeds float64 range (sup {m:.3g})"
        )
    w = Field(h0.spec, np.exp(a * (h0.values - m)))
    wt = heat_apply(w, t, p.heat)
    vals = wt.values
    if np.min(vals) <= 0:
        raise OverflowInExponentialError(
            "heat-evolved exponential underflowed to a non-positive value"
        )
    return Field(h0.spec, np.log(vals) / a + m)


# --- explicit bump oracle ---------------------------------------------------


def _ball_kernel_integral(x: float, L: float, t: float, d: int, tol: float) -> float:
    """Adaptive quadrature of  int_{|y|<=L} exp(-(x-y)^2 / 2t) dy  at radius x."""
    x = abs(float(x))
    s = math.sqrt(t)
    # substitute u = (y - x)/sqrt(t): the integrand stays O(1)-scaled for all t,
    # which the adaptive rule requires when sqrt(t) << L
    wide = 40.0
    lo0 = 0.0 if d > 1 else -L
    u_lo = max(-wide, (lo0 - x) / s)
    u_hi = min(wide, (L - x) / s)
    if u_lo >= u_hi:
        return 0.0
    pts = [0.0] if u_lo < 0.0 < u_hi else None
    if d == 1:

        def f(u):
            return s * math.exp(-(u**2) / 2)

    elif d == 2:
        # polar reduction: 2 pi int r exp(-(x-r)^2/2t) i0e(x r / t) dr
        def f(u):
            r = x + s * u
            return 2 * math.pi * r * math.exp(-(u**2) / 2) * special.i0e(x * r / t) * s

    else:
        if x < 1e-12 * max(L, s):

            def f(u):
                r = x + s * u
                return 4 * math.pi * r**2 * math.exp(-(r**2) / (2 * t)) * s

        else:

            def f(u):
                r = x + s * u
                return (
                    2
                    * math.pi
                    * t
                    / x
                    * r
                    * (math.exp(-(u**2) / 2) - math.exp(-((x + r) ** 2) / (2 * t)))
                    * s
                )

    val, _ = integrate.quad(f, u_lo, u_hi, points=pts, epsabs=tol, epsrel=1e-12, limit=400)
    return val


def bump_reference(A: float, L: float, t: float, x, d: int, tol: float = 1e-10):
    """Closed-form decaying-bump profile, by adaptive quadrature.

        h(t, x) = log( 1 + (e^A - 1) (2 pi t)^{-d/2} int_{|y|<=L} exp(-(x-y)^2 / 2t) dy )

    The kernel here is the fixed module convention exp(-r^2/4 nu t)/(4 pi nu t)^{d/2}
    at nu = 1/2, so the profile is the exact solution of
    dh/dt = (1/2) Lap h + (1/2)|grad h|^2 with initial bump A 1_{|x|<=L}, and
    comparisons against the spectral solvers use nu = lam = 1/2 with no
    amplitude remapping.  x is the radial coordinate |x|; vector input is
    mapped elementwise.
    """
    if t <= 0:
        raise ValueError("bump_reference needs t > 0")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    amp = math.expm1(A)
    norm = (2 * math.pi * t) ** (-d / 2)
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        I = _ball_kernel_integral(xi, L, t, d, tol)
        out[i] = math.log1p(amp * norm * I)
    return out if np.ndim(x) else float(out[0])


BUMP_ORACLE_NU = 0.5
BUMP_ORACLE_LAM = 0.5


def bump_oracle_field(spec: GridSpec, A: float, L: float, t: float, tol: float = 1e-10) -> Field:
    """bump_reference sampled on the grid, centered at the box center."""
    from .grid import periodic_distance_sq

    r = np.sqrt(periodic_distance_sq(spec))
    rflat, inv = np.unique(np.round(r.ravel(), 12), return_inverse=True)
    vals = bump_reference(A, L, t, rflat, spec.d, tol)
    return Field(spec, np.asarray(vals)[inv].reshape(spec.shape))


# --- mild solutions ---------------------------------------------------------


def _nonlinear_term(h: Field, p: SolveParams) -> Field:
    """V(|grad h|), spectrally dealiased by the 2/3 rule."""
    y = gradient_magnitude(h)
    return dealias_two_thirds(Field(h.spec, np.asarray(p.rate.eval(y.values))))


def _slab_picard(h_start: Field, n_s: int, p: SolveParams, tol: float, max_iter: int):
    """Picard iteration for the Duhamel form on one slab of n_s steps.

    Returns (frames h_1..h_{n_s}, converged, iterations).
    """
    spec, dt = h_start.spec, p.dt
    ksq = ksq_array(spec)
    lag_mult = [np.exp(-p.nu * ksq * (l * dt)) for l in range(n_s + 1)]
    h_hat = _rfftn(h_start.values, spec)
    base_hat = [h_hat * m for m in lag_mult]
    H = [Field(spec, _irfftn(base_hat[i], spec)) for i in range(n_s + 1)]
    conv = False
    it = 0
    for it in range(1, max_iter + 1):
        N_hat = [_rfftn(_nonlinear_term(H[j], p).values, spec) for j in range(n_s + 1)]
        H_new = [H[0]]
        diff = 0.0
        for i in range(1, n_s + 1):
            acc = base_hat[i].copy()
            for j in range(i + 1):
                w = dt if 0 < j < i else dt / 2
                acc += (p.lam * w) * lag_mult[i - j] * N_hat[j]
            hi = Field(spec, _irfftn(acc, spec))
            diff = max(diff, float(np.max(np.abs(hi.values - H[i].values))))
            H_new.append(hi)
        H = H_new
        if diff < tol:
            conv = True
            break
    return H[1:], conv, it


def mild_solve(
    h0: Field,
    T: float,
    p: SolveParams,
    tol: float = 1e-8,
    max_iter: int = 60,
    c_slab: float = 0.1,
    max_halvings: int = 6,
    slab_max_steps: int = 64,
) -> Trajectory:
    """Picard iteration of the integral form on contraction-sized time slabs.

    Each slab has length ~ c_slab / (lam ||grad h||_inf)^2, rounded to the
    frame grid; c_slab is halved automatically when a slab fails to contract.
    On persistent failure the partial trajectory is returned with
    converged=False.
    """
    spec, dt = h0.spec, p.dt
    n_total = int(round(T / dt))
    if abs(n_total * dt - T) > 1e-9 * max(1.0, dt):
        raise ValueError("T must be a multiple of dt")
    frames = [h0]
    done = 0
    cs = c_slab
    notes = []
    while done < n_total:
        h_start = frames[-1]
        g = lp_norm(gradient_magnitude(h_start), np.inf)
        if g > 0:
            t1 = cs / (p.lam * g) ** 2
            n_s = max(1, min(int(t1 / dt), n_total - done, slab_max_steps))
        else:
            n_s = min(n_total - done, slab_max_steps)
        new_frames, conv, _ = _slab_picard(h_start, n_s, p, tol, max_iter)
        if not conv:
            halved = False
            for _ in range(max_halvings):
                cs /= 2
                n_s = max(1, min(int(cs / (p.lam * max(g, 1e-300)) ** 2 / dt), n_total - done, slab_max_steps))
                new_frames, conv, _ = _slab_picard(h_start, n_s, p, tol, max_iter)
                if conv:
                    halved = True
                    break
            if not conv:
                notes.append(f"no convergence in slab at t = {done * dt:.6g}")
                stf = SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=0.0)
                return Trajectory(field=stf, scheme="mild", converged=False, notes="; ".join(notes))
            if halved:
                notes.append(f"c_slab halved to {cs:.3g} at t = {done * dt:.6g}")
        frames.extend(new_frames)
        done += n_s
    stf = SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=0.0)
    return Trajectory(field=stf, scheme="mild", converged=True, notes="; ".join(notes))


def homogeneous_step(h: Field, dt_step: float, p: SolveParams, tol: float = 1e-10) -> Field:
    """One application of the homogeneous nonlinear flow over dt_step.

    Exact Cole-Hopf for the quadratic rate; otherwise a mild sub-solve with
    four internal steps.
    """
    if dt_step == 0:
        return h
    if p.rate.quadratic:
        return cole_hopf_solve(h, dt_step, p)
    sub = replace(p, dt=dt_step / 4)
    traj = mild_solve(h, dt_step, sub, tol=tol)
    if not traj.converged:
        raise RuntimeError(f"homogeneous step failed to converge: {traj.notes}")
    return traj.frames[-1]


# --- Trotter splitting for the cutoff forced equation ------------------------


def _slab_forcing(g: SpaceTimeField, a: float, b: float) -> np.ndarray:
    """Frame quadrature of the forcing integral over [a, b].

    Each frame represents the cell [t_f - dt/2, t_f + dt/2]; the integral is
    the overlap-weighted sum (composite midpoint when cells nest in slabs).
    """
    dt = g.dt
    times = g.times()
    if a < times[0] - dt / 2 - 1e-9 * dt or b > times[-1] + dt / 2 + 1e-9 * dt:
        raise InsufficientHistoryError(
            f"forcing history [{times[0]}, {times[-1]}] does not cover slab [{a}, {b}]"
        )
    lo = np.maximum(times - dt / 2, a)
    hi = np.minimum(times + dt / 2, b)
    w = np.maximum(hi - lo, 0.0)
    acc = np.zeros(g.spec.shape)
    for wk, f in zip(w, g.frames):
        if wk > 0:
            acc += wk * f.values
    return acc


def trotter_solve(
    psi0: Field,
    g: SpaceTimeField,
    T: float,
    n: int,
    p: SolveParams,
    tol_mild: float = 1e-10,
) -> Trajectory:
    """Damped splitting for the scale-j cutoff equation with forcing g.

    Per step: accumulate the slab forcing integral (times sqrt(D)), apply the
    homogeneous flow over T/n, then damp by exp(-M^{-j} T/n).  Returns all
    n + 1 splitting iterates.
    """
    if p.cutoff is None:
        raise ValueError("trotter_solve needs cutoff = (M, j) in SolveParams")
    M, j = p.cutoff
    eps = float(M) ** (-j)
    slab = T / n
    damp = math.exp(-eps * slab)
    sqrt_D = math.sqrt(p.D)
    psi = psi0
    frames = [psi0]
    for k in range(n):
        F = _slab_forcing(g, k * slab, (k + 1) * slab)
        psi = Field(psi.spec, psi.values + sqrt_D * F)
        psi = homogeneous_step(psi, slab, p, tol=tol_mild)
        psi = Field(psi.spec, damp * psi.values)
        frames.append(psi)
    stf = SpaceTimeField(spec=psi0.spec, dt=slab, frames=tuple(frames), t0=0.0)
    return Trajectory(field=stf, scheme="trotter")


# --- ordering and decay experiments ------------------------------------------


@dataclass
class OrderingReport:
    min_gap: float
    tol: float
    frames_checked: int

    @property
    def passed(self) -> bool:
        return self.min_gap >= -self.tol


def _evolve_frames(h0: Field, times, p: SolveParams, g=None, tol=1e-8):
    """Fields at the requested times, scheme chosen by rate/forcing."""
    if g is not None:
        T = float(max(times))
        n = int(round(T / p.dt))
        traj = trotter_solve(h0, g, T, n, p)
        return [traj.frames[traj.field.frame_index(t)] for t in times]
    if p.rate.quadratic:
        return [h0 if t == 0 else cole_hopf_solve(h0, float(t), p) for t in times]
    T = float(max(times))
    n = int(round(T / p.dt))
    traj = mild_solve(h0, n * p.dt, p, tol=tol)
    return [traj.frames[traj.field.frame_index(t)] for t in times]


def check_comparison(
    lower0: Field,
    upper0: Field,
    T: float,
    p: SolveParams,
    g: SpaceTimeField = None,
    n_checks: int = 8,
    tol_order: float = 1e-8,
) -> OrderingReport:
    """Evolve an ordered pair with the same scheme and forcing; report min gap."""
    if np.any(lower0.values > upper0.values + 1e-12):
        raise ValueError("lower0 must lie below upper0 pointwise")
    times = np.linspace(0, T, n_checks + 1)[1:]
    lo = _evolve_frames(lower0, times, p, g=g)
    hi = _evolve_frames(upper0, times, p, g=g)
    min_gap = min(float(np.min(h.values - l.values)) for l, h in zip(lo, hi))
    return OrderingReport(min_gap=min_gap, tol=tol_order, frames_checked=len(times))


NORM_FUNCS = {
    "sup": lambda h: lp_norm(h, np.inf),
    "l1": lambda h: lp_norm(h, 1),
    "grad_sup": lambda h: lp_norm(gradient_magnitude(h), np.inf),
    "grad_l1": lambda h: lp_norm(gradient_magnitude(h), 1),
    "d2_sup": lambda h: derivative_sup(h, 2),
    "d3_sup": lambda h: derivative_sup(h, 3),
}


def decay_experiment(
    h0: Field,
    p: SolveParams,
    norms: list,
    times: np.ndarray,
    window: tuple = None,
) -> list:
    """Evolve h0, record the requested norms on the time grid, fit log-log slopes.

    The fit window defaults to the full grid; pass (t_lo, t_hi) to restrict to
    the asymptotic regime.
    """
    for nm in norms:
        if nm not in NORM_FUNCS:
            raise KeyError(f"unknown norm {nm!r}; choose from {sorted(NORM_FUNCS)}")
    times = np.asarray(sorted(times), dtype=float)
    fields = _evolve_frames(h0, times, p)
    records = {nm: np.array([NORM_FUNCS[nm](f) for f in fields]) for nm in norms}
    if window is None:
        window = (times.min(), times.max())
    sel = (times >= window[0]) & (times <= window[1])
    fits = []
    for nm in norms:
        tv, vv = times[sel], records[nm][sel]
        keep = vv > 0
        tv, vv = tv[keep], vv[keep]
        logs_t, logs_v = np.log(tv), np.log(vv)
        slope, intercept = np.polyfit(logs_t, logs_v, 1)
        resid = float(np.sqrt(np.mean((logs_v - (slope * logs_t + intercept)) ** 2)))
        fits.append(
            DecayFit(
                label=nm, window=window, slope=float(slope), intercept=float(intercept),
                residual=resid, times=tv, values=vv,
            )
        )
    return fits


def subsolution_residual(
    traj_u: SpaceTimeField, traj_v: SpaceTimeField, lam: float, nu: float, mu: float
) -> float:
    """Max over interior frames/sites of (d/dt - nu Lap) exp(c (U - mu V)).

    c = lam / (nu (1 - mu)); for solutions of the same homogeneous equation
    this combination is a sub-solution of the heat equation, so the residual
    should be non-positive up to finite-difference error in time.
    """
    if traj_u.spec != traj_v.spec or traj_u.n_frames != traj_v.n_frames:
        raise ValueError("trajectories must share grid and frame count")
    c = lam / (nu * (1 - mu))
    spec, dt = traj_u.spec, traj_u.dt
    ksq = ksq_array(spec)
    W = [
        _checked_exp(c * (u.values - mu * v.values), "subsolution combination")
        for u, v in zip(traj_u.frames, traj_v.frames)
    ]
    worst = -np.inf
    for k in range(1, len(W) - 1):
        dWdt = (W[k + 1] - W[k - 1]) / (2 * dt)
        lap = _irfftn(-ksq * _rfftn(W[k], spec), spec)
        worst = max(worst, float(np.max(dWdt - nu * lap)))
    return worst
