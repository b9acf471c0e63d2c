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
from itertools import chain
from typing import Optional

import numpy as np
from scipy import integrate, special

from .deposition import DepositionRate
from .grid import (
    Field,
    GridSpec,
    OverflowInExponentialError,
    SpaceTimeField,
    _dealias_mask,
    _irfftn,
    _rfft_wavenumbers,
    _rfftn,
    _SquaredDerivatives,
    gradient_magnitude,
    ksq_array,
    lp_norm,
    periodic_distance_sq,
)
from .heat import (
    HeatParams,
    InsufficientHistoryError,
    NegativeTimeError,
    _frame_block,
    _heat_multiplier,
    _heat_multipliers,
)

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
    """Time-sampled solution; mild solves add Picard sweeps per slab attempt, halvings and final c_slab."""

    field: SpaceTimeField
    converged: bool = True
    picard_iterations: tuple = ()
    halvings: int = 0
    c_slab: Optional[float] = None

    @property
    def frames(self):
        return self.field.frames

    def times(self):
        return self.field.times()


@dataclass
class DecayFit:
    """Log-log slope of one norm over its time grid."""

    label: str
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


def cole_hopf_frames(h0: Field, times, p: SolveParams):
    """(nu/lam) log( exp(t nu Lap) exp((lam/nu) h0) ) for each t in times, the exact quadratic solver.

    Computed in shifted form around max h0, which leaves the result exactly
    invariant (the semigroup is linear and positive) while keeping the
    exponentials representable.  Returns an iterator over the frames, in the
    order of times; the rate, oscillation and time checks raise here, before
    any transform.  The shifted exponential w is transformed once (only if
    some t != 0), and each block of _frame_block nonzero times is one batched
    inverse transform, made when its first frame is asked for, whose log is
    taken in place; t = 0 gives log(w) directly.
    """
    if not p.rate.quadratic:
        raise RateNotQuadraticError(
            f"Cole-Hopf requires the quadratic rate, got {p.rate.label!r}"
        )
    spec = h0.spec
    a = p.lam / p.nu
    m = float(np.max(h0.values))
    osc = m - float(np.min(h0.values))
    if a * osc > EXP_ARG_LIMIT:
        raise OverflowInExponentialError(
            f"lam/nu * osc(h0) = {a * osc:.3g} exceeds float64 range (sup {m:.3g})"
        )
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise NegativeTimeError(f"negative evolution time {t}")
    w = np.exp(a * (h0.values - m))
    return _cole_hopf_stream(w, spec, a, m, times, p.nu)


def _cole_hopf_stream(w, spec, a, m, times, nu):
    """The frames of cole_hopf_frames, one block of nonzero times at a time.

    No name here holds a frame once it is handed out, so a consumer that lets
    it go frees it before the next block is inverted.
    """
    moving = [t for t in times if t != 0]
    w_hat = _rfftn(w, spec) if moving else None
    step = _frame_block(spec)
    heat_evolved = chain.from_iterable(
        _irfftn(w_hat * _heat_multipliers(spec, [nu * t for t in moving[c : c + step]]), spec)
        for c in range(0, len(moving), step)
    )
    for t in times:
        yield _log_frame(np.array(w) if t == 0 else next(heat_evolved), spec, a, m)


def _log_frame(vals, spec, a, m):
    """The frame log(vals) / a + m, computed in place on vals."""
    if np.min(vals) <= 0:
        raise OverflowInExponentialError(
            "heat-evolved exponential underflowed to a non-positive value"
        )
    np.log(vals, out=vals)
    vals /= a
    vals += m
    return Field(spec, vals)


def cole_hopf_solve(h0: Field, t: float, p: SolveParams) -> Field:
    """cole_hopf_frames at the single time t."""
    return next(cole_hopf_frames(h0, [t], p))


# --- explicit bump oracle ---------------------------------------------------


def _ball_kernel_integral(x: float, L: float, t: float, d: int) -> float:
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

    val, _ = integrate.quad(f, u_lo, u_hi, points=pts, epsabs=1e-10, epsrel=1e-12, limit=400)
    return val


def bump_reference(A: float, L: float, t: float, x, d: int):
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
        I = _ball_kernel_integral(xi, L, t, d)
        out[i] = math.log1p(amp * norm * I)
    return out if np.ndim(x) else float(out[0])


BUMP_ORACLE_NU = 0.5
BUMP_ORACLE_LAM = 0.5


def bump_oracle_field(spec: GridSpec, A: float, L: float, t: float) -> Field:
    """bump_reference sampled on the grid, centered at the box center."""
    r = np.sqrt(periodic_distance_sq(spec))
    rflat, inv = np.unique(np.round(r.ravel(), 12), return_inverse=True)
    vals = bump_reference(A, L, t, rflat, spec.d)
    return Field(spec, np.asarray(vals)[inv].reshape(spec.shape))


# --- mild solutions ---------------------------------------------------------


PICARD_MAX_ITER = 60  # Picard sweeps per slab attempt
C_SLAB = 0.1  # first slab length, in units of (lam ||grad h||_inf)^-2
MAX_HALVINGS = 6  # halvings of c_slab allowed per slab before giving up
SLAB_MAX_STEPS = 64


def step_count(T: float, dt: float) -> int:
    """Number of dt steps in T; T must be a multiple of dt."""
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, dt):
        raise ValueError("T must be a multiple of dt")
    return n


def _nonlinear_spectra(S: np.ndarray, spec: GridSpec, rate: DepositionRate) -> np.ndarray:
    """Spectra of V(|grad h|) for a stack of frames with spectra S, dealiased by the 2/3 rule."""
    grad = [_irfftn(1j * kd * S, spec) for kd in _rfft_wavenumbers(spec)[2]]
    V = np.asarray(rate.eval(np.sqrt(sum(g**2 for g in grad))))
    if not np.isfinite(V).all():
        raise ValueError("Picard slab contains non-finite values")
    return _rfftn(V, spec) * _dealias_mask(spec)


def _duhamel(h_hat: np.ndarray, N: np.ndarray, E: np.ndarray, c: float) -> np.ndarray:
    """Spectra of h_hat evolved over each step of the slab plus the trapezoid Duhamel sum of N.

    One recurrence (an integrating factor, as in exponential time differencing):
    G_0 = h_hat + (c/2) N_0, G_i = E G_{i-1} + c N_i, and step i is G_i - (c/2) N_i.
    """
    S = np.empty_like(N)
    S[0] = h_hat
    G = h_hat + (c / 2) * N[0]
    for i in range(1, len(N)):
        G = E * G + c * N[i]
        S[i] = G - (c / 2) * N[i]
    return S


def _slab_picard(h_start: Field, n_s: int, p: SolveParams, tol: float):
    """Picard iteration for the Duhamel form on one slab of n_s steps.

    The slab is one (n_s + 1, N, ...) array of spectra; its first iterate is
    the heat flow of h_start.  Slot 0, the slab start, is the same in every
    sweep, so its nonlinear term is computed once, and each sweep takes the
    nonlinear term of slots 1 .. n_s from the spectra the previous sweep's
    Duhamel recurrence produced: n_s (d + 2) slice transforms per sweep.
    Returns (frames h_1..h_{n_s} as one array, converged, sweeps).
    """
    spec, c = h_start.spec, p.lam * p.dt
    E = _heat_multiplier(spec, p.nu * p.dt)
    h_hat = _rfftn(h_start.values, spec)
    S = _duhamel(h_hat, np.zeros((n_s + 1,) + h_hat.shape, complex), E, c)
    N = _nonlinear_spectra(S, spec, p.rate)
    H = _irfftn(S[1:], spec)
    for it in range(1, PICARD_MAX_ITER + 1):
        if it > 1:
            N[1:] = _nonlinear_spectra(S, spec, p.rate)
        S = _duhamel(h_hat, N, E, c)[1:]
        H_new = _irfftn(S, spec)
        diff = float(np.max(np.abs(H_new - H)))
        H = H_new
        if diff < tol:
            return H, True, it
    return H, False, PICARD_MAX_ITER


def mild_solve(h0: Field, T: float, p: SolveParams, tol: float = 1e-8) -> Trajectory:
    """Picard iteration of the integral form on contraction-sized time slabs.

    Each slab has length ~ c_slab / (lam ||grad h||_inf)^2, rounded to the
    frame grid; c_slab starts at C_SLAB and is halved, up to MAX_HALVINGS
    times per slab, when a slab fails to contract.  On persistent failure the
    partial trajectory is returned with converged=False.
    """
    spec, dt = h0.spec, p.dt
    n_total = step_count(T, dt)
    frames, iterations = [h0], []
    cs, halvings = C_SLAB, 0
    while len(frames) <= n_total:
        h_start = frames[-1]
        lg2 = (p.lam * lp_norm(gradient_magnitude(h_start), np.inf)) ** 2
        for attempt in range(MAX_HALVINGS + 1):
            if attempt:
                cs /= 2
                halvings += 1
            t_slab = cs / lg2 if lg2 > 0 else math.inf
            n_s = max(1, int(min(n_total + 1 - len(frames), SLAB_MAX_STEPS, t_slab / dt)))
            slab, conv, it = _slab_picard(h_start, n_s, p, tol)
            iterations.append(it)
            if conv:
                break
        else:  # no attempt converged: return the frames so far
            break
        frames.extend(Field(spec, v) for v in slab)
    stf = SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=0.0)
    return Trajectory(
        field=stf, converged=len(frames) > n_total,
        picard_iterations=tuple(iterations), halvings=halvings, c_slab=cs,
    )


def homogeneous_step(h: Field, dt_step: float, p: SolveParams) -> Field:
    """One application of the homogeneous nonlinear flow over dt_step.

    Exact Cole-Hopf for the quadratic rate; otherwise a mild sub-solve with
    four internal steps.
    """
    if dt_step == 0:
        return h
    if p.rate.quadratic:
        return cole_hopf_solve(h, dt_step, p)
    traj = mild_solve(h, dt_step, replace(p, dt=dt_step / 4), tol=1e-10)
    if not traj.converged:
        raise RuntimeError(
            f"homogeneous step failed to converge at t = {traj.field.t_end():.6g}: {traj.halvings} halvings "
            f"to c_slab {traj.c_slab:.3g}, Picard sweeps per attempt {list(traj.picard_iterations)}"
        )
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
        psi = homogeneous_step(psi, slab, p)
        psi = Field(psi.spec, damp * psi.values)
        frames.append(psi)
    stf = SpaceTimeField(spec=psi0.spec, dt=slab, frames=tuple(frames), t0=0.0)
    return Trajectory(field=stf)


# --- ordering and decay experiments ------------------------------------------


@dataclass
class OrderingReport:
    min_gap: float

    @property
    def passed(self) -> bool:
        return self.min_gap >= -1e-8


def _evolve_frames(h0: Field, times, p: SolveParams, g=None):
    """Fields at the requested times, scheme chosen by rate/forcing.

    The quadratic rate without forcing yields them one at a time, as
    cole_hopf_frames produces them; the other schemes return a list.
    """
    if g is None and p.rate.quadratic:
        moving = cole_hopf_frames(h0, [t for t in times if t != 0], p)
        return (h0 if t == 0 else next(moving) for t in times)
    T = float(max(times))
    n = int(round(T / p.dt))
    traj = trotter_solve(h0, g, T, n, p) if g is not None else mild_solve(h0, n * p.dt, p)
    return [traj.frames[traj.field.frame_index(t)] for t in times]


def check_comparison(
    lower0: Field, upper0: Field, T: float, p: SolveParams, g: SpaceTimeField = None
) -> OrderingReport:
    """Evolve an ordered pair with the same scheme and forcing; report the min gap over 8 times."""
    if np.any(lower0.values > upper0.values + 1e-12):
        raise ValueError("lower0 must lie below upper0 pointwise")
    times = np.linspace(0, T, 9)[1:]
    lo = _evolve_frames(lower0, times, p, g=g)
    hi = _evolve_frames(upper0, times, p, g=g)
    min_gap = min(float(np.min(h.values - l.values)) for l, h in zip(lo, hi))
    return OrderingReport(min_gap=min_gap)


NORMS = ("sup", "l1", "grad_sup", "grad_l1", "d2_sup", "d3_sup")
_DERIVATIVE_ORDER = {"grad_sup": 1, "grad_l1": 1, "d2_sup": 2, "d3_sup": 3}


def _check_norms(norms):
    for nm in norms:
        if nm not in NORMS:
            raise KeyError(f"unknown norm {nm!r}; choose from {sorted(NORMS)}")


def frame_norms(frames, norms) -> list:
    """The named norms (names from NORMS) of each frame of a sequence: one row per frame, in order.

    Frames are read one at a time and let go before the next is asked for,
    so an iterator of frames is never held whole.  Every derivative norm of a
    frame reads one forward transform of it; all derivative components of all
    frames go through one set of work arrays (grid._SquaredDerivatives), and
    grad_sup and grad_l1 share one squared gradient magnitude.  Each sup is
    sqrt(max(sum of squares)).
    """
    _check_norms(norms)
    orders = sorted({_DERIVATIVE_ORDER[nm] for nm in norms if nm in _DERIVATIVE_ORDER})
    squared = _SquaredDerivatives(orders)

    def row(h):
        vals = {}
        if "sup" in norms:
            vals["sup"] = lp_norm(h, np.inf)
        if "l1" in norms:
            vals["l1"] = lp_norm(h, 1)
        fhat = _rfftn(h.values, h.spec) if orders else None
        for k in orders:
            squares = squared(fhat, h.spec, k)
            sup = float(np.sqrt(np.max(squares)))
            if k > 1:
                vals[f"d{k}_sup"] = sup
                continue
            vals["grad_sup"] = sup
            if "grad_l1" in norms:  # lp_norm(., 1) of the gradient magnitude, in place
                vals["grad_l1"] = float(np.sum(np.sqrt(squares, out=squares)) * h.spec.dx**h.spec.d)
        return [vals[nm] for nm in norms]

    return list(map(row, frames))


def decay_experiment(h0: Field, p: SolveParams, norms: list, times: np.ndarray) -> list:
    """Evolve h0, record the requested norms on the time grid, fit log-log slopes over the whole grid."""
    _check_norms(norms)
    times = np.asarray(sorted(times), dtype=float)
    records = np.array(frame_norms(_evolve_frames(h0, times, p), norms)).reshape(len(times), len(norms))
    fits = []
    for i, nm in enumerate(norms):
        keep = records[:, i] > 0
        tv, vv = times[keep], records[keep, i]
        logs_t, logs_v = np.log(tv), np.log(vv)
        slope, intercept = np.polyfit(logs_t, logs_v, 1)
        resid = float(np.sqrt(np.mean((logs_v - (slope * logs_t + intercept)) ** 2)))
        fits.append(
            DecayFit(
                label=nm, slope=float(slope), intercept=float(intercept),
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
