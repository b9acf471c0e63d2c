"""Solution procedures for the viscous Hamilton-Jacobi growth equation.

Three routes to a solution of  dh/dt = nu Lap h + lam V(|grad h|) (+ forcing):

* exact Cole-Hopf for the quadratic rate (the quadratic branch of evolve),
* Picard iteration on the Duhamel integral form (mild solutions),
* damped Lie-Trotter splitting for the infra-red cutoff forced equation.

Plus the explicit decaying-bump oracle and log-log decay-rate experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from .deposition import DepositionRate
from .grid import (
    BadArgumentError,
    DimensionMismatchError,
    Field,
    GridSpec,
    InsufficientHistoryError,
    NumericalRangeError,
    SpaceTimeField,
    _dealias_mask,
    _irfftn,
    _rfft_wavenumbers,
    _rfftn,
    _SquaredDerivatives,
    check_positive,
    check_scale,
    check_times,
    covering_steps,
    frame_steps,
    gradient_magnitude,
    ksq_array,
    lp_norm,
    periodic_distance_sq,
)
from .heat import _blocks, _heat_multipliers

EXP_ARG_LIMIT = 700.0  # largest exponent that float64 represents


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
        check_positive("lam", self.lam)
        check_positive("dt", self.dt)
        check_positive("nu", self.nu)
        if not (self.D >= 0):
            raise BadArgumentError(f"noise strength D must be nonnegative, got {self.D}")
        if self.cutoff is not None:
            check_scale(*self.cutoff)


class SlabAttempt(NamedTuple):
    """One slab attempt of a mild solve; only converged tells a failure from a pass on the last allowed sweep."""

    steps: int  # frame steps of the slab
    substeps: int  # sub-steps per frame step, 1 when the step is not split
    sweeps: tuple  # Picard sweeps per slab run, up to the first that failed; PICARD_MAX_ITER if non-finite
    c_slab: float
    converged: bool


@dataclass
class Trajectory:
    """A mild solve: its frames, whether it reached the end time, and one SlabAttempt per slab attempt."""

    field: SpaceTimeField
    converged: bool
    attempts: tuple

    @property
    def frames(self):
        return self.field.frames

    def converged_field(self, t0: float = 0.0) -> SpaceTimeField:
        """The field, or NumericalRangeError where a mild solve started at time t0 stopped short."""
        if not self.converged:
            raise NumericalRangeError(
                f"mild evolution failed to converge at t = {t0 + self.field.t_end():.6g}: "
                f"the last of {len(self.attempts)} slab attempts was {self.attempts[-1]}"
            )
        return self.field


@dataclass
class DecayFit:
    """Log-log slope of one norm over its time grid."""

    label: str
    slope: float
    intercept: float
    residual: float
    times: np.ndarray
    values: np.ndarray


# --- exact Cole-Hopf route --------------------------------------------------


def _checked_exp(arg: np.ndarray, context: str) -> np.ndarray:
    m = float(np.max(arg))
    if m > EXP_ARG_LIMIT:
        raise NumericalRangeError(
            f"{context}: exponent sup {m:.3g} exceeds float64 range"
        )
    return np.exp(arg)


def _cole_hopf_frames(h0: Field, times, p: SolveParams):
    """(nu/lam) log( exp(t nu Lap) exp((lam/nu) h0) ) for each t > 0 in times: evolve's quadratic branch.

    Computed in shifted form around max h0, which leaves the result exactly
    invariant (the semigroup is linear and positive) while keeping the
    exponentials representable.  The shifted exponential is transformed
    once, when the first frame is asked for, and each heat._blocks block of
    times is one batched inverse transform, made when its first frame is
    asked for, whose log is taken in place.
    """
    spec, a = h0.spec, p.lam / p.nu
    m = float(np.max(h0.values))
    w_hat = _rfftn(np.exp(a * (h0.values - m)), spec)
    for i, j in _blocks(spec, range(len(times))):
        # the product is a temporary, so the inverse runs in place on it
        vals = _irfftn(w_hat * _heat_multipliers(spec, [p.nu * t for t in times[i:j]]), spec,
                       out=np.empty((j - i,) + spec.shape))
        if np.min(vals) <= 0:
            raise NumericalRangeError(
                f"the heat-evolved exponential exp((lam/nu) h) turned non-positive: the grid "
                f"(N = {spec.N}, dx = {spec.dx:.3g}) under-resolves it"
            )
        np.log(vals, out=vals)
        vals /= a
        vals += m
        yield from (Field(spec, v) for v in vals)
        del vals  # a consumer that let the frames go frees them before the next block


# --- explicit bump oracle ---------------------------------------------------


def bump_reference(A: float, L: float, t: float, x, d: int):
    """Closed-form decaying-bump profile.

        h(t, x) = log( 1 + (e^A - 1) (2 pi t)^{-d/2} int_{|y|<=L} exp(-(x-y)^2 / 2t) dy )

    The kernel here is the fixed module convention exp(-r^2/4 nu t)/(4 pi nu t)^{d/2}
    at nu = 1/2, so the profile is the exact solution of
    dh/dt = (1/2) Lap h + (1/2)|grad h|^2 with initial bump A 1_{|x|<=L}, and
    comparisons against the spectral solvers use nu = lam = 1/2 with no
    amplitude remapping.  x is the radial coordinate |x|; vector input is
    mapped elementwise.  The heat-kernel mass of the ball is P[|x + sqrt(t) Z| <= L]
    for a standard normal Z in R^d, the non-central chi-square CDF with d
    degrees of freedom and non-centrality |x|^2 / t, evaluated at L^2 / t.
    """
    if t <= 0:
        raise BadArgumentError("bump_reference needs t > 0")
    if not L > 0:
        raise BadArgumentError(f"bump_reference needs L > 0, got {L}")
    if A > EXP_ARG_LIMIT:
        raise NumericalRangeError(f"bump height A = {A:.3g} exceeds float64 range")
    xs = np.asarray(x, dtype=float)
    out = np.log1p(math.expm1(A) * special.chndtr(L * L / t, d, xs * xs / t))
    return out if np.ndim(x) else float(out)


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


def _nonlinear_spectra(S: np.ndarray, spec: GridSpec, rate: DepositionRate) -> np.ndarray:
    """Spectra of V(|grad h|) for a stack of frames with spectra S, dealiased by the 2/3 rule."""
    grad = [_irfftn(1j * kd * S, spec) for kd in _rfft_wavenumbers(spec)[2]]
    V = np.asarray(rate.eval(np.sqrt(sum(g**2 for g in grad))))
    if not np.isfinite(V).all():
        raise NumericalRangeError("Picard slab contains non-finite values")
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
    E = _heat_multipliers(spec, [p.nu * p.dt])[0]
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


def _slab_attempt(h_start: Field, n_s: int, m: int, p: SolveParams, tol: float):
    """One slab of n_s steps from h_start, or with m > 1 one frame step as m one-step slabs of p.dt / m.

    Returns (the slab's frames, of which a split step keeps only the end
    frame, converged, sweeps per slab).  A slab that turns non-finite has
    failed, with PICARD_MAX_ITER sweeps, and without a floating-point warning.
    """
    q, h, sweeps = replace(p, dt=p.dt / m), h_start, []
    for _ in range(m):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                slab, conv, it = _slab_picard(h, n_s, q, tol)
        except NumericalRangeError:
            slab, conv, it = None, False, PICARD_MAX_ITER
        sweeps.append(it)
        if not conv:
            break
        h = Field(h.spec, slab[-1])
    return slab, conv, sweeps


def mild_solve(h0: Field, T: float, p: SolveParams, tol: float = 1e-8) -> Trajectory:
    """Picard iteration of the integral form on contraction-sized time slabs.

    Each slab has length t_slab ~ c_slab / (lam ||grad h||_inf)^2, rounded
    down to the frame grid but at least one step; c_slab starts at C_SLAB
    and is halved, up to MAX_HALVINGS times per slab, when a slab fails to
    contract.  Once a one-step slab has failed, the frame step is split into
    covering_steps(dt, t_slab) equal sub-steps, first at the same c_slab, and
    only its end frame is kept.  Each attempt is one SlabAttempt.  On
    persistent failure the partial trajectory is returned with converged=False.
    """
    spec, dt = h0.spec, p.dt
    n_total = frame_steps(T, dt)
    frames, attempts, cs = [h0], [], C_SLAB
    while len(frames) <= n_total:
        h_start = frames[-1]
        lg2 = (p.lam * lp_norm(gradient_magnitude(h_start), np.inf)) ** 2
        halved, split = 0, False
        while True:
            t_slab = cs / lg2 if lg2 > 0 else math.inf
            n_s = max(1, int(min(n_total + 1 - len(frames), SLAB_MAX_STEPS, t_slab / dt)))
            m = max(1, covering_steps(dt, t_slab)) if split else 1
            slab, conv, sweeps = _slab_attempt(h_start, n_s, m, p, tol)
            attempts.append(SlabAttempt(n_s, m, tuple(sweeps), cs, conv))
            if conv:
                break
            if n_s == 1 and not split:  # a one-step slab failed: split the step from here on
                split = True
                if covering_steps(dt, t_slab) > 1:
                    continue  # at the same c_slab
            if halved == MAX_HALVINGS:
                break
            cs /= 2
            halved += 1
        if not conv:  # return the frames so far
            break
        frames.extend(Field(spec, v) for v in slab)
    stf = SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=0.0)
    return Trajectory(field=stf, converged=len(frames) > n_total, attempts=tuple(attempts))


def homogeneous_step(h: Field, dt_step: float, p: SolveParams) -> Field:
    """The homogeneous nonlinear flow over dt_step: evolve with four internal steps."""
    return next(evolve(h, [dt_step], replace(p, dt=dt_step / 4))) if dt_step else h


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
    for k in np.flatnonzero(w > 0):  # only the frames whose cell meets the slab, in time order
        acc += w[k] * g.frames[k].values
    return acc


def trotter_solve(
    psi0: Field,
    g: SpaceTimeField,
    T: float,
    n: int,
    p: SolveParams,
) -> SpaceTimeField:
    """Damped splitting for the scale-j cutoff equation with forcing g.

    Per step: accumulate the slab forcing integral (times sqrt(D)), apply the
    homogeneous flow over T/n, then damp by exp(-M^{-j} T/n).  Returns all
    n + 1 splitting iterates.
    """
    if p.cutoff is None:
        raise BadArgumentError("trotter_solve needs cutoff = (M, j) in SolveParams")
    if n < 1:
        raise BadArgumentError(f"trotter_solve needs n >= 1 steps, got {n}")
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
    return SpaceTimeField(spec=psi0.spec, dt=slab, frames=tuple(frames), t0=0.0)


# --- ordering and decay experiments ------------------------------------------


@dataclass
class OrderingReport:
    min_gap: float  # smallest upper - lower over all sites and times
    # largest growth of sup|h| over its initial value, on either side: the
    # maximum principle, since constants solve the equation when V(0) = 0
    sup_excess: float

    @property
    def passed(self) -> bool:  # the ordering only
        return self.min_gap >= -1e-8


def evolve(h0: Field, times, p: SolveParams):
    """Iterator over the unforced fields started at h0, at each of times, in order.

    Exact Cole-Hopf for the quadratic rate; otherwise one mild solve per
    interval between consecutive times, in equal steps of at most p.dt, at
    Picard tolerance 1e-10; a gap shorter than p.dt is one step.  A time
    below the one before restarts from h0, and t = 0 gives h0 itself.  A
    negative or non-finite time, and for Cole-Hopf an oscillation of h0
    beyond float64 range, raise here, before any transform.
    """
    times = check_times(times).tolist()
    if not p.rate.quadratic:
        return _mild_intervals(h0, times, p)
    a, m = p.lam / p.nu, float(np.max(h0.values))
    osc = m - float(np.min(h0.values))
    if a * osc > EXP_ARG_LIMIT:
        raise NumericalRangeError(f"lam/nu * osc(h0) = {a * osc:.3g} exceeds float64 range (sup {m:.3g})")
    moving = _cole_hopf_frames(h0, [t for t in times if t != 0], p)
    return (h0 if t == 0 else next(moving) for t in times)


def _mild_intervals(h0: Field, times, p: SolveParams):
    h, t_prev = h0, 0.0
    for t in times:
        if t < t_prev:
            h, t_prev = h0, 0.0
        if t > t_prev:
            gap = t - t_prev
            traj = mild_solve(h, gap, replace(p, dt=gap / max(1, covering_steps(gap, p.dt))), tol=1e-10)
            h, t_prev = traj.converged_field(t_prev).frames[-1], t
        yield h


def check_comparison(lower0: Field, upper0: Field, times, p: SolveParams) -> OrderingReport:
    """Evolve an ordered pair with the same unforced scheme to each of times; report gap and sup growth."""
    if np.any(lower0.values > upper0.values + 1e-12):
        raise BadArgumentError("lower0 must lie below upper0 pointwise")
    s_lo, s_up = lp_norm(lower0, np.inf), lp_norm(upper0, np.inf)
    min_gap, sup_excess = np.inf, -np.inf
    for lo, up in zip(evolve(lower0, times, p), evolve(upper0, times, p)):
        min_gap = min(min_gap, float(np.min(up.values - lo.values)))
        sup_excess = max(sup_excess, lp_norm(lo, np.inf) - s_lo, lp_norm(up, np.inf) - s_up)
    return OrderingReport(min_gap=min_gap, sup_excess=sup_excess)


NORMS = ("sup", "l1", "grad_sup", "grad_l1", "d2_sup", "d3_sup")
_DERIVATIVE_ORDER = {"grad_sup": 1, "grad_l1": 1, "d2_sup": 2, "d3_sup": 3}


def frame_norms(frames, norms) -> list:
    """The named norms (names from NORMS) of each frame of a sequence: one row per frame, in order.

    Frames are read one at a time and let go before the next is asked for,
    so an iterator of frames is never held whole.  Every derivative norm of a
    frame reads one forward transform of it; all derivative components of all
    frames go through one set of work arrays (grid._SquaredDerivatives), and
    grad_sup and grad_l1 share one squared gradient magnitude.  Each sup is
    sqrt(max(sum of squares)).
    """
    for nm in norms:
        if nm not in NORMS:
            raise BadArgumentError(f"unknown norm {nm!r}; choose from {sorted(NORMS)}")
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
    times = np.asarray(sorted(times), dtype=float)
    records = np.array(frame_norms(evolve(h0, times, p), norms)).reshape(len(times), len(norms))
    fits = []
    for i, nm in enumerate(norms):
        keep = records[:, i] > 0
        tv, vv = times[keep], records[keep, i]
        # checked before the fit: a norm that vanishes leaves no window to fit
        if len(tv) < 5:
            raise BadArgumentError(f"decay window needs >= 5 sample times with {nm} > 0, got {len(tv)}")
        if tv.max() / tv.min() < 10.0:
            raise BadArgumentError("decay window must span at least one decade")
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
        raise DimensionMismatchError("trajectories must share grid and frame count")
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
