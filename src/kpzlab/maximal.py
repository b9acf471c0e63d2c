"""Heat-maximal and ball-average maximal functions, and pointwise quasi-norms.

The continuous suprema over the smoothing time tau, the ball radius rho, the
sub-interval length and the shift are all replaced by documented geometric
grids (neighbor ratio <= 1.2) plus endpoints.  Grid suprema are lower bounds
of the true suprema, so every upper-bound invariant stated for the true
objects remains valid for the computed ones.

Exponentials are evaluated in shifted form around max|f|; the heat operator
is linear and positive, so the shift leaves log-of-smoothed-exponential
quantities exactly invariant while avoiding overflow.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .grid import (
    BadArgumentError,
    Field,
    GridSpec,
    InsufficientHistoryError,
    NumericalRangeError,
    SpaceTimeField,
    _irfftn,
    _rfftn,
    check_positive,
    check_scale,
    check_times,
    periodic_distance_sq,
)
from .heat import _blocks, _frame_spectra, _heat_multipliers

GRID_RATIO = 1.2


def geometric_grid(lo: float, hi: float) -> np.ndarray:
    """Geometric grid from lo to hi with neighbor ratio at most GRID_RATIO."""
    if not (0 < lo < hi):
        raise BadArgumentError("need 0 < lo < hi")
    n = int(np.ceil(np.log(hi / lo) / np.log(GRID_RATIO))) + 1
    return np.geomspace(lo, hi, max(n, 2))


def default_tau_grid(spec: GridSpec) -> np.ndarray:
    """Smoothing times from sub-cell scale to box scale (full-torus sup)."""
    return geometric_grid(0.25 * spec.dx**2, spec.L_box**2)


def default_rho_grid(spec: GridSpec) -> np.ndarray:
    return geometric_grid(spec.dx, spec.L_box / 2 * (1 - 1e-9))


def _sweep_sup(spec: GridSpec, values: np.ndarray, mults_of, weights) -> np.ndarray:
    """max(values, sup_i weights[i] * (multiplier i applied to values)) per site.

    The one maximal sweep: values itself is the scale -> 0 endpoint, and it
    is transformed once.  mults_of(a, b) stacks the multipliers of scales
    a .. b-1; each heat._blocks block of scales is one batched inverse
    transform, weighted and folded into the running max (exact in any order).
    """
    best = values.copy()
    fhat = _rfftn(values, spec)
    weights = np.asarray(weights, dtype=float)
    for a, b in _blocks(spec, range(len(weights))):
        block = _irfftn(fhat * mults_of(a, b), spec)
        block *= weights[a:b].reshape((-1,) + (1,) * spec.d)
        np.maximum(best, block.max(axis=0), out=best)
    return best


def star_maximal(f: Field, alpha: float, tau_grid: np.ndarray = None) -> Field:
    """sup over tau of (1 + tau)^alpha exp(tau Lap)|f|, with the tau -> 0 endpoint."""
    if tau_grid is None:
        tau_grid = default_tau_grid(f.spec)
    taus = check_times(tau_grid)
    weights = [(1.0 + tau) ** alpha for tau in tau_grid]
    best = _sweep_sup(f.spec, np.abs(f.values), lambda a, b: _heat_multipliers(f.spec, taus[a:b]), weights)
    return Field(f.spec, best)


@lru_cache(maxsize=16)
def _ball_kernels(spec: GridSpec, rho_key: tuple) -> np.ndarray:
    """rfftn transforms of normalized periodic-ball indicators, stacked one per rho."""
    rsq = periodic_distance_sq(spec)

    def balls(a, b):
        masks = np.stack([(rsq <= rho * rho).astype(float) for rho in rho_key[a:b]])
        counts = masks.sum(axis=tuple(range(1, spec.d + 1))).reshape((-1,) + (1,) * spec.d)
        # roll so the ball is centered at the origin site; convolution then
        # averages over B(x, rho)
        return np.roll(masks, shift=[-(spec.N // 2)] * spec.d, axis=range(1, spec.d + 1)) / counts

    kernels = _frame_spectra(spec, len(rho_key), balls)
    kernels.setflags(write=False)
    return kernels


def sharp_maximal(f: Field, alpha: float, rho_grid: np.ndarray = None) -> Field:
    """sup over rho of (1 + rho^2)^alpha times the periodic-ball average of |f|."""
    if rho_grid is None:
        rho_grid = default_rho_grid(f.spec)
    spec = f.spec
    weights = [(1.0 + rho * rho) ** alpha for rho in rho_grid]
    kernels = _ball_kernels(spec, tuple(np.round(rho_grid, 14)))
    return Field(spec, _sweep_sup(spec, np.abs(f.values), lambda a, b: kernels[a:b], weights))


def equivalence_constants(f: Field, alpha: float):
    """Empirical (min, max) over sites of sharp/star where both exceed 1e-12."""
    st = star_maximal(f, alpha).values
    sh = sharp_maximal(f, alpha).values
    sel = (st > 1e-12) & (sh > 1e-12)
    if not sel.any():
        raise BadArgumentError("no sites above the floor; field is numerically zero")
    ratio = sh[sel] / st[sel]
    return float(ratio.min()), float(ratio.max())


def log_star_exp(g: Field, tau_grid: np.ndarray = None) -> Field:
    """log of (e^{g})^*, computed stably as a shifted star maximal.

    Exact identity: exp(tau Lap) e^{g} = e^{m} exp(tau Lap) e^{g - m}, so the
    log of the supremum shifts by m = max g.
    """
    m = float(np.max(g.values))
    best = star_maximal(Field(g.spec, np.exp(g.values - m)), 0.0, tau_grid).values
    # smoothing a positive field keeps it positive; guard anyway before log
    return Field(g.spec, np.log(np.maximum(best, 1e-300)) + m)


def h_lambda_norm(f: Field, lam: float) -> Field:
    """Pointwise quasi-norm (1/lam) log (e^{lam |f|})^*."""
    check_positive("lam", lam)
    return Field(f.spec, log_star_exp(Field(f.spec, lam * np.abs(f.values))).values / lam)


def default_shift_set(spec: GridSpec) -> tuple:
    """Axis-aligned lattice shifts of 1, 2, 4, ... cells with length <= 1."""
    shifts = []
    for ax in range(spec.d):
        n = 1
        while n * spec.dx <= 1.0 and n < spec.N // 2:
            cells = [0] * spec.d
            cells[ax] = n
            shifts.append(tuple(cells))
            n *= 2
    if not shifts:
        raise BadArgumentError("grid spacing exceeds the unit shift window")
    return tuple(shifts)


def _difference_quotient(values: np.ndarray, cells: tuple, dx: float, out=None) -> np.ndarray:
    """(v(. + eps) - v) / |eps| for the lattice shift eps = cells * dx, over the trailing axes."""
    eps = float(np.sqrt(sum(c * c for c in cells))) * dx
    rolled = np.roll(values, shift=[-c for c in cells], axis=range(-len(cells), 0))
    return np.divide(np.subtract(rolled, values, out=out), eps, out=out)


def w1inf_lambda_norm(f: Field, lam: float, scale: Optional[tuple] = None) -> Field:
    """h_lambda_norm(f) plus the sup over the default shifts of the quasi-norm
    of the (optionally M^{j/2}-weighted, scale = (M, j)) difference quotients."""
    base = h_lambda_norm(f, lam).values
    factor = 1.0
    if scale is not None:
        M, j = scale
        check_scale(M, j)
        factor = float(M) ** (j / 2)
    shift_part = np.zeros(f.spec.shape)
    for cells in default_shift_set(f.spec):
        dq = _difference_quotient(f.values, cells, f.spec.dx)
        q = h_lambda_norm(Field(f.spec, factor * np.abs(dq)), lam)
        np.maximum(shift_part, q.values, out=shift_part)
    return Field(f.spec, base + shift_part)


def _window_averages(g: SpaceTimeField, t: float, dt: float, n_windows: int) -> np.ndarray:
    """Means of the frames with time in (t - (p + 1) dt, t - p dt], stacked for p = 0 .. n_windows - 1.

    Each window adds its frames in time order, starting from zero, then is
    divided by its count.  A window without frames (frame step > dt) raises.
    """
    edges = t - np.arange(n_windows + 1) * dt
    # window p holds the frames ends[p + 1] .. ends[p] - 1 of the ascending frame times
    ends = np.searchsorted(g.times(), edges + 1e-9 * g.dt, side="right")
    counts = ends[:-1] - ends[1:]
    if not counts.all():
        q = int(np.argmin(counts))
        raise InsufficientHistoryError(f"no frames in ({edges[q + 1]}, {edges[q]}]; frame step {g.dt} too coarse")
    sums = np.zeros((n_windows,) + g.spec.shape)
    for acc, k0, k1 in zip(sums, ends[1:], ends[:-1]):
        for f in g.frames[k0:k1]:
            acc += f.values
    sums /= counts.reshape((-1,) + (1,) * g.spec.d)
    return sums


@lru_cache(maxsize=16)
def _heat_kernels(spec: GridSpec, tau_key: tuple) -> np.ndarray:
    """Real-space kernels of exp(tau Lap) centred at site 0, one per tau."""
    kernels = _irfftn(_heat_multipliers(spec, check_times(tau_key)), spec)
    kernels.setflags(write=False)
    return kernels


def _probe_kernels(spec: GridSpec, tau_grid, probes) -> tuple:
    """Flat site index of each probe, and the (n_sites, n_probes * n_tau)
    matrix whose column (s, i) is exp(tau_i Lap) of the delta at probes[s].

    Probes index the grid as numpy does, negative indices included.
    exp(tau Lap) is self-adjoint, so a field's inner product with column
    (s, i) is the smoothed field read at probes[s].
    """
    sites = [int(np.arange(spec.n_sites).reshape(spec.shape)[tuple(q)]) for q in probes]
    kernels = _heat_kernels(spec, tuple(float(tau) for tau in tau_grid))
    axes = tuple(range(1, spec.d + 1))
    cols = [np.roll(kernels, shift=tuple(q), axis=axes).reshape(len(kernels), -1) for q in probes]
    return sites, np.concatenate(cols).T


def _log_star_exp_at(g_rows: np.ndarray, spec: GridSpec, sites: list, kernels: np.ndarray) -> np.ndarray:
    """log (e^{g})^* at the probe sites, for each row of the (rows, n_sites) array.

    The same shifted form as log_star_exp: each row is shifted by its own max,
    and the tau -> 0 endpoint is the shifted exponential itself.  g_rows is
    overwritten by the shifted exponentials (fresh arrays this large cost
    more to page in than to compute).  Rows are >= 0, so a nan or inf in a
    row shows in its max.
    """
    m = np.max(g_rows, axis=1, keepdims=True)
    if not np.isfinite(m).all():
        site = np.unravel_index(int(np.argmax(~np.isfinite(g_rows)) % spec.n_sites), spec.shape)
        raise NumericalRangeError(f"non-finite exponent at site {tuple(map(int, site))}")
    w = np.exp(np.subtract(g_rows, m, out=g_rows), out=g_rows)
    smoothed = (w @ kernels).reshape(len(w), len(sites), -1)
    best = np.maximum(w[:, sites], np.max(smoothed, axis=2))
    # smoothing a positive field keeps it positive; guard anyway before log
    return np.log(np.maximum(best, 1e-300)) + m


def forcing_quasinorm(
    g: SpaceTimeField,
    lam: float,
    M: float,
    j: int,
    t: float,
    probes: list,
    dt_grid: np.ndarray = None,
    tau_grid: np.ndarray = None,
    shift_set: tuple = None,
) -> tuple:
    """(value, gradient) scale-j forcing quasi-norms at the probe sites, in one pass.

    The value part is (1/lam) sup over dt in the grid of
        M^{-j} dt sum_p (e^{-M^{-j} dt})^p log[(e^{lam M^j |avg_p|})^*(x)]
    where avg_p averages g over the p-th trailing sub-interval of length dt.
    The gradient part applies the same sum to the difference quotients of
    avg_p along each shift of shift_set (the default set when None), with
    weight M^{3j/2} in place of M^j, and takes the sup over the shifts; it
    is -inf for an empty set.

    The heat-maximal function is read only at the probes: by self-adjointness,
    (exp(tau Lap) w)(x) is the inner product of w with the heat kernel centred
    at x.  For each dt, the sub-interval averages are one stacked array, and
    every average and shift is one row of a single matrix product against
    cached kernels; no field is transformed, and the rows of every dt share
    one buffer.
    """
    check_positive("lam", lam)
    check_scale(M, j)
    if len(probes) == 0:
        raise BadArgumentError("forcing_quasinorm needs at least one probe")
    spec = g.spec
    Mj = float(M) ** j
    eps_ir = 1.0 / Mj
    shifts = default_shift_set(spec) if shift_set is None else shift_set
    variants = ((None, Mj),) + tuple((cells, M ** (1.5 * j)) for cells in shifts)
    if dt_grid is None:
        dt_grid = geometric_grid(max(g.dt, Mj / 16), Mj)
    elapsed = t - g.t0
    if elapsed < float(np.min(dt_grid)):
        raise InsufficientHistoryError("history shorter than the smallest sub-interval")
    if tau_grid is None:
        tau_grid = default_tau_grid(spec)
    sites, kernels = _probe_kernels(spec, tau_grid, probes)
    best = np.full((len(variants), len(probes)), -np.inf)
    dts = np.asarray(dt_grid, dtype=float)
    buf = np.empty((int(np.floor(elapsed / dts.min() + 1e-9)), len(variants)) + spec.shape)
    for dt in dts:
        n_windows = int(np.floor(elapsed / dt + 1e-9))
        if n_windows < 1:
            continue
        avgs = _window_averages(g, t, dt, n_windows)
        rows = buf[:n_windows]
        for v, (cells, weight) in enumerate(variants):
            row = rows[:, v]
            stat = avgs if cells is None else _difference_quotient(avgs, cells, spec.dx, out=row)
            np.abs(stat, out=row)
            row *= lam * weight
        ls = _log_star_exp_at(rows.reshape(n_windows * len(variants), spec.n_sites), spec, sites, kernels)
        ls = ls.reshape(n_windows, len(variants), len(probes))
        total = np.zeros(best.shape)
        damp = np.exp(-eps_ir * dt)
        for p in range(n_windows):
            total += damp**p * ls[p]
        np.maximum(best, eps_ir * dt * total, out=best)
    best /= lam
    return best[0], np.max(best[1:], axis=0, initial=-np.inf)
