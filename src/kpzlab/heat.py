"""Exact heat semigroups and Green kernels on the periodic grid.

The generator is nu * Laplacian, realized as the Fourier multiplier
exp(-nu |k|^2 t).  Green kernels integrate the semigroup against a time
history, with an optional infra-red damping exp(-M^{-j} lag) per lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, SpaceTimeField, _irfftn, _rfftn, ksq_array, lp_norm, periodic_distance_sq


# Frame histories are worked through in blocks of at most MAX_BLOCK frames,
# with at most BATCH_BYTES of real frames per batched transform and
# LAG_BYTES of lag-sum accumulator (16 frames and 16 outputs at 16^3; 8 and
# 2 at 32^3; 1 and 1 at 64^3): larger blocks outgrow a 2 MiB L2 and run
# slower, and whole histories are never stacked in real space.
MAX_BLOCK = 16
BATCH_BYTES = 2 << 20
LAG_BYTES = 640 << 10


class NegativeTimeError(ValueError):
    pass


class InsufficientHistoryError(ValueError):
    pass


@dataclass(frozen=True)
class HeatParams:
    """Diffusion constant of the semigroup exp(t nu Laplacian)."""

    nu: float = 1.0

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError("nu must be positive")


@dataclass(frozen=True)
class CutoffGreen:
    """Scale-j infra-red cutoff: damping rate epsilon = M^{-j} on the Green kernel."""

    nu: float
    M: float
    j: int

    def __post_init__(self):
        if not (self.M > 1):
            raise ValueError("scale parameter M must exceed 1")
        if self.j < 0:
            raise ValueError("scale index j must be >= 0")
        if not (self.nu > 0):
            raise ValueError("nu must be positive")

    @property
    def epsilon(self) -> float:
        return float(self.M) ** (-self.j)


def _heat_multipliers(spec: GridSpec, nu_ts) -> np.ndarray:
    """Multipliers exp(-nu_t |k|^2) of the heat semigroup, stacked one per nu_t."""
    return np.exp(np.multiply.outer(-np.asarray(nu_ts, dtype=float), ksq_array(spec)))


@lru_cache(maxsize=128)
def _heat_multiplier(spec: GridSpec, nu_t: float) -> np.ndarray:
    m = _heat_multipliers(spec, [nu_t])[0]
    m.setflags(write=False)
    return m


def heat_apply(f: Field, t: float, p: HeatParams) -> Field:
    """exp(t nu Laplacian) f via the spectral multiplier; t = 0 is the identity."""
    if t < 0:
        raise NegativeTimeError(f"negative evolution time {t}")
    if t == 0:
        return f
    return Field(f.spec, _irfftn(_rfftn(f.values, f.spec) * _heat_multiplier(f.spec, p.nu * t), f.spec))


@lru_cache(maxsize=128)
def _psi_multiplier(spec: GridSpec, nu: float, dt: float, eps: float) -> np.ndarray:
    """Exact integral of exp(-(nu|k|^2 + eps)s) over s in [0, dt], per mode."""
    rate = nu * ksq_array(spec) + eps
    m = np.where(rate > 0, -np.expm1(-rate * dt) / np.where(rate > 0, rate, 1.0), dt)
    m.setflags(write=False)
    return m


def _lag_trapezoid(dt: float, n_lags: int) -> np.ndarray:
    """Trapezoid weights on the lags s = dt .. (n_lags - 1) dt of the grid 0, dt, ...

    Lag 0 gets weight 0: the first interval [0, dt] is the exact head of
    _lag_sum.  Fewer than three nodes leave an empty interval and all-zero
    weights.
    """
    w = np.zeros(n_lags)
    if n_lags >= 3:
        w[1:] = dt
        w[1] = w[-1] = dt / 2
    return w


def _block(item_bytes: int, budget: int) -> int:
    return max(1, min(MAX_BLOCK, budget // item_bytes))


def _frame_block(spec: GridSpec) -> int:
    """Frames per batched transform."""
    return _block(8 * spec.n_sites, BATCH_BYTES)


def _frame_spectra(spec: GridSpec, n: int, block_of) -> np.ndarray:
    """Transforms of frames 0 .. n-1, one batched _rfftn per _frame_block frames.

    block_of(a, b) returns real frames a .. b-1 stacked; the spectra fill a
    preallocated array, so the real frames are never stacked whole.
    """
    out = np.empty((n,) + ksq_array(spec).shape, dtype=complex)
    step = _frame_block(spec)
    for a in range(0, n, step):
        b = min(a + step, n)
        out[a:b] = _rfftn(block_of(a, b), spec)
    return out


def _history_spectra(spec: GridSpec, frames) -> np.ndarray:
    """_frame_spectra of a sequence of Fields."""
    return _frame_spectra(spec, len(frames), lambda a, b: np.stack([f.values for f in frames[a:b]]))


def _lag_sum(spec: GridSpec, dt: float, nu: float, hats: np.ndarray, a: int, b: int, weights, head) -> np.ndarray:
    """Spectra of  head * g_k + sum_l weights[l] exp(l dt nu Lap) g_{k-l}  for k = a .. b-1.

    hats[k] is the transform of frame k; head is a per-mode multiplier for
    the first interval (or None).  One pass over the lags fills a block of
    consecutive outputs from the contiguous slice hats[k - l] of each lag,
    with blocks small enough that their accumulator stays in cache; lags
    that reach before frame 0 contribute nothing.  Shared by the Green
    responses and the per-scale fields, so the scales telescope to the Green
    response term by term.
    """
    out = np.empty((b - a,) + hats.shape[1:], dtype=complex)
    step = _block(16 * ksq_array(spec).size, LAG_BYTES)
    tmp = np.empty((min(step, b - a),) + hats.shape[1:], dtype=complex)
    lags = [(l, w) for l, w in enumerate(weights) if l > 0 and w != 0.0]
    for c in range(a, b, step):
        d = min(c + step, b)
        acc = out[c - a : d - a]
        if head is not None:
            np.multiply(head, hats[c:d], out=acc)
        else:
            acc.fill(0.0)
        for l, w in lags:
            lo = max(c, l)  # the first output whose lag-l frame exists
            if lo >= d:
                break
            np.multiply(w * _heat_multiplier(spec, nu * (l * dt)), hats[lo - l : d - l], out=tmp[: d - lo])
            acc[lo - c :] += tmp[: d - lo]
    return out


def _green_quadrature(g: SpaceTimeField, t: float, nu: float, eps: float) -> Field:
    """Trapezoid over the frame grid of exp(-eps s) exp(nu s Lap) g(t-s).

    The first interval [0, dt] is integrated exactly against the frozen
    newest frame, matching the Trotter-order time accuracy.  Truncated at
    the available history.
    """
    k_t = g.frame_index(t)
    if k_t < 1:
        raise InsufficientHistoryError("need at least one full frame interval before t")
    spec, dt = g.spec, g.dt
    weights = _lag_trapezoid(dt, k_t + 1) * np.exp(-eps * (dt * np.arange(k_t + 1)))
    head = _psi_multiplier(spec, nu, dt, eps)
    hats = _history_spectra(spec, g.frames[: k_t + 1])
    return Field(spec, _irfftn(_lag_sum(spec, dt, nu, hats, k_t, k_t + 1, weights, head)[0], spec))


def green_apply(g: SpaceTimeField, t: float, p: HeatParams) -> Field:
    """Time-integrated heat response: integral of exp(nu s Lap) g(t-s) ds.

    The horizon is whatever history g carries before t.
    """
    return _green_quadrature(g, t, p.nu, 0.0)


def green_cutoff_apply(g: SpaceTimeField, t: float, cg: CutoffGreen) -> Field:
    """Same quadrature with extra damping exp(-M^{-j} s) per lag."""
    return _green_quadrature(g, t, cg.nu, cg.epsilon)


# --- verification helpers ---------------------------------------------------


def random_smooth_field(spec: GridSpec, rng, corr_len: float = None, amp: float = 1.0) -> Field:
    """Band-limited Gaussian random field with spectral decay exp(-|k|^2 l^2 / 2)."""
    if corr_len is None:
        corr_len = 4 * spec.dx
    ksq = ksq_array(spec)
    shape = ksq.shape
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coef *= np.exp(-0.5 * ksq * corr_len**2)
    v = _irfftn(coef, spec)
    v *= amp / max(np.std(v), 1e-300)
    return Field(spec, v)


@dataclass
class ParabolicEstimateReport:
    k: int
    p: float
    q: float
    trials: int
    t_grid: np.ndarray
    c_hat: float
    per_t_sup: np.ndarray


def verify_parabolic_estimates(
    spec: GridSpec,
    k: int,
    p: float,
    q: float,
    trials: int,
    heat_params: HeatParams = HeatParams(),
    t_grid: np.ndarray = None,
    seed: int = 0,
    corr_len: float = None,
) -> ParabolicEstimateReport:
    """Empirical constant in the smoothing estimate for derivative order k.

    Records sup over seeded random smooth fields and a time grid of

        ||grad^k exp(t nu Lap) f||_p * (nu t)^{(d/2)(1/q - 1/p) + k/2} / ||f||_q.
    """
    if not (p >= q >= 1):
        raise ValueError("need p >= q >= 1")
    if t_grid is None:
        t_lo = (4 * spec.dx) ** 2
        t_hi = (spec.L_box / 8) ** 2
        t_grid = np.geomspace(t_lo, t_hi, 12)
    from .grid import derivative_sup

    d = spec.d
    expo = 0.5 * d * (1.0 / q - 1.0 / p) + 0.5 * k
    rng = np.random.default_rng(seed)
    per_t = np.zeros(len(t_grid))
    for _ in range(trials):
        f = random_smooth_field(spec, rng, corr_len=corr_len)
        fq = lp_norm(f, q)
        if fq < 1e-300:
            continue
        for i, t in enumerate(t_grid):
            ht = heat_apply(f, float(t), heat_params)
            if k == 0:
                nrm = lp_norm(ht, p)
            elif p == np.inf:
                nrm = derivative_sup(ht, k)
            else:
                from .grid import gradient_magnitude

                if k != 1:
                    raise NotImplementedError("k > 1 supported only for p = inf")
                nrm = lp_norm(gradient_magnitude(ht), p)
            val = nrm * (heat_params.nu * t) ** expo / fq
            per_t[i] = max(per_t[i], val)
    return ParabolicEstimateReport(
        k=k, p=p, q=q, trials=trials, t_grid=np.asarray(t_grid), c_hat=float(per_t.max()), per_t_sup=per_t
    )


def cutoff_kernel_decay(spec: GridSpec, cg: CutoffGreen, dt: float = None, r_window=(1.0, 4.0)):
    """Fitted spatial decay rate of the damped Green kernel.

    Drives the cutoff kernel with a time-sustained spatial impulse, then fits
    log response against the scaled distance r = M^{-j/2} |x - x0| over the
    window.  Returns (c_fit, r, log_response).
    """
    Mj = float(cg.M) ** cg.j
    if dt is None:
        dt = Mj / 16
    horizon = 8 * Mj
    n = int(round(horizon / dt)) + 1
    imp = np.zeros(spec.shape)
    imp[(spec.N // 2,) * spec.d] = 1.0 / spec.dx**spec.d
    frame = Field(spec, imp)
    g = SpaceTimeField(spec=spec, dt=dt, frames=(frame,) * n, t0=0.0)
    resp = green_cutoff_apply(g, horizon, cg)
    rsq = periodic_distance_sq(spec)
    r = np.sqrt(rsq).ravel() * Mj**-0.5
    v = np.abs(resp.values).ravel()
    sel = (r >= r_window[0]) & (r <= r_window[1]) & (v > 0)
    logs = np.log(v[sel])
    slope, _ = np.polyfit(r[sel], logs, 1)
    return float(-slope), r[sel], logs
