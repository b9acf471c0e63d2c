"""Exact heat semigroups and Green kernels on the periodic grid.

The generator is nu * Laplacian, realized as the Fourier multiplier
exp(-nu |k|^2 t).  Green kernels integrate the semigroup against a time
history, with an optional infra-red damping exp(-M^{-j} lag) per lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    BadArgumentError, Field, GridSpec, InsufficientHistoryError, SpaceTimeField, _irfftn, _rfftn, check_positive,
    check_scale, check_times, derivative_sup, gradient_magnitude, ksq_array, lp_norm, periodic_distance_sq,
)


# Frame histories are worked through in blocks of at most MAX_BLOCK frames,
# with at most BATCH_BYTES of real frames per batched transform (16 at 16^3,
# 8 at 32^3, 1 at 64^3): larger blocks outgrow a 2 MiB L2 and run slower,
# and whole histories are never stacked in real space.  The lag sum takes
# its outputs in blocks of the same size, one GEMM each.  GEMM_SPAN bounds
# nu dt |k|^2 times the range of powers of the one-frame heat multiplier
# that a GEMM spans: each rounded exponent x costs up to |x| 1.1e-16 of a
# term, so 300 keeps every term within 7e-14 of its size and far from
# overflow (exp(709)) and subnormals (exp(-708)).
MAX_BLOCK = 16
BATCH_BYTES = 2 << 20
GEMM_SPAN = 300.0


@dataclass(frozen=True)
class HeatParams:
    """Diffusion constant of the semigroup exp(t nu Laplacian)."""

    nu: float = 1.0

    def __post_init__(self):
        check_positive("nu", self.nu)


def _heat_multipliers(spec: GridSpec, nu_ts) -> np.ndarray:
    """Multipliers exp(-nu_t |k|^2) of the heat semigroup, stacked one per nu_t."""
    return np.exp(np.multiply.outer(-np.asarray(nu_ts, dtype=float), ksq_array(spec)))


def heat_apply(f: Field, t: float, p: HeatParams) -> Field:
    """exp(t nu Laplacian) f via the spectral multiplier; t = 0 is the identity."""
    check_times([t])
    if t == 0:
        return f
    return Field(f.spec, _irfftn(_rfftn(f.values, f.spec) * _heat_multipliers(f.spec, [p.nu * t])[0], f.spec))


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


def _frame_block(spec: GridSpec) -> int:
    """Frames per batched transform, and outputs per lag-sum GEMM."""
    return max(1, min(MAX_BLOCK, BATCH_BYTES // (8 * spec.n_sites)))


def _blocks(spec: GridSpec, ks) -> list:
    """ks in order, as runs [a, b) of consecutive frames, each at most _frame_block(spec) long."""
    size, runs = _frame_block(spec), []
    for k in ks:
        if runs and k == runs[-1][1] and runs[-1][1] - runs[-1][0] < size:
            runs[-1][1] += 1
        else:
            runs.append([k, k + 1])
    return runs


def _frame_spectra(spec: GridSpec, n: int, block_of) -> np.ndarray:
    """Transforms of frames 0 .. n-1, one batched _rfftn per _blocks block.

    block_of(a, b) returns real frames a .. b-1 stacked; the spectra fill a
    preallocated array, so the real frames are never stacked whole.
    """
    out = np.empty((n,) + ksq_array(spec).shape, dtype=complex)
    for a, b in _blocks(spec, range(n)):
        out[a:b] = _rfftn(block_of(a, b), spec)
    return out


def _history_spectra(spec: GridSpec, frames) -> np.ndarray:
    """_frame_spectra of a sequence of Fields."""
    return _frame_spectra(spec, len(frames), lambda a, b: np.stack([f.values for f in frames[a:b]]))


@lru_cache(maxsize=16)
def _heat_powers(spec: GridSpec, nu: float, dt: float, lo: int, hi: int) -> tuple:
    """Powers E^p of E = exp(-nu dt |k|^2), p = lo .. hi, and the float columns kept out of the GEMM.

    Row p - lo holds exp(-nu (p dt) |k|^2) with each mode twice, to match
    the float view of a flattened spectrum; for p >= 0 that is the
    _heat_multipliers row of nu (p dt) bit for bit.  A mode whose powers span
    more than exp(GEMM_SPAN) is left out of the rescaled GEMM: its negative
    powers are stored as 0 and its float columns are returned.
    """
    ksq = ksq_array(spec).ravel()
    x = np.multiply.outer(-(nu * (np.arange(lo, hi + 1) * dt)), ksq)
    out_band = nu * dt * (hi - lo) * ksq > GEMM_SPAN
    x[: max(-lo, 0), out_band] = -np.inf
    E = np.repeat(np.exp(x), 2, axis=1)
    E.setflags(write=False)
    return E, np.flatnonzero(np.repeat(out_band, 2))


def _add_lags(acc: np.ndarray, frames: np.ndarray, E: np.ndarray, weights, lags, k: int) -> None:
    """acc[i] += sum_l weights[l] E^l frames[k + i - l], one pass per lag.

    Float views: frames[m] is a frame, E[l] is E^l laid out like it.  Lags
    that reach before frames[0] contribute nothing.
    """
    n = len(acc)
    tmp = np.empty_like(acc)
    for l in lags:
        lo = max(k, l)  # the first output whose lag-l frame exists
        if lo >= k + n:
            break
        t = tmp[: k + n - lo]
        np.multiply(E[l], weights[l], out=t)
        t *= frames[lo - l : k + n - l]
        acc[lo - k :] += t


def _lag_sum(spec: GridSpec, dt: float, nu: float, hats: np.ndarray, a: int, b: int, weights, head) -> np.ndarray:
    """Spectra of  head * g_k + sum_{l>=1} weights[l] exp(l dt nu Lap) g_{k-l}  for k = a .. b-1.

    hats[k] is the transform of frame k; head is a per-mode multiplier for
    the first interval (or None); lags that reach before frame 0 contribute
    nothing.  A single output is summed lag by lag.  Each block of c .. d-1
    consecutive outputs is one real GEMM, by the integrating factor
    E^l g_{k-l} = E^(k-c) E^(c-m) g_m with m = k - l: each frame m is scaled
    by E^(c-m), the lag weights form one Toeplitz matrix over (k, m), and
    each output row is scaled by E^(k-c).  Modes that _heat_powers leaves
    out of the GEMM are summed lag by lag.  Shared by the Green responses
    and the per-scale fields, so the scales telescope to the Green response
    term by term.
    """
    out = np.empty((b - a,) + hats.shape[1:], dtype=complex)
    if head is not None:
        np.multiply(head, hats[a:b], out=out)
    else:
        out.fill(0.0)
    lags = (np.flatnonzero(weights[1:]) + 1).tolist()
    if not lags:
        return out
    L = lags[-1]
    g = hats.reshape(len(hats), -1).view(float)
    acc = out.reshape(b - a, -1).view(float)
    step = min(_frame_block(spec), b - a)
    if step == 1:
        E, _ = _heat_powers(spec, nu, dt, 0, L)
        for k in range(a, b):
            _add_lags(acc[k - a : k - a + 1], g, E, weights, lags, k)
        return out
    lo = 1 - step
    E, cols = _heat_powers(spec, nu, dt, lo, max(L, step - 1))
    for c, d in _blocks(spec, range(a, b)):
        m0, m1 = max(c - L, 0), d - lags[0]  # the frames the block reads
        if m1 <= m0:
            continue
        # E^(c-m) for m = m0 .. m1-1: rows c - m0 - lo down to c - m1 + 1 - lo >= 0
        scaled = g[m0:m1] * E[c - m0 - lo : c - m1 - lo : -1]
        lag = (c - m0) + np.arange(d - c)[:, None] - np.arange(m1 - m0)
        toeplitz = np.where((lag >= 1) & (lag <= L), weights[np.clip(lag, 0, L)], 0.0)
        block = toeplitz @ scaled
        block *= E[-lo : d - c - lo]
        if cols.size:
            rest = np.zeros((d - c, cols.size))
            _add_lags(rest, g[m0:m1, cols], E[-lo:, cols], weights, lags, c - m0)
            block[:, cols] = rest
        acc[c - a : d - a] += block
    return out


def green_apply(g: SpaceTimeField, t: float, p: HeatParams, cutoff=None) -> Field:
    """Time-integrated heat response: integral of exp(-eps s) exp(nu s Lap) g(t-s) ds.

    cutoff=None gives eps = 0; cutoff=(M, j) damps each lag at the scale-j
    infra-red rate eps = M^{-j}.  Trapezoid over the frame grid, with the
    first interval [0, dt] integrated exactly against the frozen newest
    frame, matching the Trotter-order time accuracy.  The horizon is
    whatever history g carries before t.
    """
    eps = 0.0
    if cutoff is not None:
        check_scale(*cutoff)
        eps = float(cutoff[0]) ** (-cutoff[1])
    k_t = g.frame_index(t)
    if k_t < 1:
        raise InsufficientHistoryError("need at least one full frame interval before t")
    spec, dt = g.spec, g.dt
    weights = _lag_trapezoid(dt, k_t + 1) * np.exp(-eps * (dt * np.arange(k_t + 1)))
    head = _psi_multiplier(spec, p.nu, dt, eps)
    hats = _history_spectra(spec, g.frames[: k_t + 1])
    return Field(spec, _irfftn(_lag_sum(spec, dt, p.nu, hats, k_t, k_t + 1, weights, head)[0], spec))


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
) -> float:
    """Empirical constant in the smoothing estimate for derivative order k.

    The sup over seeded random smooth fields and a time grid of

        ||grad^k exp(t nu Lap) f||_p * (nu t)^{(d/2)(1/q - 1/p) + k/2} / ||f||_q.
    """
    if not (p >= q >= 1):
        raise BadArgumentError("need p >= q >= 1")
    if t_grid is None:
        t_lo = (4 * spec.dx) ** 2
        t_hi = (spec.L_box / 8) ** 2
        t_grid = np.geomspace(t_lo, t_hi, 12)
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
            elif k == 1:
                nrm = lp_norm(gradient_magnitude(ht), p)
            else:
                raise NotImplementedError("k > 1 supported only for p = inf")
            val = nrm * (heat_params.nu * t) ** expo / fq
            per_t[i] = max(per_t[i], val)
    return float(per_t.max())


def cutoff_kernel_decay(spec: GridSpec, p: HeatParams, cutoff):
    """Fitted spatial decay rate of the damped Green kernel.

    Drives green_apply at cutoff = (M, j) with a time-sustained spatial
    impulse on frames M^j / 16 apart, then fits log response against the
    scaled distance r = M^{-j/2} |x - x0| over 1 <= r <= 4.  Returns
    (c_fit, r, log_response).
    """
    check_scale(*cutoff)
    Mj = float(cutoff[0]) ** cutoff[1]
    dt = Mj / 16
    horizon = 8 * Mj
    n = int(round(horizon / dt)) + 1
    imp = np.zeros(spec.shape)
    imp[(spec.N // 2,) * spec.d] = 1.0 / spec.dx**spec.d
    frame = Field(spec, imp)
    g = SpaceTimeField(spec=spec, dt=dt, frames=(frame,) * n, t0=0.0)
    resp = green_apply(g, horizon, p, cutoff)
    rsq = periodic_distance_sq(spec)
    r = np.sqrt(rsq).ravel() * Mj**-0.5
    v = np.abs(resp.values).ravel()
    sel = (r >= 1.0) & (r <= 4.0) & (v > 0)
    logs = np.log(v[sel])
    slope, _ = np.polyfit(r[sel], logs, 1)
    return float(-slope), r[sel], logs
