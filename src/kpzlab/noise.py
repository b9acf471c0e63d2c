"""Regularized white noise, M-adic propagator decomposition, per-scale fields.

The white noise is mollified in space by a smooth radial bump chi (plateau
radius CHI_PLATEAU = 1 and support 2, in physical units).  The
propagator is cut into scales by a smooth partition of unity in the heat-time
variable, built by telescoping a smooth step in log_M coordinates so that the
partition identity holds exactly by construction.

Sampling uses the counter-based Philox generator keyed by (seed, replicate)
and advanced to a disjoint counter block per frame, so ensembles are
reproducible and order-independent.  Every per-scale field is linear in the
mollified noise and diagonal in Fourier space, so the ensembles keep each
noise history as its chi-hat spectra and return to real space once, for the
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, SpaceTimeField, _irfftn, _rfft_wavenumbers, _rfftn, ksq_array, periodic_distance_sq
from .heat import (
    HeatParams,
    InsufficientHistoryError,
    _frame_block,
    _frame_spectra,
    _history_spectra,
    _lag_sum,
    _lag_trapezoid,
    _psi_multiplier,
    green_apply,
)

FRAME_COUNTER_BLOCK = 1 << 40
CHI_PLATEAU = 1.0  # physical plateau radius of the mollifier; its support is twice that


class TooFewFramesError(ValueError):
    pass


class DimensionTooLowError(ValueError):
    pass


class InvalidScaleError(ValueError):
    pass


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, sigma(u)/(sigma(u)+sigma(1-u))."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def bump_profile(r, plateau: float, support: float):
    """Radial bump: 1 on [0, plateau], 0 beyond support, smooth in between."""
    r = np.asarray(r, dtype=float)
    return smooth_step((support - r) / (support - plateau))


@dataclass(frozen=True)
class NoiseParams:
    """Frame step and PRNG addressing for the white noise."""

    spec: GridSpec
    dt: float
    seed: int
    replicate: int = 0

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")


def _chi(spec: GridSpec) -> np.ndarray:
    """The mollifier on the grid, centred at the box centre."""
    return bump_profile(np.sqrt(periodic_distance_sq(spec)), plateau=CHI_PLATEAU, support=2 * CHI_PLATEAU)


@lru_cache(maxsize=32)
def _chi_kernel_hat(spec: GridSpec) -> np.ndarray:
    """rfftn of the mollifier times the cell measure (physical convolution)."""
    chi = np.roll(_chi(spec), shift=[-(spec.N // 2)] * spec.d, axis=range(spec.d))
    khat = _rfftn(chi, spec) * spec.dx**spec.d
    khat.setflags(write=False)
    return khat


def chi_self_convolution_zero(spec: GridSpec) -> float:
    """(chi * chi)(0) = integral of chi^2 on the grid."""
    return float(np.sum(_chi(spec) ** 2) * spec.dx**spec.d)


def _frame_generator(params: NoiseParams, frame_global: int) -> np.random.Generator:
    bg = np.random.Philox(key=(int(params.seed) << 64) | (params.replicate & ((1 << 64) - 1)))
    return np.random.Generator(bg.advance(frame_global * FRAME_COUNTER_BLOCK))


def _noise_hat(params: NoiseParams, k0: int, n: int) -> np.ndarray:
    """Spectra of the mollified noise frames k0 .. k0 + n - 1.

    Per frame the raw sites are i.i.d. N(0, 1/(dt dx^d)) from the frame's
    own Philox counter block; each block of frames is drawn, transformed in
    one batched call and multiplied by chi-hat.
    """
    spec = params.spec
    amp = 1.0 / math.sqrt(params.dt * spec.dx**spec.d)

    def draw(a, b):
        raw = np.empty((b - a,) + spec.shape)
        for i in range(b - a):
            _frame_generator(params, k0 + a + i).standard_normal(out=raw[i])
        raw *= amp
        return raw

    hats = _frame_spectra(spec, n, draw)
    hats *= _chi_kernel_hat(spec)
    return hats


def sample_noise(params: NoiseParams, T: float, t0: float = 0.0) -> SpaceTimeField:
    """Mollified space-time white noise on frames t0, t0+dt, ..., t0+T.

    Per frame the raw sites are i.i.d. N(0, 1/(dt dx^d)), convolved in space
    with chi.  Frames are independent; addressing is by the absolute frame
    index round(t/dt), so overlapping histories from the same seed agree.
    Each block of frames is one batched inverse transform of _noise_hat.
    """
    spec, dt = params.spec, params.dt
    k0 = int(round(t0 / dt))
    if abs(k0 * dt - t0) > 1e-9 * dt:
        raise ValueError("t0 must sit on the dt grid for reproducible addressing")
    n = int(round(T / dt)) + 1
    step = _frame_block(spec)
    frames = []
    for a in range(0, n, step):
        frames.extend(Field(spec, v) for v in _irfftn(_noise_hat(params, k0 + a, min(step, n - a)), spec))
    return SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=k0 * dt)


# --- M-adic partition of unity ----------------------------------------------


@dataclass(frozen=True)
class ScaleDecomposition:
    """Partition-of-unity weights over the heat-time variable, scales 0..j_max.

    chi_bar^j(s) = F(log_M s - j) - F(log_M s - j - 1) for j >= 1 with F a
    smooth step rising on (-1, 0); the j = 0 weight telescopes the whole
    range s <= 1.  The identity sum_j chi_bar^j = 1 holds exactly on s > 0
    (for j <= j_max it holds up to s = M^{j_max}); chi_bar^j(M^j) = 1, and
    supp chi_bar^j = (M^{j-1}, M^{j+1}).
    """

    M: float
    j_max: int

    def __post_init__(self):
        if not (self.M > 1):
            raise InvalidScaleError(f"scale parameter M must exceed 1, got {self.M}")
        if self.j_max < 0:
            raise InvalidScaleError("j_max must be >= 0")

    def _F(self, u):
        # smooth monotone step: 0 for u <= -1, 1 for u >= 0
        return smooth_step(np.asarray(u, dtype=float) + 1.0)

    def chi_bar(self, j: int, s):
        """Weight of scale j at heat time s (vectorized)."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        u = np.log(np.maximum(s, 1e-300)) / math.log(self.M)
        if j == 0:
            out[pos] = (1.0 - self._F(u - 1))[pos]
        else:
            out[pos] = (self._F(u - j) - self._F(u - j - 1))[pos]
        return out if out.ndim else float(out)

    def support(self, j: int) -> tuple:
        if j == 0:
            return (0.0, self.M)
        return (self.M ** (j - 1), self.M ** (j + 1))

    def partition_values(self, s_grid) -> np.ndarray:
        """Rows: chi_bar^j sampled on s_grid, j = 0..j_max."""
        s = np.asarray(s_grid, dtype=float)
        return np.stack([self.chi_bar(j, s) for j in range(self.j_max + 1)])


def build_partition(M: float, j_max: int) -> ScaleDecomposition:
    return ScaleDecomposition(M=M, j_max=j_max)


# --- per-scale fields ---------------------------------------------------------


def _required_history(sd: ScaleDecomposition, j: int) -> float:
    return sd.support(j)[1]


def _scale_lags(spec: GridSpec, dt: float, nu: float, sd: ScaleDecomposition, j: int, k_max: int):
    """Lag weights and exact head of the scale-j quadrature, as _lag_sum takes them.

    The lags run to the end of the support of chi_bar^j, or to frame 0 from
    the latest output frame k_max if that comes first.
    """
    n_lags = min(int(math.floor(_required_history(sd, j) / dt + 1e-9)) + 1, k_max + 1)
    # the lag-0 node belongs to the exact head, which only j = 0 carries
    weights = _lag_trapezoid(dt, n_lags) * sd.chi_bar(j, dt * np.arange(n_lags))
    head = _psi_multiplier(spec, nu, dt, 0.0) if j == 0 else None
    return weights, head


def _frames_read(weights, head, k_lo: int, k_hi: int) -> tuple:
    """Frames [first, stop) that outputs k_lo .. k_hi - 1 read with a nonzero weight."""
    lags = [0] * (head is not None) + np.flatnonzero(weights).tolist()
    if not lags:
        return k_lo, k_lo
    first = max(k_lo - lags[-1], 0)
    return first, max(k_hi - lags[0], first)


def _runs(ks, size: int) -> list:
    """ks in order, as runs [a, b) of consecutive frames, at most size each."""
    runs = []
    for k in ks:
        if runs and k == runs[-1][1] and runs[-1][1] - runs[-1][0] < size:
            runs[-1][1] += 1
        else:
            runs.append([k, k + 1])
    return runs


def scale_field(
    eta: SpaceTimeField, sd: ScaleDecomposition, j: int, t: float, p: HeatParams
) -> Field:
    """Quadrature of  int chi_bar^j(s) exp(s nu Lap) eta(t - s) ds  on the frame grid."""
    return scale_field_trajectory(eta, sd, j, [t], p)[0]


def scale_field_trajectory(
    eta: SpaceTimeField, sd: ScaleDecomposition, j: int, t_list, p: HeatParams
) -> list:
    """scale_field at several times, from one transform of each frame they read.

    Consecutive times share one lag pass and one batched inverse transform.
    """
    spec, dt = eta.spec, eta.dt
    needed = _required_history(sd, j)
    k_ts = []
    for t in t_list:
        k_t = eta.frame_index(t)
        if k_t * dt < needed - 1.0001 * dt:
            raise InsufficientHistoryError(
                f"scale {j} needs history {needed:.3g}, frame {k_t} has {k_t * dt:.3g}"
            )
        k_ts.append(k_t)
    weights, head = _scale_lags(spec, dt, p.nu, sd, j, max(k_ts))
    f0, f1 = _frames_read(weights, head, min(k_ts), max(k_ts) + 1)
    hats = _history_spectra(spec, eta.frames[f0:f1])
    out = []
    for a, b in _runs(k_ts, _frame_block(spec)):
        phi = _lag_sum(spec, dt, p.nu, hats, a - f0, b - f0, weights, head)
        out.extend(Field(spec, v) for v in _irfftn(phi, spec))
    return out


def eta_scale(phi_j: SpaceTimeField, p: HeatParams) -> SpaceTimeField:
    """(d/dt - nu Lap) phi^j: spectral Laplacian, centered time differences.

    One-sided second-order differences at the ends; needs >= 3 frames.
    """
    n = phi_j.n_frames
    if n < 3:
        raise TooFewFramesError("time derivative needs at least 3 frames")
    spec, dt = phi_j.spec, phi_j.dt
    vals = phi_j.values_array()
    ddt = np.empty_like(vals)
    ddt[1:-1] = (vals[2:] - vals[:-2]) / (2 * dt)
    ddt[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * dt)
    ddt[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * dt)
    res = ddt + p.nu * _irfftn(ksq_array(spec) * _rfftn(vals, spec), spec)
    return SpaceTimeField(spec=spec, dt=dt, frames=tuple(Field(spec, v) for v in res), t0=phi_j.t0)


def _eta_hat(phi: np.ndarray, spec: GridSpec, dt: float, nu: float) -> np.ndarray:
    """Spectra of (d/dt - nu Lap) phi^j at phi[1:-1]: centered differences plus nu |k|^2 phi."""
    eta = phi[2:] - phi[:-2]
    eta /= 2 * dt
    eta += nu * ksq_array(spec) * phi[1:-1]
    return eta


def _eta_history(params: NoiseParams, sd: ScaleDecomposition, j: int, p: HeatParams, k_a: int, n_out: int):
    """eta^j Fields at frames k_a .. k_a + n_out - 1 of one replicate's noise.

    Only the noise frames the outputs read are drawn, and they are kept as
    spectra.  phi^j is summed on them in blocks over frames k_a - 1 ..
    k_a + n_out, each block carrying the last two phi^j of the one before
    for the centered difference; each block of eta^j takes one batched
    inverse transform.
    """
    spec, dt = params.spec, params.dt
    k_lo, k_hi = k_a - 1, k_a + n_out + 1
    weights, head = _scale_lags(spec, dt, p.nu, sd, j, k_hi - 1)
    f0, f1 = _frames_read(weights, head, k_lo, k_hi)
    hats = _noise_hat(params, f0, f1 - f0)
    frames = []
    phi = hats[:0]
    step = _frame_block(spec)
    for a in range(k_lo, k_hi, step):
        b = min(a + step, k_hi)
        phi = np.concatenate([phi[-2:], _lag_sum(spec, dt, p.nu, hats, a - f0, b - f0, weights, head)])
        frames.extend(Field(spec, v) for v in _irfftn(_eta_hat(phi, spec, dt, p.nu), spec))
    return tuple(frames)


# --- stationary response and covariance diagnostics --------------------------


def ou_horizon(spec: GridSpec, nu: float) -> float:
    """History needed so the slowest retained mode is within 1e-6 of stationarity."""
    k_min_sq = (2 * math.pi / spec.L_box) ** 2
    return math.log(1.0 / 1e-6) / (2 * nu * k_min_sq)


def ou_field(eta: SpaceTimeField, p: HeatParams, t: float) -> Field:
    """Truncated stationary response  int_0^H exp(s nu Lap) eta(t - s) ds.

    The spatial mean (zero mode) is projected out: on the torus it performs a
    Brownian motion and has no stationary law; for d >= 3 every other mode
    converges.  Refuses d < 3, where the would-be infinite-volume variance
    diverges.
    """
    if eta.spec.d < 3:
        raise DimensionTooLowError("stationary response requires d >= 3")
    need = ou_horizon(eta.spec, p.nu)
    k_t = eta.frame_index(t)
    if k_t * eta.dt < need:
        raise InsufficientHistoryError(
            f"need burn-in history >= {need:.3g}, have {k_t * eta.dt:.3g}"
        )
    out = green_apply(eta, t, p)
    vals = out.values - out.values.mean()
    return Field(eta.spec, vals)


@dataclass
class CovarianceEntry:
    field: str  # "phi" or "eta"
    j: int
    j2: int
    dt_lag: float
    dx_lag: int  # cells along axis 0
    cov: float
    stderr: float
    n: int


@dataclass
class CovarianceTable:
    entries: list
    var: dict  # (field, j) -> variance estimate
    grad_var: dict  # j -> variance of the axis-0 derivative of phi^j

    def lookup(self, field, j, j2, dt_lag=0.0, dx_lag=0):
        for e in self.entries:
            if (e.field, e.j, e.j2, e.dt_lag, e.dx_lag) == (field, j, j2, dt_lag, dx_lag):
                return e
        raise KeyError((field, j, j2, dt_lag, dx_lag))


def _centred_weights(spec: GridSpec) -> np.ndarray:
    """Per-mode weights w with sum w Re(conj(A) B) = mean over sites of (a - mean a)(b - mean b).

    Parseval on the rfftn half spectrum: the modes of the last axis other
    than 0 and Nyquist stand for their conjugate too; the zero mode drops.
    """
    w = np.full(ksq_array(spec).shape, 2.0 / spec.n_sites**2)
    w[..., 0] /= 2
    w[..., -1] /= 2
    w[(0,) * spec.d] = 0.0
    return w


def _centred_mean(w: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    return float(np.sum(w * (A.real * B.real + A.imag * B.imag)))


def empirical_covariance(
    params: NoiseParams,
    sd: ScaleDecomposition,
    pairs: list,
    S: int,
    p: HeatParams,
    dt_lags=(0.0,),
    dx_lags=(0,),
    with_eta: bool = True,
) -> CovarianceTable:
    """Monte-Carlo covariance estimates of the per-scale fields.

    For each replicate a fresh noise history is sampled (counter-based
    streams), phi^j and eta^j are evaluated at a fixed probe time and at the
    requested lags, and each estimate is the spatial mean of a product of
    centred fields (the covariance of the fields at sites dx_lag cells apart
    along axis 0), read off their spectra.  var is the same estimate at
    zero lags, so a correlation is at most 1; stderr is taken across
    replicates.
    """
    if S < 2:
        raise ValueError("need at least 2 samples")
    spec, dt = params.spec, params.dt
    js = sorted({j for pr in pairs for j in pr})
    horizon = max(_required_history(sd, j) for j in js)
    # probe on the frame grid; the tolerance keeps t = horizon when dt divides it
    k_probe = math.ceil(horizon / dt - 1e-9) + 2
    lag_frames = {lag: int(round(lag / dt)) for lag in {0.0, *dt_lags}}
    if any(abs(k * dt - lag) > 1e-9 * max(1.0, dt) for lag, k in lag_frames.items()):
        raise ValueError(f"time lags {dt_lags} are not on the frame grid")
    e = 1 if with_eta else 0  # the eta^j stencil reads phi^j one frame each side
    k_lo = k_probe + min(lag_frames.values()) - e
    k_hi = k_probe + max(lag_frames.values()) + e + 1
    scale_lags = {j: _scale_lags(spec, dt, p.nu, sd, j, k_hi - 1) for j in js}
    spans = [_frames_read(w, head, k_lo, k_hi) for w, head in scale_lags.values()]
    f0, f1 = min(a for a, _ in spans), max(b for _, b in spans)

    ks, _, kds = _rfft_wavenumbers(spec)
    w_var = _centred_weights(spec)
    w_grad = w_var * kds[0] ** 2
    phases = {dxl: np.exp(1j * ks[0] * (dxl * spec.dx)) for dxl in dx_lags}
    fkinds = ("phi", "eta") if with_eta else ("phi",)
    acc = {}
    var_acc = {(f, j): [] for j in js for f in fkinds}
    grad_acc = {j: [] for j in js}
    for r in range(S):
        hats = _noise_hat(replace(params, replicate=params.replicate + r), f0, f1 - f0)
        spectra = {}
        for j, (weights, head) in scale_lags.items():
            for lag, lk in lag_frames.items():
                k = k_probe + lk - f0
                phi = _lag_sum(spec, dt, p.nu, hats, k - e, k + e + 1, weights, head)
                spectra[("phi", j, lag)] = phi[e]
                if with_eta:
                    spectra[("eta", j, lag)] = _eta_hat(phi, spec, dt, p.nu)[0]
            phi0 = spectra[("phi", j, 0.0)]
            grad_acc[j].append(_centred_mean(w_grad, phi0, phi0))
        for fkind in fkinds:
            for j in js:
                a = spectra[(fkind, j, 0.0)]
                var_acc[(fkind, j)].append(_centred_mean(w_var, a, a))
            for (j, j2) in pairs:
                a = spectra[(fkind, j, 0.0)]
                for lag in dt_lags:
                    for dxl in dx_lags:
                        b = spectra[(fkind, j2, lag)] * phases[dxl]
                        acc.setdefault((fkind, j, j2, lag, dxl), []).append(_centred_mean(w_var, a, b))
    entries = []
    for (fkind, j, j2, lag, dxl), prods in acc.items():
        arr = np.asarray(prods)
        entries.append(
            CovarianceEntry(
                field=fkind, j=j, j2=j2, dt_lag=lag, dx_lag=dxl,
                cov=float(arr.mean()), stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))),
                n=len(arr),
            )
        )
    var = {k: float(np.mean(v)) for k, v in var_acc.items()}
    grad_var = {j: float(np.mean(v)) for j, v in grad_acc.items()}
    return CovarianceTable(entries=entries, var=var, grad_var=grad_var)


def eta_snapshot_ensemble(
    params: NoiseParams, sd: ScaleDecomposition, j: int, S: int, p: HeatParams
):
    """Yields S independent eta^j snapshot Fields at a fixed probe time."""
    for traj in eta_history_ensemble(params, sd, j, S, p, T_traj=0.0):
        yield traj.frames[0]


def eta_history_ensemble(
    params: NoiseParams, sd: ScaleDecomposition, j: int, S: int, p: HeatParams, T_traj: float
):
    """Yields S independent eta^j trajectories of length T_traj (frames at params.dt)."""
    dt = params.dt
    k_start = math.ceil((_required_history(sd, j) + 2 * dt) / dt)
    n_out = int(round(T_traj / dt)) + 1
    for r in range(S):
        frames = _eta_history(replace(params, replicate=params.replicate + r), sd, j, p, k_start, n_out)
        yield SpaceTimeField(spec=params.spec, dt=dt, frames=frames, t0=k_start * dt)
