"""Regularized white noise, M-adic propagator decomposition, per-scale fields.

The white noise is mollified in space by a smooth radial bump chi (plateau
radius 1, support 2, in physical units scaled by a config factor).  The
propagator is cut into scales by a smooth partition of unity in the heat-time
variable, built by telescoping a smooth step in log_M coordinates so that the
partition identity holds exactly by construction.

Sampling uses the counter-based Philox generator keyed by (seed, replicate)
and advanced to a disjoint counter block per frame, so ensembles are
reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, SpaceTimeField, _irfftn, _rfftn, gradient, ksq_array, periodic_distance_sq
from .heat import HeatParams, InsufficientHistoryError, _lag_sum, _lag_trapezoid, _psi_multiplier, green_apply

FRAME_COUNTER_BLOCK = 1 << 40


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


def bump_profile(r, plateau: float = 1.0, support: float = 2.0):
    """Radial bump: 1 on [0, plateau], 0 beyond support, smooth in between."""
    r = np.asarray(r, dtype=float)
    return smooth_step((support - r) / (support - plateau))


@dataclass(frozen=True)
class NoiseParams:
    """Mollifier geometry, strength and PRNG addressing for the white noise."""

    spec: GridSpec
    dt: float
    seed: int
    D: float = 1.0
    chi_plateau: float = 1.0  # physical plateau radius of the mollifier
    replicate: int = 0

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not (self.chi_plateau > 0):
            raise ValueError("chi_plateau must be positive")


@lru_cache(maxsize=32)
def _chi_kernel_hat(spec: GridSpec, plateau: float) -> np.ndarray:
    """rfftn of the mollifier times the cell measure (physical convolution)."""
    r = np.sqrt(periodic_distance_sq(spec))
    chi = bump_profile(r, plateau=plateau, support=2 * plateau)
    chi = np.roll(chi, shift=[-(spec.N // 2)] * spec.d, axis=range(spec.d))
    khat = _rfftn(chi) * spec.dx**spec.d
    khat.setflags(write=False)
    return khat


def chi_self_convolution_zero(spec: GridSpec, plateau: float = 1.0) -> float:
    """(chi * chi)(0) = integral of chi^2 on the grid."""
    r = np.sqrt(periodic_distance_sq(spec))
    chi = bump_profile(r, plateau=plateau, support=2 * plateau)
    return float(np.sum(chi**2) * spec.dx**spec.d)


def _frame_generator(params: NoiseParams, frame_global: int) -> np.random.Generator:
    bg = np.random.Philox(key=(int(params.seed) << 64) | (params.replicate & ((1 << 64) - 1)))
    return np.random.Generator(bg.advance(frame_global * FRAME_COUNTER_BLOCK))


def sample_noise(params: NoiseParams, T: float, t0: float = 0.0) -> SpaceTimeField:
    """Mollified space-time white noise on frames t0, t0+dt, ..., t0+T.

    Per frame the raw sites are i.i.d. N(0, 1/(dt dx^d)), convolved in space
    with chi.  Frames are independent; addressing is by the absolute frame
    index round(t/dt), so overlapping histories from the same seed agree.
    """
    spec, dt = params.spec, params.dt
    k0 = int(round(t0 / dt))
    if abs(k0 * dt - t0) > 1e-9 * dt:
        raise ValueError("t0 must sit on the dt grid for reproducible addressing")
    n = int(round(T / dt)) + 1
    khat = _chi_kernel_hat(spec, params.chi_plateau)
    amp = 1.0 / math.sqrt(dt * spec.dx**spec.d)
    frames = []
    for k in range(n):
        rng = _frame_generator(params, k0 + k)
        raw = amp * rng.standard_normal(spec.shape)
        frames.append(Field(spec, _irfftn(_rfftn(raw) * khat, spec)))
    return SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=k0 * dt)


def _replicate_histories(params: NoiseParams, S: int, T: float):
    """Noise histories on [0, T] of replicates params.replicate .. params.replicate + S - 1."""
    for r in range(S):
        yield sample_noise(replace(params, replicate=params.replicate + r), T)


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


def scale_field(
    eta: SpaceTimeField, sd: ScaleDecomposition, j: int, t: float, p: HeatParams
) -> Field:
    """Quadrature of  int chi_bar^j(s) exp(s nu Lap) eta(t - s) ds  on the frame grid."""
    return scale_field_trajectory(eta, sd, j, [t], p)[0]


def scale_field_trajectory(
    eta: SpaceTimeField, sd: ScaleDecomposition, j: int, t_list, p: HeatParams,
    hat_cache: dict = None,
) -> list:
    """scale_field at several times, sharing the frame transforms.

    hat_cache maps frame index to its rfftn transform and may be shared
    across calls on the same history.
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
    n_lags = min(int(math.floor(needed / dt + 1e-9)) + 1, max(k_ts) + 1)
    # the lag-0 node belongs to the exact head, which only j = 0 carries
    weights = _lag_trapezoid(dt, n_lags) * sd.chi_bar(j, dt * np.arange(n_lags))
    head = _psi_multiplier(spec, p.nu, dt, 0.0) if j == 0 else None
    hats = hat_cache if hat_cache is not None else {}

    def frame_hat(k):
        if k not in hats:
            hats[k] = _rfftn(eta.frames[k].values)
        return hats[k]

    return [_lag_sum(spec, dt, p.nu, frame_hat, k_t, weights, head) for k_t in k_ts]


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
    return SpaceTimeField(spec=spec, dt=dt, frames=_heat_residual(spec, ddt, vals, p.nu), t0=phi_j.t0)


def _heat_residual(spec: GridSpec, ddt: np.ndarray, vals: np.ndarray, nu: float) -> tuple:
    """Fields ddt[k] - nu Lap vals[k], with the spectral Laplacian."""
    ksq = ksq_array(spec)
    return tuple(Field(spec, d - nu * _irfftn(-ksq * _rfftn(v), spec)) for d, v in zip(ddt, vals))


def _phi_eta(eta: SpaceTimeField, sd: ScaleDecomposition, j: int, t_list, p: HeatParams, hat_cache: dict):
    """phi^j and eta^j at consecutive frame times t_list.

    phi^j is evaluated on t_list extended by one frame at each end, so that
    the time derivative is the centered difference of eta_scale at every
    requested time; the Laplacian is taken at the requested times only.
    hat_cache is passed on to scale_field_trajectory.
    """
    dt = eta.dt
    t_ext = [t_list[0] - dt] + list(t_list) + [t_list[-1] + dt]
    phis = scale_field_trajectory(eta, sd, j, t_ext, p, hat_cache=hat_cache)
    vals = np.stack([f.values for f in phis])
    ddt = (vals[2:] - vals[:-2]) / (2 * dt)
    return phis[1:-1], _heat_residual(eta.spec, ddt, vals[1:-1], p.nu)


# --- stationary response and covariance diagnostics --------------------------


def ou_horizon(spec: GridSpec, nu: float, rtol: float = 1e-6) -> float:
    """History needed so the slowest retained mode is within rtol of stationarity."""
    k_min_sq = (2 * math.pi / spec.L_box) ** 2
    return math.log(1.0 / rtol) / (2 * nu * k_min_sq)


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
    samples: int

    def lookup(self, field, j, j2, dt_lag=0.0, dx_lag=0):
        for e in self.entries:
            if (e.field, e.j, e.j2, e.dt_lag, e.dx_lag) == (field, j, j2, dt_lag, dx_lag):
                return e
        raise KeyError((field, j, j2, dt_lag, dx_lag))


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
    requested lags, and products are accumulated across the ensemble.
    """
    if S < 2:
        raise ValueError("need at least 2 samples")
    js = sorted({j for pr in pairs for j in pr})
    max_lag_t = max(dt_lags)
    horizon = max(_required_history(sd, j) for j in js)
    # probe on the frame grid; the tolerance keeps t = horizon when dt divides it
    t0_probe = (math.ceil(horizon / params.dt - 1e-9) + 2) * params.dt
    T = t0_probe + max_lag_t + 2 * params.dt

    acc = {}
    var_acc = {(f, j): [] for j in js for f in ("phi", "eta")}
    grad_acc = {j: [] for j in js}
    for eta in _replicate_histories(params, S, T):
        cache = {}
        vals = {}
        for j in js:
            for lag in dt_lags:
                tq = t0_probe + lag
                if with_eta:
                    (phi,), (etaj,) = _phi_eta(eta, sd, j, [tq], p, cache)
                    vals[("phi", j, lag)] = phi
                    vals[("eta", j, lag)] = etaj
                else:
                    vals[("phi", j, lag)] = scale_field_trajectory(
                        eta, sd, j, [tq], p, hat_cache=cache
                    )[0]
            var_acc[("phi", j)].append(float(vals[("phi", j, 0.0)].values.var()))
            if with_eta:
                var_acc[("eta", j)].append(float(vals[("eta", j, 0.0)].values.var()))
            grad_acc[j].append(float(gradient(vals[("phi", j, 0.0)])[0].values.var()))
        probe = (0,) * params.spec.d
        for fkind in ("phi", "eta") if with_eta else ("phi",):
            for (j, j2) in pairs:
                for lag in dt_lags:
                    for dxl in dx_lags:
                        a = vals[(fkind, j, 0.0)].values[probe]
                        shifted = (dxl,) + (0,) * (params.spec.d - 1)
                        b = vals[(fkind, j2, lag)].values[shifted]
                        acc.setdefault((fkind, j, j2, lag, dxl), []).append(a * b)
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
    var = {k: float(np.mean(v)) for k, v in var_acc.items() if v}
    grad_var = {j: float(np.mean(v)) for j, v in grad_acc.items()}
    return CovarianceTable(entries=entries, var=var, grad_var=grad_var, samples=S)


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
    horizon = _required_history(sd, j) + 2 * dt
    t_start = math.ceil(horizon / dt) * dt
    t_list = [t_start + k * dt for k in range(int(round(T_traj / dt)) + 1)]
    for eta in _replicate_histories(params, S, t_start + T_traj + 2 * dt):
        _, etaj = _phi_eta(eta, sd, j, t_list, p, {})
        yield SpaceTimeField(spec=params.spec, dt=dt, frames=tuple(etaj), t0=t_start)
