"""Monte-Carlo tail estimation and deterministic large-deviation inequalities.

Covers: Gaussian-tail exceedance of the maximal function of the scale-j
noise, log-normal tails of its exponential, heavy-tailed sum bounds of
Nagaev type, the coupled-vs-decoupled sum inequalities obtained by expanding
products of (1 + (e^{eps z} - 1)), concentration of Gaussian suprema, and
covariance-monotonicity of convex functionals.

Every asymptotic "up to a constant" bound carries one calibration constant,
fitted once on a reference configuration and frozen here; acceptance runs
re-check the frozen bound on fresh seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

from .grid import BadArgumentError, Field, GridSpec, check_positive, periodic_distance_sq
from .maximal import forcing_quasinorm, geometric_grid, log_star_exp, star_maximal


def scaling_dimension(d: int) -> float:
    """d_phi = (d/2 - 1)/2, the exponent governing scale-j fluctuation size."""
    return 0.5 * (d / 2.0 - 1.0)


# --- empirical tails ----------------------------------------------------------


def wilson_interval(k: int, n: int):
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    z = 1.96
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)  # endpoints are exact
    return lo, hi


@dataclass
class TailReport:
    """Exceedance probabilities over a threshold grid with a fitted tail model."""

    A_grid: np.ndarray
    p_hat: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    trials: int
    model: str  # "gaussian_tail" or "lognormal_tail"
    c_fit: float
    C_fit: float
    r2: float
    statistics: np.ndarray = None


def _weighted_r2(logp: np.ndarray, pred: np.ndarray, w: np.ndarray) -> float:
    """1 - SSR/SST of the fit pred to log p, both sums weighted by w; 0 when SST is 0."""
    ssr = np.sum(w * (logp - pred) ** 2)
    sst = np.sum(w * (logp - np.average(logp, weights=w)) ** 2)
    return 1 - ssr / sst if sst > 0 else 0.0


def _fit_gaussian_tail(A: np.ndarray, p: np.ndarray, n: int):
    """Weighted fit of log p = -c (A - C)^2 on points with hits; returns (c, C, r2)."""
    sel = p > 0
    if sel.sum() < 3:
        return 0.0, float(A[0]), 0.0
    Asel, psel = A[sel], p[sel]
    logp = np.log(psel)
    # var(log p_hat) ~ (1 - p)/(n p); weight by its inverse
    w = np.maximum(n * psel / np.maximum(1 - psel, 1e-12), 1e-12)
    best = (0.0, float(Asel[0]), -np.inf)
    for C in np.linspace(A[0] * 0.0, Asel[logp < np.log(0.5)].min() if (logp < np.log(0.5)).any() else Asel[0], 41):
        x = np.maximum(Asel - C, 0.0) ** 2
        if np.allclose(x, 0):
            continue
        c = -np.sum(w * x * logp) / np.sum(w * x * x)
        r2 = _weighted_r2(logp, -c * x, w)
        if r2 > best[2]:
            best = (float(c), float(C), float(r2))
    return best


def _fit_lognormal_tail(A: np.ndarray, p: np.ndarray, n: int):
    """Weighted fit of log p = a - c (log A)^2; returns (c, a, r2).

    lstsq on rows scaled by w minimizes w^2-weighted residuals; r2 weighs them by w.
    """
    sel = (p > 0) & (A > 1)
    if sel.sum() < 3:
        return 0.0, 0.0, 0.0
    x = np.log(A[sel]) ** 2
    logp = np.log(p[sel])
    w = np.maximum(n * p[sel] / (1 - p[sel] + 1e-12), 1e-12)
    X = np.stack([np.ones_like(x), -x], axis=1)
    W = np.diag(w)
    beta, *_ = np.linalg.lstsq(W @ X, W @ logp, rcond=None)
    a, c = float(beta[0]), float(beta[1])
    return c, a, float(_weighted_r2(logp, X @ beta, w))


def tail_report_from_samples(
    statistics: np.ndarray, A_grid: np.ndarray, model: str, min_trials: int = 0
) -> TailReport:
    stats_arr = np.asarray(statistics, dtype=float)
    n = len(stats_arr)
    if n < min_trials:
        raise BadArgumentError(f"need >= {min_trials} trials, got {n}")
    A = np.asarray(A_grid, dtype=float)
    p_hat = np.array([(stats_arr > a).mean() for a in A])
    lo, hi = zip(*[wilson_interval(int(round(ph * n)), n) for ph in p_hat])
    if model == "gaussian_tail":
        c, C, r2 = _fit_gaussian_tail(A, p_hat, n)
    elif model == "lognormal_tail":
        c, C, r2 = _fit_lognormal_tail(A, p_hat, n)
    else:
        raise BadArgumentError(f"unknown tail model {model!r}")
    return TailReport(
        A_grid=A, p_hat=p_hat, wilson_lo=np.asarray(lo),
        wilson_hi=np.asarray(hi), trials=n, model=model, c_fit=c, C_fit=C, r2=r2,
        statistics=stats_arr,
    )


def snapshot_tau_grid(spec: GridSpec) -> np.ndarray:
    """Heat-time grid of the eta^j snapshot checks: quarter cell to quarter box."""
    return geometric_grid(0.25 * spec.dx**2, (spec.L_box / 4) ** 2)


@lru_cache(maxsize=8)
def _ball_mask(spec: GridSpec, center: tuple, radius: float) -> np.ndarray:
    mask = periodic_distance_sq(spec, center) <= radius * radius
    mask.setflags(write=False)
    return mask


def ball_sites(spec: GridSpec, center: tuple, radius: float) -> tuple:
    return tuple(zip(*np.nonzero(_ball_mask(spec, tuple(center), radius))))


def _scale_ball(spec: GridSpec, probe: tuple, M: float, j: int):
    """The scale-j ball around probe (radius M^{j/2}) and M^{j(1+d_phi)}, which normalizes eta^j."""
    ball = _ball_mask(spec, tuple(probe), float(M) ** (j / 2))
    return ball, float(M) ** (j * (1 + scaling_dimension(spec.d)))


def tail_sup_eta(
    ensemble,
    j: int,
    A_grid: np.ndarray,
    probe: tuple,
    M: float,
    tau_grid: np.ndarray = None,
    min_trials: int = 100,
) -> TailReport:
    """Exceedance of sup over the scale ball of the heat-maximal of eta^j.

    The statistic is normalized by M^{j(1+d_phi)}, so the threshold grid is
    dimensionless; the tail is fitted by the Gaussian model exp(-c (A-C)^2).
    """

    def statistic(snap):
        ball, norm = _scale_ball(snap.spec, probe, M, j)
        return norm * float(star_maximal(snap, 0.0, tau_grid).values[ball].max())

    stats_arr = np.fromiter(map(statistic, ensemble), dtype=float)
    return tail_report_from_samples(stats_arr, A_grid, "gaussian_tail", min_trials)


def tail_exp_eta(
    ensemble,
    j: int,
    lam: float,
    A_grid: np.ndarray,
    probe: tuple,
    M: float,
    tau_grid: np.ndarray = None,
    min_trials: int = 100,
) -> TailReport:
    """Exceedance of (1/eps) sup over the scale ball of log (e^{lam M^j |eta^j|})^*.

    eps = lam M^{-j d_phi}; the tail is fitted by the log-normal model
    A^{-c log A}.
    """

    def statistic(snap):
        ball, norm = _scale_ball(snap.spec, probe, M, j)
        eps = lam * float(M) ** j / norm
        ls = log_star_exp(Field(snap.spec, lam * float(M) ** j * np.abs(snap.values)), tau_grid)
        return float(ls.values[ball].max()) / eps

    stats_arr = np.fromiter(map(statistic, ensemble), dtype=float)
    return tail_report_from_samples(stats_arr, A_grid, "lognormal_tail", min_trials)


def tail_quasinorm(
    trajectories,
    j: int,
    lam: float,
    A_grid: np.ndarray,
    M: float,
    probe: tuple,
    dt_grid: np.ndarray = None,
    tau_grid: np.ndarray = None,
    shift_set: tuple = None,
    min_trials: int = 16,
) -> TailReport:
    """Exceedance of the scale-j forcing quasi-norm (value + gradient parts),
    normalized by M^{j d_phi}; log-normal tail fit."""

    def statistic(traj):
        base, grad = forcing_quasinorm(
            traj, lam, M, j, traj.t_end(), [probe], dt_grid=dt_grid, tau_grid=tau_grid, shift_set=shift_set
        )
        return (base[0] + grad[0]) * float(M) ** (j * scaling_dimension(traj.spec.d))

    stats_arr = np.fromiter(map(statistic, trajectories), dtype=float)
    return tail_report_from_samples(stats_arr, A_grid, "lognormal_tail", min_trials)


# --- Nagaev bound for heavy-tailed sums ---------------------------------------

# calibration constants frozen from the reference runs (seed 2024, 2e5 trials);
# acceptance re-checks the bounds with these constants on fresh seeds
NAGAEV_K_CAL = 1.0


# Gauss-Legendre rule for the truncated moment: panels graded geometrically
# toward the branch point at |Z| = z0 (ratio 0.2, down to 0.2^25), then unit
# panels out to z0 + 40, the Gaussian tail's end
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MOMENT_EDGES = np.concatenate(([0.0], 0.2 ** np.arange(25.0, 0.0, -1.0), np.arange(1.0, 41.0)))


def exp_halfnormal_moments(eps: float, t: float):
    """Moments of X = e^{eps |Z|} - E[e^{eps |Z|}]: returns (mean_shift, EX2, EXt_pos).

    mean_shift = E[e^{eps|Z|}] = 2 e^{eps^2/2} Phi(eps) and EX2 are closed
    forms; the truncated t-th moment E[X^t 1_{X>0}], an integral over
    |Z| > z0 = log(mean_shift) / eps, is a fixed Gauss-Legendre rule in
    u = |Z| - z0, where X = mean_shift expm1(eps u).
    """
    m = 2 * math.exp(eps**2 / 2) * special.ndtr(eps)
    ex2 = 2 * math.exp(2 * eps**2) * special.ndtr(2 * eps) - m * m

    z0 = math.log(m) / eps  # X > 0 iff |Z| > z0
    lo, hi = _MOMENT_EDGES[:-1, None], _MOMENT_EDGES[1:, None]
    half = (hi - lo) / 2
    u = (lo + hi) / 2 + half * _GL_NODES
    f = (m * np.expm1(eps * u)) ** t * np.exp(-((z0 + u) ** 2) / 2)
    ext = math.sqrt(2 / math.pi) * float(np.sum(half * _GL_WEIGHTS * f))
    return m, ex2, ext


def nagaev_bound(n: int, eps: float, t: float, A: np.ndarray) -> np.ndarray:
    """Heavy-tail sum bound: n E[X^t 1_{X>0}] A^{-t} + exp(-2 (t+2)^{-2} e^{-t} A^2 / (n E X^2)),
    clamped at 1."""
    _, ex2, ext = exp_halfnormal_moments(eps, t)
    A = np.asarray(A, dtype=float)
    power = n * ext * A ** (-t)
    gauss = np.exp(-2 * (t + 2) ** -2 * math.exp(-t) * A**2 / (n * ex2))
    return np.minimum(1.0, power + gauss)


@dataclass
class BoundCheck:
    A_grid: np.ndarray
    p_hat: np.ndarray
    wilson_hi: np.ndarray
    bound: np.ndarray
    trials: int

    @property
    def resolved(self) -> np.ndarray:
        """Thresholds the trial count can judge: those with hits, and zero-hit
        ones whose bound dominates the upper Wilson limit.  Below that limit
        zero hits are what the bound predicts, not a violation of it."""
        return (self.p_hat > 0) | (NAGAEV_K_CAL * self.bound >= self.wilson_hi)

    @property
    def passed(self) -> bool:
        # some threshold resolved, and at every one with hits the empirical
        # tail is at most K_cal * bound
        hits = self.p_hat > 0
        return bool(self.resolved.any() and np.all(self.p_hat[hits] <= NAGAEV_K_CAL * self.bound[hits]))


def nagaev_thresholds(n: int, eps: float) -> np.ndarray:
    """Twelve geometric thresholds from 2 sqrt(n) eps, the scale of S_n, up to 20."""
    return np.geomspace(2 * math.sqrt(n) * eps, 20.0, 12)


def nagaev_check(
    n: int,
    eps: float,
    t_exponent: float,
    A_grid: np.ndarray,
    trials: int,
    seed: int = 0,
) -> BoundCheck:
    """Empirical tail of S_n = sum (e^{eps|Z_i|} - E e^{eps|Z|}) against the bound."""
    m, _, _ = exp_halfnormal_moments(eps, t_exponent)
    rng = np.random.default_rng(seed)
    A = np.asarray(A_grid, dtype=float)
    counts = np.zeros(len(A), dtype=np.int64)
    done = 0
    while done < trials:
        b = min(200_000, trials - done)  # sums drawn per batch
        z = np.abs(rng.standard_normal((b, n)))
        s = (np.exp(eps * z) - m).sum(axis=1)
        counts += (s[None, :] > A[:, None]).sum(axis=1)
        done += b
    p_hat = counts / trials
    hi = np.array([wilson_interval(int(k), trials)[1] for k in counts])
    bound = nagaev_bound(n, eps, t_exponent, A)
    return BoundCheck(A_grid=A, p_hat=p_hat, wilson_hi=hi, bound=bound, trials=trials)


def gaussian_sum_tail_exact(n: int, eps: float, A: float) -> float:
    """Exact tail P[S_1 > A] for n = 1 via the Gaussian law (oracle for tests)."""
    if n != 1:
        raise BadArgumentError("closed form only for n = 1")
    m, _, _ = exp_halfnormal_moments(eps, 2.0)
    if A + m <= 1:
        return 1.0
    return float(2 * special.ndtr(-math.log(A + m) / eps))


# --- coupled-vs-decoupled sum inequalities ------------------------------------


@dataclass(frozen=True)
class CubeConfig:
    """Layout of scale-j cubes with decaying couplings for the sum inequalities.

    centers are integer lattice points (units of the scaled cube side).
    Pairwise distances are the scaled set distances sup_{x in D} inf_{y in D'}
    |x - y|, which for equal axis-aligned cubes equal the Euclidean center
    distances, computed exactly.
    """

    n: int
    centers: tuple  # tuple of integer tuples
    c0: float
    z: tuple  # nonnegative weights, one per cube
    eps: float

    def __post_init__(self):
        if self.n > 16:
            raise BadArgumentError("exact enumeration supported for n <= 16")
        if self.n != len(self.centers) or self.n != len(self.z):
            raise BadArgumentError("centers and z must have length n")
        check_positive("c0", self.c0)
        if any(w < 0 for w in self.z):
            raise BadArgumentError("weights z must be nonnegative")

    def distances(self) -> np.ndarray:
        """Scaled pairwise set distances (exact on the lattice)."""
        pts = np.asarray(self.centers, dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))


def random_cube_config(n: int, c0: float, eps: float, rng, dim: int = 2) -> CubeConfig:
    """Random distinct cube centers on the even sublattice of a box of side 8
    (doubled until n fit), and weights uniform on [0, 3]."""
    box = 8
    while box**dim < n:
        box *= 2
    seen = set()
    while len(seen) < n:
        cand = tuple(int(2 * rng.integers(0, box)) for _ in range(dim))
        seen.add(cand)
    z = tuple(float(zv) for zv in rng.uniform(0.0, 3.0, size=n))
    return CubeConfig(n=n, centers=tuple(sorted(seen)), c0=c0, z=z, eps=eps)


MAYER_TOL = 1e-12  # relative and absolute slack of the exact Mayer inequalities


@dataclass
class MayerReport:
    s0_y: float
    rhs_expansion: float
    t_y: float
    t_z: float
    kappa: float

    @property
    def expansion_ok(self) -> bool:
        if math.isinf(self.rhs_expansion):
            return self.s0_y >= -MAYER_TOL
        return -MAYER_TOL <= self.s0_y <= self.rhs_expansion * (1 + MAYER_TOL) + MAYER_TOL

    @property
    def holder_ok(self) -> bool:
        bound = self.t_z ** (1 + self.kappa)
        if math.isinf(bound):
            return True
        return self.t_y <= bound * (1 + MAYER_TOL)


def mayer_check(cfg: CubeConfig) -> MayerReport:
    """Both deterministic inequalities between coupled and decoupled sums.

    y_D = sum_D' e^{-c0 d(D, D')} z_D';  S_delta((z)) = sum_D (e^{e^{-c0 delta} eps z_D} - 1);
    T(v) = sum_D e^{eps v_D}.  Checks, with delta ranging over the distinct
    pairwise distances of the layout (diagonal 0 included),

      0 <= S0((y)) <= sum_{m>=1} sum_{d1<...<dm} prod_p S_{dp}((z))
                    = prod_delta (1 + S_delta((z))) - 1
      T((y)) <= T((z))^{1 + kappa},  kappa = max_D sum_{D'!=D} e^{-c0 d(D,D')}

    all evaluated exactly.  The per-scale factor is the grouped sum

      S_delta((z)) = sum_D ( exp(eps e^{-c0 delta} Z_delta(D)) - 1 ),
      Z_delta(D) = sum of z_D' over the cubes at distance exactly delta from D,

    which reduces to the plain per-cube sum whenever each base sees at most
    one cube per distance.  Grouping is forced on finite layouts: any
    symmetric distance ties centrally-symmetric cube pairs, so the
    one-cube-per-distance indexation does not exist, and both the ungrouped
    and the factorial-weighted transcriptions of the expansion admit small
    counterexamples.
    The grouped bound is exact: e^{eps y_D} - 1 factorizes over the distinct
    distance values of the base D, each factor is bounded by the grouped sum
    over all bases, and the value tuples embed in the global distance set.
    Overflow saturates to +inf, which only weakens the right-hand sides; all
    terms are nonnegative so there is no cancellation.
    """
    D = cfg.distances()
    z = np.asarray(cfg.z, dtype=float)
    eps, c0 = cfg.eps, cfg.c0
    W = np.exp(-c0 * D)
    y = W @ z
    Dr = np.round(D, 12)
    with np.errstate(over="ignore"):
        s0_y = float(np.sum(np.expm1(eps * y)))
        t_y = float(np.sum(np.exp(eps * y)))
        t_z = float(np.sum(np.exp(eps * z)))
        # distinct delta values over all pairs, including the diagonal 0
        deltas = np.unique(Dr)
        G_delta = []
        for dl in deltas:
            Zg = (Dr == dl) @ z  # per-base sum of weights at distance exactly dl
            G_delta.append(float(np.sum(np.expm1(np.exp(-c0 * dl) * eps * Zg[Zg > 0]))))
        G_delta = np.asarray(G_delta)
        rhs_plain = float(np.prod(1.0 + G_delta) - 1.0)
    kappa = float(np.max((W - np.eye(cfg.n)) @ np.ones(cfg.n)))
    return MayerReport(
        s0_y=s0_y, rhs_expansion=rhs_plain,
        t_y=t_y, t_z=t_z, kappa=kappa,
    )


def mayer_sweep(trials: int, seed: int = 0) -> bool:
    """Both Mayer inequalities on `trials` random layouts of 1-16 cubes.

    Each layout draws its cube count, c0 in {2, 4}, eps in {0.1, 0.5} and a
    lattice dimension in 1..3.
    """
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        n = int(rng.integers(1, 17))
        c0, eps = float(rng.choice([2.0, 4.0])), float(rng.choice([0.1, 0.5]))
        rep = mayer_check(random_cube_config(n, c0, eps, rng, dim=int(rng.integers(1, 4))))
        ok &= rep.expansion_ok and rep.holder_ok
    return bool(ok)


# --- Gaussian concentration and comparison ------------------------------------


@dataclass
class SupConcentrationReport:
    u_grid: np.ndarray
    p_hat: np.ndarray
    stderr: np.ndarray
    bound: np.ndarray
    mean_sup: float
    sigma2: float
    trials: int

    @property
    def passed(self) -> bool:
        return bool(np.all(self.p_hat <= self.bound + 3 * self.stderr))


def btis_check(sampler: Callable, u_grid: np.ndarray, trials: int, seed: int = 0) -> SupConcentrationReport:
    """Concentration of the sup of a centered Gaussian process around its mean.

    sampler(rng) must return one realization as an array over the index set.
    The variance proxy sigma^2 is estimated as the max per-site sample
    variance; the bound is exp(-u^2 / (2 sigma^2)).
    """
    rng = np.random.default_rng(seed)
    sups = np.empty(trials)
    acc = None
    acc2 = None
    for i in range(trials):
        y = np.asarray(sampler(rng), dtype=float)
        sups[i] = np.abs(y).max()
        acc = y if acc is None else acc + y
        acc2 = y * y if acc2 is None else acc2 + y * y
    var_site = acc2 / trials - (acc / trials) ** 2
    sigma2 = float(var_site.max())
    mean_sup = float(sups.mean())
    u = np.asarray(u_grid, dtype=float)
    p_hat = np.array([(sups - mean_sup > uu).mean() for uu in u])
    stderr = np.sqrt(np.maximum(p_hat * (1 - p_hat), 1.0 / trials) / trials)
    bound = np.exp(-(u**2) / (2 * sigma2))
    return SupConcentrationReport(
        u_grid=u, p_hat=p_hat, stderr=stderr, bound=bound, mean_sup=mean_sup,
        sigma2=sigma2, trials=trials,
    )


def btis_ball_check(snapshots, probe: tuple, M: float, j: int) -> SupConcentrationReport:
    """BTIS for M^{j(1+d_phi)} eta^j over the scale-j ball at the probe, one snapshot per trial.

    The u grid runs from 0 to 3 sigma_hat, with sigma_hat the largest per-site
    sample deviation of the pool.
    """
    pool = []
    for snap in snapshots:
        ball, norm = _scale_ball(snap.spec, probe, M, j)
        pool.append(norm * snap.values[ball])
    sigma_hat = math.sqrt(float(np.var(np.stack(pool), axis=0).max()))
    it = iter(pool)
    return btis_check(lambda rng: next(it), np.linspace(0.0, 3 * sigma_hat, 10), len(pool))


@dataclass
class ComparisonReport:
    e_low: float
    e_high: float
    stderr: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.e_low <= self.e_high + 3 * self.stderr


def slepian_check(
    cov_low: np.ndarray, cov_high: np.ndarray, phi: Callable, trials: int, seed: int = 0
) -> ComparisonReport:
    """Monte-Carlo monotonicity of E[phi] in the covariance (convex phi).

    Uses common normal draws under both covariances (via symmetric square
    roots), which is unbiased and sharpens the comparison.
    """
    cl = np.asarray(cov_low, dtype=float)
    ch = np.asarray(cov_high, dtype=float)
    if not np.all(cl <= ch + 1e-12):
        raise BadArgumentError("cov_low must be entrywise <= cov_high")
    if not np.allclose(np.diag(cl), np.diag(ch)):
        raise BadArgumentError("covariances must share the diagonal")

    def sqrtm(c):
        w, v = np.linalg.eigh(c)
        w = np.maximum(w, 0.0)
        return v @ np.diag(np.sqrt(w)) @ v.T

    sl, sh = sqrtm(cl), sqrtm(ch)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((trials, cl.shape[0]))
    vl = np.apply_along_axis(phi, 1, z @ sl.T)
    vh = np.apply_along_axis(phi, 1, z @ sh.T)
    diff = vl - vh
    return ComparisonReport(
        e_low=float(vl.mean()), e_high=float(vh.mean()),
        stderr=float(diff.std(ddof=1) / math.sqrt(trials)), trials=trials,
    )


def slepian_nested(trials: int, seed: int = 0) -> ComparisonReport:
    """E|sum v| for 4 independent unit normals against 4 equicorrelated (rho 0.3) ones.

    |sum v| is convex and the covariances are nested at a fixed diagonal, so
    the expectation must increase.
    """
    high = 0.3 * np.ones((4, 4)) + 0.7 * np.eye(4)
    return slepian_check(np.eye(4), high, lambda v: float(abs(np.sum(v))), trials, seed=seed)


def union_average_check(X: np.ndarray, weights: np.ndarray, A: float) -> bool:
    """Sample-by-sample: {sum w_i X_i > A} is contained in {max X_i > A}.

    X has shape (trials, n); weights are nonnegative and sum to one.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise BadArgumentError("weights must be nonnegative and sum to one")
    avg = X @ w
    mx = X.max(axis=1)
    return bool(np.all(~((avg > A) & ~(mx > A))))
