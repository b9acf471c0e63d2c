import math

import numpy as np
import pytest

from kpzlab.grid import BadArgumentError, GridSpec, periodic_distance_sq
from kpzlab.heat import HeatParams
from kpzlab.ldp import (
    BoundCheck,
    CubeConfig,
    btis_ball_check,
    btis_check,
    exp_halfnormal_moments,
    gaussian_sum_tail_exact,
    mayer_check,
    nagaev_check,
    random_cube_config,
    scaling_dimension,
    slepian_check,
    tail_exp_eta,
    tail_report_from_samples,
    tail_sup_eta,
    union_average_check,
    wilson_interval,
)
from kpzlab.maximal import geometric_grid
from kpzlab.noise import NoiseParams, build_partition, eta_history_ensemble, eta_snapshot_ensemble


def test_scaling_dimension():
    assert scaling_dimension(3) == 0.25
    assert scaling_dimension(2) == 0.0


def test_wilson_interval_basic():
    lo, hi = wilson_interval(5, 100)
    assert 0 < lo < 0.05 < hi < 0.15
    lo0, hi0 = wilson_interval(0, 1000)
    assert lo0 == 0.0 and 0 < hi0 < 0.01


def test_tail_report_trivia(rng):
    stats = np.abs(rng.standard_normal(500))
    rep = tail_report_from_samples(stats, np.array([0.0, 0.5, 1.0, 2.0]), "gaussian_tail")
    assert rep.p_hat[0] == 1.0  # nonnegative statistic always exceeds 0
    assert np.all(np.diff(rep.p_hat) <= 0)
    assert np.all((rep.wilson_lo <= rep.p_hat) & (rep.p_hat <= rep.wilson_hi))


# --- eta^j tails -----------------------------------------------------------------


def _snapshot_pool(trials=250, j=2, seed=5):
    spec = GridSpec(d=3, N=16, L_box=16.0)
    params = NoiseParams(spec=spec, dt=0.5, seed=seed)
    sd = build_partition(2.0, j)
    return list(eta_snapshot_ensemble(params, sd, j, trials, HeatParams(nu=0.5))), spec


def test_tail_sup_eta_reports(rng):
    snaps, spec = _snapshot_pool()
    tau = geometric_grid(0.25 * spec.dx**2, (spec.L_box / 4) ** 2)
    A = np.linspace(0.0, 20.0, 11)
    rep = tail_sup_eta(snaps, 2, A, (0, 0, 0), 2.0, tau_grid=tau, min_trials=100)
    assert rep.p_hat[0] == 1.0
    assert np.all(np.diff(rep.p_hat) <= 0)
    assert rep.c_fit >= 0


def test_tail_sup_eta_too_few():
    snaps, spec = _snapshot_pool(trials=20)
    with pytest.raises(BadArgumentError):
        tail_sup_eta(snaps, 2, np.array([1.0]), (0, 0, 0), 2.0, min_trials=100)


def test_tail_exp_eta_small_lambda_reduces_to_sup(rng):
    # first-order expansion of log(exp(.)) at lambda -> 0 recovers the plain
    # maximal statistic within 2%
    snaps, spec = _snapshot_pool(trials=60)
    tau = geometric_grid(0.25 * spec.dx**2, (spec.L_box / 4) ** 2)
    probe = (0, 0, 0)
    A = np.array([1.0])
    rep_exp = tail_exp_eta(snaps, 2, 1e-3, A, probe, 2.0, tau_grid=tau, min_trials=10)
    rep_sup = tail_sup_eta(snaps, 2, A, probe, 2.0, tau_grid=tau, min_trials=10)
    rel = np.abs(rep_exp.statistics - rep_sup.statistics) / rep_sup.statistics
    assert np.median(rel) < 0.02


def test_tail_quasinorm_finite_and_scaled():
    # a.s. finiteness plus stability of the normalized medians across scales
    from kpzlab.ldp import tail_quasinorm

    spec = GridSpec(d=3, N=16, L_box=16.0)
    p_heat = HeatParams(nu=0.5)
    med = {}
    for j in (2, 3):
        params = NoiseParams(spec=spec, dt=2.0 ** j / 8, seed=97)
        sd = build_partition(2.0, j)
        trajs = eta_history_ensemble(params, sd, j, 48, p_heat, T_traj=8 * 2.0**j)
        rep = tail_quasinorm(
            list(trajs), j, 1.0, np.array([1.0, 2.0]), 2.0, (0, 0, 0),
            dt_grid=geometric_grid(2.0**j / 4, 2.0**j),
            tau_grid=geometric_grid(0.25 * spec.dx**2, (spec.L_box / 4) ** 2),
            shift_set=((1, 0, 0),),
            min_trials=16,
        )
        assert np.all(np.isfinite(rep.statistics))
        med[j] = float(np.median(rep.statistics))
    assert abs(med[3] / med[2] - 1) < 0.30


# --- Nagaev ----------------------------------------------------------------------


def test_exp_halfnormal_moments_against_quadrature():
    from scipy import integrate, stats

    eps = 0.05
    m, ex2, ext = exp_halfnormal_moments(eps, 2.0)
    m_q, _ = integrate.quad(lambda z: math.exp(eps * z) * 2 * stats.norm.pdf(z), 0, 40)
    assert m == pytest.approx(m_q, rel=1e-10)
    ex2_q, _ = integrate.quad(
        lambda z: (math.exp(eps * z) - m_q) ** 2 * 2 * stats.norm.pdf(z), 0, 40
    )
    assert ex2 == pytest.approx(ex2_q, rel=1e-8)
    for eps in (0.01, 0.05, 0.3, 1.0, 2.0):
        for t in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0):
            m, ex2, ext = exp_halfnormal_moments(eps, t)
            # the closed forms as stats.norm.cdf gives them
            assert m == 2 * math.exp(eps**2 / 2) * stats.norm.cdf(eps)
            assert ex2 == 2 * math.exp(2 * eps**2) * stats.norm.cdf(2 * eps) - m * m
            z0 = math.log(m) / eps

            def integrand(z):
                return (math.exp(eps * z) - m) ** t * 2 * stats.norm.pdf(z)

            ext_q, _ = integrate.quad(integrand, z0, z0 + 40, epsabs=1e-13, limit=400)
            assert ext == pytest.approx(ext_q, rel=1e-10), (eps, t)


def test_gaussian_sum_tail_exact_is_the_normal_tail():
    from scipy import stats

    m = exp_halfnormal_moments(0.05, 2.0)[0]
    for A in (0.1, 0.7, 3.0):
        assert gaussian_sum_tail_exact(1, 0.05, A) == float(2 * stats.norm.sf(math.log(A + m) / 0.05))


def test_nagaev_single_matches_exact_law():
    eps = 0.05
    A = np.geomspace(0.1, 3.0, 8)
    chk = nagaev_check(1, eps, 2.0, A, trials=100_000, seed=3)
    for a, ph in zip(A, chk.p_hat):
        exact = gaussian_sum_tail_exact(1, eps, a)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
        assert abs(ph - exact) < 4 * se + 1e-6


def test_nagaev_bound_clamped_below_mean():
    chk = nagaev_check(16, 0.05, 2.0, np.array([1e-4]), trials=2000, seed=1)
    assert chk.bound[0] == 1.0
    assert chk.p_hat[0] <= 1.0


def test_nagaev_unresolved_thresholds_do_not_decide():
    hi0 = wilson_interval(0, 1000)[1]
    A = np.array([1.0, 2.0, 3.0])

    def check(p_hat, bound):
        p_hat = np.asarray(p_hat, dtype=float)
        hi = np.array([wilson_interval(round(p * 1000), 1000)[1] for p in p_hat])
        return BoundCheck(A_grid=A, p_hat=p_hat, wilson_hi=hi, bound=np.asarray(bound, dtype=float), trials=1000)

    # zero hits under a bound below the zero-hit limit: unresolved, not failed
    chk = check([0.01, 0.0, 0.0], [0.5, hi0, hi0 / 2])
    assert chk.resolved.tolist() == [True, True, False] and chk.passed
    # a hit above its bound still fails
    assert not check([0.01, 0.0, 0.0], [0.005, hi0, hi0 / 2]).passed
    # nothing resolved: nothing passes
    assert not check([0.0, 0.0, 0.0], [hi0 / 2] * 3).passed


def test_nagaev_domination_desk_scale():
    A = np.geomspace(2 * math.sqrt(64) * 0.05, 20.0, 12)
    chk = nagaev_check(64, 0.05, 2.0, A, trials=100_000, seed=7)
    assert chk.passed


# --- coupled-sum inequalities -------------------------------------------------------


def test_mayer_single_cube_equality():
    cfg = CubeConfig(n=1, centers=((0, 0),), c0=2.0, z=(1.5,), eps=0.5)
    rep = mayer_check(cfg)
    assert rep.s0_y == pytest.approx(rep.rhs_expansion, rel=1e-12)
    assert rep.expansion_ok and rep.holder_ok


def test_mayer_zero_weights():
    cfg = CubeConfig(n=3, centers=((0, 0), (2, 0), (0, 2)), c0=2.0, z=(0.0, 0.0, 0.0), eps=0.5)
    rep = mayer_check(cfg)
    assert rep.s0_y == 0.0 and rep.expansion_ok


def test_mayer_layout_guard():
    with pytest.raises(BadArgumentError):
        CubeConfig(n=17, centers=((0,),) * 17, c0=1.0, z=(0.0,) * 17, eps=0.1)


def test_mayer_random_configs_exact(rng):
    for _ in range(400):
        n = int(rng.integers(1, 17))
        cfg = random_cube_config(
            n, float(rng.choice([2.0, 4.0])), float(rng.choice([0.1, 0.5])), rng,
            dim=int(rng.integers(1, 4)),
        )
        rep = mayer_check(cfg)
        assert rep.expansion_ok, (cfg, rep.s0_y, rep.rhs_expansion)
        assert rep.holder_ok


# --- Gaussian concentration and comparison --------------------------------------------


def test_btis_single_point_is_gaussian_tail():
    # one-site process: the sup is |Z| and the bound is the exact folded tail shape
    from scipy import stats

    rng_master = np.random.default_rng(0)
    rep = btis_check(lambda rng: rng.standard_normal(1), np.linspace(0, 2.5, 6), 50_000, seed=2)
    assert rep.sigma2 == pytest.approx(1.0, rel=0.05)
    for u, ph in zip(rep.u_grid, rep.p_hat):
        exact = float(2 * stats.norm.sf(u + rep.mean_sup))
        assert abs(ph - exact) < 0.01
    assert rep.passed


def test_btis_zero_threshold_trivial():
    rep = btis_check(lambda rng: rng.standard_normal(4), np.array([0.0]), 2000, seed=3)
    assert rep.bound[0] == 1.0 and rep.passed


def test_btis_ball_check_is_btis_on_the_normalized_pool():
    # criterion 9's pool: the scale-j ball (radius M^{j/2}) of each snapshot, times M^{j(1+d_phi)}
    snaps, spec = _snapshot_pool(trials=40)
    M, j, probe = 2.0, 2, (0, 0, 0)
    ball = periodic_distance_sq(spec, probe) <= M**j
    pool = [M ** (j * (1 + scaling_dimension(3))) * s.values[ball] for s in snaps]
    sigma_hat = math.sqrt(float(np.var(np.stack(pool), axis=0).max()))
    it = iter(pool)
    ref = btis_check(lambda rng: next(it), np.linspace(0.0, 3 * sigma_hat, 10), len(pool))
    rep = btis_ball_check(snaps, probe, M, j)
    for name in ("u_grid", "p_hat", "stderr", "bound", "mean_sup", "sigma2", "trials"):
        assert np.array_equal(getattr(rep, name), getattr(ref, name)), name


def test_slepian_two_point_oracle():
    # phi = |z1 + z2|: E = sqrt(2 s^2 / pi) with s^2 = sum of covariance entries
    cl = np.eye(2)
    ch = np.array([[1.0, 0.5], [0.5, 1.0]])
    rep = slepian_check(cl, ch, lambda v: abs(v[0] + v[1]), 40_000, seed=1)
    assert rep.passed
    assert rep.e_low == pytest.approx(math.sqrt(2 * 2 / math.pi), rel=0.02)
    assert rep.e_high == pytest.approx(math.sqrt(2 * 3 / math.pi), rel=0.02)


def test_slepian_equal_covariances():
    ch = np.array([[1.0, 0.3], [0.3, 1.0]])
    rep = slepian_check(ch, ch, lambda v: max(v), 5000, seed=2)
    assert rep.e_low == rep.e_high


def test_slepian_nested_random_covariances(rng):
    # convex functions of nonnegative combinations are monotone under
    # entrywise covariance ordering at fixed diagonal
    for _ in range(3):
        n = 4
        w = rng.uniform(0.5, 1.0, n)
        rho = rng.uniform(0.1, 0.4)
        ch = np.full((n, n), rho) + (1 - rho) * np.eye(n)
        cl = np.full((n, n), rho / 2) + (1 - rho / 2) * np.eye(n)
        rep = slepian_check(cl, ch, lambda v: abs(float(w @ v)), 20_000, seed=int(rng.integers(1e6)))
        assert rep.passed


def test_slepian_validates_inputs():
    with pytest.raises(ValueError):
        slepian_check(np.eye(2) * 2, np.eye(2), lambda v: v[0], 10)
    with pytest.raises(ValueError):
        slepian_check(np.eye(2), np.eye(2) * 2, lambda v: v[0], 10)  # diagonal differs


def test_union_average_containment(rng):
    X = rng.standard_normal((2000, 5))
    w = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    for A in (-0.5, 0.0, 0.5, 2.0):
        assert union_average_check(X, w, A)
    with pytest.raises(ValueError):
        union_average_check(X, np.array([0.5, 0.5, 0.5, -0.25, -0.25]), 1.0)


def test_wilson_coverage_across_seeds():
    # intervals from one run cover an independent re-run at >= 90% of points
    snaps_a, spec = _snapshot_pool(trials=300, seed=5)
    snaps_b, _ = _snapshot_pool(trials=300, seed=99)
    tau = geometric_grid(0.25 * spec.dx**2, (spec.L_box / 4) ** 2)
    A = np.linspace(2.0, 16.0, 9)
    rep_a = tail_sup_eta(snaps_a, 2, A, (0, 0, 0), 2.0, tau_grid=tau, min_trials=100)
    rep_b = tail_sup_eta(snaps_b, 2, A, (0, 0, 0), 2.0, tau_grid=tau, min_trials=100)
    # the re-run carries its own interval: agreement means the bands overlap
    # (point-in-interval coverage of an independent estimate is only ~83%
    # by construction, so band overlap is the reproducibility statement)
    overlap = np.mean(
        (rep_b.wilson_hi >= rep_a.wilson_lo) & (rep_b.wilson_lo <= rep_a.wilson_hi)
    )
    assert overlap >= 0.9
