import math
from dataclasses import replace

import numpy as np
import pytest

from kpzlab.grid import BadArgumentError, Field, GridSpec, InsufficientHistoryError, SpaceTimeField, zero_field
from kpzlab.heat import HeatParams, green_apply, random_smooth_field
from kpzlab.noise import (
    NoiseParams,
    build_partition,
    chi_self_convolution_zero,
    empirical_covariance,
    eta_history_ensemble,
    eta_scale,
    ou_field,
    ou_horizon,
    sample_noise,
    scale_field_trajectory,
    smooth_step,
)

P1 = HeatParams(nu=1.0)


# --- partition of unity --------------------------------------------------------


def test_partition_sums_to_one():
    sd = build_partition(2.0, 6)
    s = np.geomspace(1e-3, 2.0**6, 4000)
    total = sd.partition_values(s).sum(axis=0)
    assert np.abs(total - 1.0).max() < 1e-12


def test_partition_peak_values():
    sd = build_partition(2.0, 5)
    for j in range(6):
        assert sd.chi_bar(j, 2.0**j) == pytest.approx(1.0, abs=1e-14)


def test_partition_disjoint_two_apart():
    sd = build_partition(2.0, 6)
    s = np.geomspace(1e-3, 2.0**7, 5000)
    assert np.max(sd.chi_bar(2, s) * sd.chi_bar(4, s)) == 0.0


def test_partition_support():
    sd = build_partition(3.0, 4)
    for j in (1, 2, 3):
        lo, hi = sd.support(j)
        s_out = np.array([lo * 0.999, hi * 1.001])
        assert np.all(sd.chi_bar(j, s_out) == 0.0)


def test_invalid_scale_parameter():
    with pytest.raises(BadArgumentError):
        build_partition(1.0, 3)
    with pytest.raises(BadArgumentError):
        build_partition(2.0, -1)


def test_smooth_step_endpoints():
    assert smooth_step(-0.5) == 0.0 and smooth_step(1.5) == 1.0
    u = np.linspace(0.05, 0.95, 100)
    v = smooth_step(u)
    assert np.all(np.diff(v) > 0)
    assert np.allclose(v + smooth_step(1 - u), 1.0, atol=1e-14)


# --- noise sampling --------------------------------------------------------------


def test_sample_noise_deterministic(spec1d):
    params = NoiseParams(spec=spec1d, dt=0.1, seed=42)
    a = sample_noise(params, 1.0)
    b = sample_noise(params, 1.0)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.values, fb.values)


def test_sample_noise_overlap_consistent(spec1d):
    params = NoiseParams(spec=spec1d, dt=0.1, seed=42)
    a = sample_noise(params, 1.0)
    c = sample_noise(params, 0.5, t0=0.5)
    assert np.array_equal(c.frames[0].values, a.frames[5].values)


def test_sample_noise_replicates_differ(spec1d):
    a = sample_noise(NoiseParams(spec=spec1d, dt=0.1, seed=42, replicate=0), 0.2)
    b = sample_noise(NoiseParams(spec=spec1d, dt=0.1, seed=42, replicate=1), 0.2)
    assert not np.array_equal(a.frames[0].values, b.frames[0].values)


def test_noise_mean_centered():
    spec = GridSpec(d=1, N=64, L_box=32.0)
    vals = []
    for r in range(200):
        p = NoiseParams(spec=spec, dt=0.05, seed=9, replicate=r)
        e = sample_noise(p, 0.2)
        vals.extend(f.values[7] for f in e.frames)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se


def test_noise_variance_matches_mollifier():
    # Var(eta) * dt -> (chi * chi)(0) within 5%
    spec = GridSpec(d=2, N=32, L_box=16.0)
    target = chi_self_convolution_zero(spec)
    acc = []
    for r in range(40):
        p = NoiseParams(spec=spec, dt=0.05, seed=7, replicate=r)
        e = sample_noise(p, 0.45)
        acc.extend(f.values.var() * 0.05 for f in e.frames)
    assert abs(np.mean(acc) - target) / target < 0.05


# --- per-scale fields --------------------------------------------------------------


def test_scale_field_zero(spec1d):
    sd = build_partition(2.0, 3)
    n = int(2.0**4 / 0.25) + 1
    eta = SpaceTimeField(spec=spec1d, dt=0.25, frames=(zero_field(spec1d),) * n, t0=0.0)
    out = scale_field_trajectory(eta, sd, 2, [(n - 1) * 0.25], P1)[0]
    assert np.abs(out.values).max() == 0.0


def test_scale_field_telescoping(rng, spec1d):
    # sum over scales equals the plain Green response when the history
    # beyond the covered band is zero
    sd = build_partition(2.0, 3)
    dt = 0.125
    n = int(2.0**4 / dt) + 1
    t_eval = (n - 1) * dt
    frames = []
    for k in range(n):
        s_lag = t_eval - k * dt
        frames.append(random_smooth_field(spec1d, rng) if s_lag <= 2.0**3 else zero_field(spec1d))
    eta = SpaceTimeField(spec=spec1d, dt=dt, frames=tuple(frames), t0=0.0)
    total = np.zeros(spec1d.shape)
    for j in range(4):
        total += scale_field_trajectory(eta, sd, j, [t_eval], P1)[0].values
    ref = green_apply(eta, t_eval, P1)
    assert np.abs(total - ref.values).max() < 1e-10


def test_scale_field_linearity(rng, spec1d):
    sd = build_partition(2.0, 2)
    dt = 0.125
    n = int(2.0**3 / dt) + 1
    t_eval = (n - 1) * dt
    ea = sample_noise(NoiseParams(spec=spec1d, dt=dt, seed=1), t_eval)
    eb = sample_noise(NoiseParams(spec=spec1d, dt=dt, seed=2), t_eval)
    comb = SpaceTimeField(
        spec=spec1d, dt=dt,
        frames=tuple(Field(spec1d, 2 * a.values - 3 * b.values) for a, b in zip(ea.frames, eb.frames)),
        t0=0.0,
    )
    sa = scale_field_trajectory(ea, sd, 1, [t_eval], P1)[0].values
    sb = scale_field_trajectory(eb, sd, 1, [t_eval], P1)[0].values
    sc = scale_field_trajectory(comb, sd, 1, [t_eval], P1)[0].values
    assert np.abs(sc - (2 * sa - 3 * sb)).max() < 1e-12


def test_scale_field_single_impulse(rng, spec1d):
    # one nonzero frame: quadrature reduces to one weighted heat application
    from kpzlab.heat import heat_apply

    sd = build_partition(2.0, 2)
    dt = 0.25
    n = int(2.0**3 / dt) + 1
    t_eval = (n - 1) * dt
    imp = random_smooth_field(spec1d, rng)
    k_imp = n // 2
    frames = [zero_field(spec1d)] * n
    frames[k_imp] = imp
    eta = SpaceTimeField(spec=spec1d, dt=dt, frames=tuple(frames), t0=0.0)
    s_lag = t_eval - k_imp * dt
    out = scale_field_trajectory(eta, sd, 2, [t_eval], P1)[0]
    expect = sd.chi_bar(2, s_lag) * dt * heat_apply(imp, s_lag, P1).values
    assert np.abs(out.values - expect).max() < 1e-12


def test_scale_field_insufficient_history(spec1d):
    sd = build_partition(2.0, 3)
    eta = SpaceTimeField(spec=spec1d, dt=0.5, frames=(zero_field(spec1d),) * 4, t0=0.0)
    with pytest.raises(InsufficientHistoryError):
        scale_field_trajectory(eta, sd, 3, [1.5], P1)


def test_scale_field_needs_a_time(spec1d):
    sd = build_partition(2.0, 3)
    eta = SpaceTimeField(spec=spec1d, dt=0.5, frames=(zero_field(spec1d),) * 4, t0=0.0)
    with pytest.raises(BadArgumentError, match="scale_field_trajectory needs at least one time"):
        scale_field_trajectory(eta, sd, 3, [], P1)


def test_empirical_covariance_needs_a_pair(spec1d):
    params = NoiseParams(spec=spec1d, dt=0.5, seed=0)
    with pytest.raises(BadArgumentError, match="empirical_covariance needs at least one scale pair"):
        empirical_covariance(params, build_partition(2.0, 3), pairs=[], S=2, p=P1)


def test_eta_scale_zero(spec1d):
    phi = SpaceTimeField(spec=spec1d, dt=0.1, frames=(zero_field(spec1d),) * 5, t0=0.0)
    out = eta_scale(phi, P1)
    assert max(np.abs(f.values).max() for f in out.frames) == 0.0


def test_eta_scale_annihilates_heat_solution():
    spec = GridSpec(d=1, N=128, L_box=32.0)
    k = 2 * np.pi / spec.L_box * 3
    x = spec.axis_coords()
    dt = 0.01
    frames = tuple(
        Field(spec, math.exp(-k * k * (m * dt)) * np.sin(k * x)) for m in range(40)
    )
    phi = SpaceTimeField(spec=spec, dt=dt, frames=frames, t0=0.0)
    res = eta_scale(phi, P1)
    mid = np.abs(res.frames[20].values).max()
    assert mid < 10 * dt**2 * k**4  # O(dt^2) stencil error scale


def test_eta_scale_needs_three_frames(spec1d):
    phi = SpaceTimeField(spec=spec1d, dt=0.1, frames=(zero_field(spec1d),) * 2, t0=0.0)
    with pytest.raises(BadArgumentError):
        eta_scale(phi, P1)


# --- covariance diagnostics ---------------------------------------------------------


def test_covariance_scalings_d3():
    # desk-scale check of the per-scale variance ratio M^{2 d_phi} = sqrt(2)
    # at d = 3, M = 2, and of the gradient's extra M^{-1} per-scale factor
    spec = GridSpec(d=3, N=32, L_box=32.0)
    params = NoiseParams(spec=spec, dt=0.5, seed=11)
    sd = build_partition(2.0, 4)
    tab = empirical_covariance(
        params, sd, pairs=[(2, 2), (3, 3), (4, 4), (2, 3), (2, 4)], S=120,
        p=HeatParams(nu=0.25),
    )
    target = 2.0**0.5
    for (ja, jb) in ((2, 3), (3, 4)):
        ratio = tab.var[ja] / tab.var[jb]
        assert 0.75 * target <= ratio <= 1.25 * target

    g_ratio = [tab.grad_var[j] / tab.var[j] for j in (2, 3, 4)]
    for a, b in zip(g_ratio, g_ratio[1:]):
        assert 0.7 * 0.5 <= b / a <= 1.3 * 0.5  # ~ M^{-1} per scale

    def corr(j, j2):
        return abs(tab.entries[(j, j2)].cov) / math.sqrt(tab.var[j] * tab.var[j2])

    assert corr(2, 2) > corr(2, 3) > corr(2, 4)


def test_covariance_probe_rounded_onto_frame_grid():
    # dt = 0.37 does not divide the horizon M^(j_max+1) = 16, so the probe
    # goes up to frame ceil(16 / dt) + 2 = 46 instead of the off-grid 16 + 2 dt
    spec = GridSpec(d=1, N=32, L_box=16.0)
    params = NoiseParams(spec=spec, dt=0.37, seed=5)
    sd = build_partition(2.0, 3)
    tab = empirical_covariance(params, sd, pairs=[(3, 3)], S=2, p=P1)
    t_probe = 46 * params.dt
    expect = np.mean([
        scale_field_trajectory(sample_noise(replace(params, replicate=r), t_probe), sd, 3, [t_probe], P1)[0].values.var()
        for r in range(2)
    ])
    assert tab.var[3] == pytest.approx(expect, rel=1e-12)


def test_eta_history_starts_at_the_covariance_probe_frame():
    # M 3, j 1, dt 0.36: the horizon 9 over dt lands just above 25, so both
    # probes go to frame 25 + 2 = 27, where the history's former rule
    # ceil((9 + 2 dt) / dt) started it at frame 28
    spec = GridSpec(d=1, N=16, L_box=8.0)
    params = NoiseParams(spec=spec, dt=0.36, seed=5)
    sd = build_partition(3.0, 1)
    k = round(next(eta_history_ensemble(params, sd, 1, 1, P1, T_traj=0.0)).t0 / params.dt)
    tab = empirical_covariance(params, sd, pairs=[(1, 1)], S=2, p=P1)
    t_probe = k * params.dt
    expect = np.mean([
        scale_field_trajectory(sample_noise(replace(params, replicate=r), t_probe), sd, 1, [t_probe], P1)[0].values.var()
        for r in range(2)
    ])
    assert k == 27
    assert tab.var[1] == pytest.approx(expect, rel=1e-12)


def test_eta_spatial_increments_bounded():
    # E[(eta^j(x) - eta^j(y))^2] / |x-y|^2 stays bounded at sub-scale separations
    spec = GridSpec(d=3, N=16, L_box=16.0)
    params = NoiseParams(spec=spec, dt=0.25, seed=3)
    sd = build_partition(2.0, 2)
    from kpzlab.noise import eta_snapshot_ensemble

    snaps = list(eta_snapshot_ensemble(params, sd, 2, 60, HeatParams(nu=0.5)))
    ratios = []
    for sep in (1, 2):
        acc = []
        for s in snaps:
            d2 = (np.roll(s.values, -sep, axis=0) - s.values) ** 2
            acc.append(d2.mean())
        ratios.append(np.mean(acc) / (sep * spec.dx) ** 2)
    assert np.isfinite(ratios).all()
    assert 0.25 <= ratios[1] / ratios[0] <= 4.0


# --- stationary response ---------------------------------------------------------


def test_ou_field_rejects_low_dimension(spec1d):
    eta = SpaceTimeField(spec=spec1d, dt=0.5, frames=(zero_field(spec1d),) * 4, t0=0.0)
    with pytest.raises(BadArgumentError):
        ou_field(eta, P1, 1.5)


def test_ou_field_zero():
    spec = GridSpec(d=3, N=8, L_box=8.0)
    p = HeatParams(nu=1.0)
    n = int(ou_horizon(spec, p.nu) / 0.5) + 3
    eta = SpaceTimeField(spec=spec, dt=0.5, frames=(zero_field(spec),) * n, t0=0.0)
    out = ou_field(eta, p, (n - 1) * 0.5)
    assert np.abs(out.values).max() == 0.0


def test_ou_field_insufficient_history():
    spec = GridSpec(d=3, N=8, L_box=8.0)
    eta = SpaceTimeField(spec=spec, dt=0.5, frames=(zero_field(spec),) * 4, t0=0.0)
    with pytest.raises(InsufficientHistoryError):
        ou_field(eta, P1, 1.5)


def test_ou_variance_stabilizes_with_horizon():
    # truncating the same noise realization at the documented horizon vs
    # twice that horizon changes the site variance by far less than 2%
    spec = GridSpec(d=3, N=16, L_box=16.0)
    p = HeatParams(nu=0.5)
    dt = 0.5
    H = ou_horizon(spec, p.nu)
    n_half = int(H / dt) + 2
    n = 2 * n_half
    params = NoiseParams(spec=spec, dt=dt, seed=31)
    eta = sample_noise(params, n * dt)
    t_eval = n * dt
    v_full = ou_field(eta, p, t_eval).values.var()
    short = SpaceTimeField(
        spec=spec, dt=dt, frames=eta.frames[n - n_half:], t0=(n - n_half) * dt
    )
    v_half = ou_field(short, p, t_eval).values.var()
    assert abs(v_full - v_half) / v_full < 0.02


def test_ou_static_covariance_power():
    # radial decay consistent with |x|^{2-d}: the torus has an additive
    # neutralizing constant, so fit C(r) = A r^{-p} - c over a window
    # between the mollification scale and the box scale
    from kpzlab.grid import _AXES

    spec = GridSpec(d=3, N=64, L_box=64.0)
    p = HeatParams(nu=4.0)
    dt = 1.0
    H = ou_horizon(spec, p.nu)
    t = (int(H / dt) + 1) * dt
    acc = None
    reps = 5
    for r in range(reps):
        params = NoiseParams(spec=spec, dt=dt, seed=77, replicate=r)
        eta = sample_noise(params, t + dt)
        phi = ou_field(eta, p, t).values
        ph = np.fft.rfftn(phi)
        ac = np.fft.irfftn(np.abs(ph) ** 2, s=spec.shape, axes=_AXES(spec.shape)) / spec.n_sites
        acc = ac if acc is None else acc + ac
    acc /= reps
    r_fit = np.array([5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    covs = np.array([acc[(int(s), 0, 0)] for s in r_fit])
    assert np.all(covs > 0)
    best = None
    for pw in np.linspace(0.3, 2.5, 221):
        X = np.stack([r_fit**-pw, -np.ones_like(r_fit)], axis=1)
        coef, *_ = np.linalg.lstsq(X, covs, rcond=None)
        ss = float(((covs - X @ coef) ** 2).sum())
        if best is None or ss < best[0]:
            best = (ss, pw)
    assert 0.7 <= best[1] <= 1.3
