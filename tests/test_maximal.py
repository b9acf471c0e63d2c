import numpy as np
import pytest

from kpzlab.grid import Field, GridSpec, constant_field, make_bump, zero_field
from kpzlab.heat import HeatParams, heat_apply, random_smooth_field
from kpzlab.maximal import (
    default_shift_set,
    default_tau_grid,
    equivalence_constants,
    forcing_quasinorm,
    geometric_grid,
    h_lambda_norm,
    log_star_exp,
    sharp_maximal,
    star_maximal,
    w1inf_lambda_norm,
)
from kpzlab.noise import bump_profile
from kpzlab.grid import SpaceTimeField


def test_star_zero(spec1d):
    assert star_maximal(zero_field(spec1d), 0.0).values.max() == 0.0


def test_star_constant(spec1d):
    prof = star_maximal(constant_field(spec1d, 1.0), 0.0).values
    assert np.abs(prof - 1.0).max() < 1e-12


def test_star_indicator_center(spec1d):
    b = make_bump(spec1d, 1.0, 1.0)
    prof = star_maximal(b, 0.0).values
    center = (spec1d.N // 2,)
    # the tau -> 0 endpoint attains the sup; smoothing only contracts
    assert prof[center] == pytest.approx(1.0, abs=1e-12)


def test_star_lower_bound_and_alpha_order(rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    p0 = star_maximal(f, 0.0).values
    assert np.all(p0 >= np.abs(f.values) - 1e-12)
    tau = default_tau_grid(spec1d)
    p1 = star_maximal(f, 0.3, tau).values
    p2 = star_maximal(f, 0.6, tau).values
    assert np.all(p2 >= p1 - 1e-12) and np.all(p1 >= p0 - 1e-12)


def test_sharp_constant(spec1d):
    prof = sharp_maximal(constant_field(spec1d, -2.0), 0.0).values
    assert np.abs(prof - 2.0).max() < 1e-12


def test_sharp_offset_indicator_brute_force():
    # probe at distance 2 from a unit ball: brute-force dense-rho scan oracle
    spec = GridSpec(d=1, N=256, L_box=64.0)
    b = make_bump(spec, 1.0, 1.0)
    probe_x = spec.L_box / 2 + 2.0
    probe = (int(round(probe_x / spec.dx)),)
    rho_dense = np.linspace(spec.dx, spec.L_box / 2 * 0.999, 4000)
    x = spec.axis_coords()
    best = 0.0
    for rho in rho_dense:
        dist = np.abs(x - probe_x)
        dist = np.minimum(dist, spec.L_box - dist)
        sel = dist <= rho
        best = max(best, b.values[sel].mean())
    prof = sharp_maximal(b, 0.0, rho_grid=rho_dense).values
    assert prof[probe] == pytest.approx(best, rel=1e-12)


def test_sharp_alpha_monotone(rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    a = sharp_maximal(f, 0.1).values
    b = sharp_maximal(f, 0.3).values
    assert np.all(b >= a - 1e-12)


def test_equivalence_constants_properties(rng, spec1d):
    f = Field(spec1d, np.abs(random_smooth_field(spec1d, rng).values) + 0.1)
    c, C = equivalence_constants(f, 0.0)
    assert 0 < c <= C < np.inf
    c2, C2 = equivalence_constants(Field(spec1d, 2 * f.values), 0.0)
    assert c2 == pytest.approx(c, rel=1e-12) and C2 == pytest.approx(C, rel=1e-12)


def test_equivalence_ensemble_stable(rng):
    spreads = {}
    for N in (128, 256):
        spec = GridSpec(d=1, N=N, L_box=32.0)
        cs, Cs = [], []
        for _ in range(10):
            f = Field(spec, np.abs(random_smooth_field(spec, rng, corr_len=1.0).values) + 0.05)
            ch, Ch = equivalence_constants(f, 0.0)
            cs.append(ch)
            Cs.append(Ch)
        assert min(cs) > 0 and max(Cs) < np.inf
        spreads[N] = np.mean(Cs) / np.mean(cs)
    assert abs(spreads[256] / spreads[128] - 1) < 0.3


def test_h_lambda_trivia(spec1d):
    assert h_lambda_norm(zero_field(spec1d), 1.0).values.max() < 1e-12
    q = h_lambda_norm(constant_field(spec1d, -3.0), 0.7).values
    assert np.abs(q - 3.0).max() < 1e-10


def test_h_lambda_monotone_in_lambda(rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    q1 = h_lambda_norm(f, 1.0).values
    q2 = h_lambda_norm(f, 2.0).values
    assert np.all(q2 >= q1 - 1e-10)


def test_w1inf_constant(spec1d):
    q = w1inf_lambda_norm(constant_field(spec1d, 2.5), 1.0).values
    assert np.abs(q - 2.5).max() < 1e-10


def _tapered_linear(spec, slope, half_width=6.0, taper=4.0):
    x = spec.axis_coords()
    c = spec.L_box / 2
    seg = np.clip(x - c, -half_width, half_width) * slope
    seg = np.where(np.abs(x - c) <= half_width, slope * (x - c), np.sign(x - c) * slope * half_width)
    return Field(spec, seg * np.exp(-((np.abs(x - c) - half_width).clip(0) / taper) ** 2))


def test_w1inf_linear_segment(spec1d):
    a = 0.3
    f = _tapered_linear(spec1d, a)
    base = h_lambda_norm(f, 1.0).values
    full = w1inf_lambda_norm(f, 1.0).values
    mid = (spec1d.N // 2,)
    assert full[mid] - base[mid] == pytest.approx(a, abs=5e-3)


def test_w1inf_scale_factor_on_linear(spec1d):
    # for constant difference quotients the scale weight acts exactly linearly
    f = _tapered_linear(spec1d, 0.3)
    base = h_lambda_norm(f, 1.0).values
    mid = (spec1d.N // 2,)
    part0 = w1inf_lambda_norm(f, 1.0).values[mid] - base[mid]
    part2 = w1inf_lambda_norm(f, 1.0, scale=(2.0, 2)).values[mid] - base[mid]
    assert part2 / part0 == pytest.approx(2.0, rel=1e-3)


def test_default_shift_set(spec1d):
    shifts = default_shift_set(spec1d)
    assert all(0 < np.hypot(*[c * spec1d.dx for c in s] + [0]) <= 1.0 + 1e-12 for s in shifts)


def test_jensen_pointwise(rng, spec1d):
    lam = 0.8
    for _ in range(10):
        f = random_smooth_field(spec1d, rng)
        lhs = np.exp(lam * star_maximal(f, 0.0).values)
        rhs = np.exp(log_star_exp(Field(spec1d, lam * np.abs(f.values))).values)
        assert np.all(lhs <= rhs + 1e-8)


def test_quasinorm_convexity(rng, spec1d):
    lam = 0.8
    for _ in range(10):
        f1 = random_smooth_field(spec1d, rng)
        f2 = random_smooth_field(spec1d, rng)
        for (p1, p2) in ((2.0, 2.0), (3.0, 1.5)):
            l = h_lambda_norm(f1 + f2, lam).values
            r = (
                h_lambda_norm(p1 * f1, lam).values / p1
                + h_lambda_norm(p2 * f2, lam).values / p2
            )
            assert np.all(l <= r + 1e-8)


def test_pointwise_parabolic_estimate_stable():
    # |grad^k e^{t Lap} f(x)| <= K t^{-alpha-k/2} f*_alpha(x), fitted K
    # stable under N doubling for (k, alpha) in {0,1} x {0, d/4}
    from kpzlab.grid import gradient_magnitude

    p1 = HeatParams(nu=1.0)
    for (k, alpha) in ((0, 0.0), (1, 0.0), (0, 0.25), (1, 0.25)):
        Ks = {}
        for N in (128, 256):
            spec = GridSpec(d=1, N=N, L_box=64.0)
            rng = np.random.default_rng(7)
            tau = geometric_grid(0.25 * spec.dx**2, (spec.L_box / 8) ** 2)
            K = 0.0
            for _ in range(5):
                f = random_smooth_field(spec, rng, corr_len=1.5)
                prof = star_maximal(f, alpha, tau).values
                for t in np.geomspace(0.5, 16.0, 6):
                    ht = heat_apply(f, float(t), p1)
                    lhs = np.abs(ht.values) if k == 0 else gradient_magnitude(ht).values
                    ratio = lhs * t ** (alpha + k / 2) / np.maximum(prof, 1e-12)
                    K = max(K, float(ratio.max()))
            Ks[N] = K
        assert abs(Ks[256] / Ks[128] - 1) < 0.25, (k, alpha, Ks)


def test_truncation_monotone_convergence(rng):
    # f * chi_n increases monotonically to f in the star profile
    spec = GridSpec(d=1, N=256, L_box=64.0)
    f = Field(spec, np.abs(random_smooth_field(spec, rng).values) + 0.05)
    x = spec.axis_coords()
    r = np.abs(x - spec.L_box / 2)
    tau = default_tau_grid(spec)
    prev = None
    full = star_maximal(f, 0.0, tau).values
    center = (spec.N // 2,)
    # tolerance absorbs spectral ringing of the |f| kinks at the smallest tau
    tol = 1e-5
    for n in (2.0, 4.0, 8.0, 14.0):
        chi = bump_profile(r, plateau=n, support=2 * n)
        prof = star_maximal(Field(spec, f.values * chi), 0.0, tau).values
        if prev is not None:
            assert np.all(prof >= prev - tol)
        assert np.all(prof <= full + tol)
        prev = prof
    assert prev[center] == pytest.approx(full[center], rel=1e-6)


def test_heat_continuity_small_time(rng):
    spec = GridSpec(d=1, N=256, L_box=64.0)
    f = random_smooth_field(spec, rng, corr_len=1.0)
    center = np.abs(spec.axis_coords() - spec.L_box / 2) < spec.L_box / 8
    sups = []
    for t in (1.0, 0.25, 0.0625, 0.015625):
        ht = heat_apply(f, t, HeatParams(nu=1.0))
        sups.append(np.abs(ht.values - f.values)[center].max())
    assert all(b <= a + 1e-14 for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.05 * max(np.abs(f.values).max(), 1e-12)


def test_sharp_modulus_holder_exponent(rng):
    # C^1 field: measured modulus of the ball-average maximal function on
    # dyadic separations fits an exponent >= 0.4
    spec = GridSpec(d=1, N=512, L_box=64.0)
    f = random_smooth_field(spec, rng, corr_len=1.0)
    prof = sharp_maximal(f, 0.0).values
    seps = [1, 2, 4, 8, 16]
    mods = []
    for s in seps:
        mods.append(np.abs(np.roll(prof, -s) - prof).max())
    slope = np.polyfit(np.log(np.array(seps) * spec.dx), np.log(mods), 1)[0]
    assert slope >= 0.4


def test_forcing_quasinorm_zero(spec1d):
    g = SpaceTimeField(spec=spec1d, dt=0.5, frames=(zero_field(spec1d),) * 65, t0=0.0)
    value, gradient = forcing_quasinorm(g, 1.0, 2.0, 2, 32.0, [(0,)])
    assert np.abs(value).max() < 1e-12 and np.abs(gradient).max() < 1e-12


def test_forcing_quasinorm_constant_oracle(spec1d):
    # geometric-series closed form per sub-interval length, maximized over the grid
    M, j, c = 2.0, 2, 0.6
    Mj = M**j
    dt = 0.125
    n = int(8 * Mj / dt) + 1
    g = SpaceTimeField(spec=spec1d, dt=dt, frames=(constant_field(spec1d, c),) * n, t0=0.0)
    t = 8 * Mj
    dt_grid = geometric_grid(Mj / 8, Mj)
    val = forcing_quasinorm(g, 1.0, M, j, t, [(0,)], dt_grid=dt_grid, shift_set=())[0][0]
    eps = 1 / Mj
    best = 0.0
    for dtv in dt_grid:
        pmax = int(np.floor(t / dtv + 1e-9)) - 1
        ssum = (1 - np.exp(-eps * dtv * (pmax + 1))) / (1 - np.exp(-eps * dtv))
        best = max(best, Mj * c * eps * dtv * ssum)
    assert val == pytest.approx(best, rel=1e-12)


def test_forcing_quasinorm_lambda_scaling_constant(spec1d):
    M, j = 2.0, 2
    dt = 0.25
    n = int(8 * M**j / dt) + 1
    g = SpaceTimeField(spec=spec1d, dt=dt, frames=(constant_field(spec1d, 0.3),) * n, t0=0.0)
    t = 8 * M**j
    v1 = forcing_quasinorm(g, 1.0, M, j, t, [(0,)], shift_set=())[0][0]
    v2 = forcing_quasinorm(g, 2.0, M, j, t, [(0,)], shift_set=())[0][0]
    assert v2 >= v1 - 1e-12
    assert v2 == pytest.approx(v1, rel=1e-10)  # equality for constants


def test_forcing_quasinorm_gradient_variant(spec1d, rng):
    M, j = 2.0, 1
    dt = 0.25
    n = int(8 * M**j / dt) + 1
    frames = tuple(random_smooth_field(spec1d, rng, amp=0.1) for _ in range(n))
    g = SpaceTimeField(spec=spec1d, dt=dt, frames=frames, t0=0.0)
    t = 8 * M**j
    vals = forcing_quasinorm(g, 1.0, M, j, t, [(0,), (5,)])[1]
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
