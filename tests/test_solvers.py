import math
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest
from scipy import special

from kpzlab import solvers
from kpzlab.deposition import DepositionRate, power_clamp_rate, quadratic_rate, relativistic_rate
from kpzlab.grid import (
    BadArgumentError,
    Field,
    GridSpec,
    InsufficientHistoryError,
    NumericalRangeError,
    SpaceTimeField,
    _irfftn,
    _rfft_wavenumbers,
    _rfftn,
    constant_field,
    derivative_sup,
    gradient_magnitude,
    lp_norm,
    make_bump,
    periodic_distance_sq,
    zero_field,
)
from kpzlab.heat import HeatParams, _frame_block, heat_apply, random_smooth_field
from kpzlab.solvers import (
    BUMP_ORACLE_LAM,
    BUMP_ORACLE_NU,
    NORMS,
    SolveParams,
    bump_oracle_field,
    bump_reference,
    check_comparison,
    decay_experiment,
    evolve,
    frame_norms,
    homogeneous_step,
    mild_solve,
    subsolution_residual,
    trotter_solve,
)

QP = lambda dt=0.1, nu=1.0, lam=1.0: SolveParams(nu=nu, lam=lam, rate=quadratic_rate(), dt=dt)


# --- Cole-Hopf ---------------------------------------------------------------


def test_cole_hopf_zero(spec1d):
    out = next(evolve(zero_field(spec1d), [3.0], QP()))
    assert np.abs(out.values).max() < 1e-12


def test_cole_hopf_constant(spec1d):
    out = next(evolve(constant_field(spec1d, -1.3), [2.0], QP()))
    assert np.abs(out.values + 1.3).max() < 1e-12


def test_cole_hopf_requires_quadratic(spec1d, monkeypatch):
    # evolve takes its Cole-Hopf branch for the quadratic rate only
    calls, real = [], solvers._cole_hopf_frames
    monkeypatch.setattr(solvers, "_cole_hopf_frames", lambda h0, times, p: calls.append(p.rate.label) or real(h0, times, p))
    for p in (SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.1), QP()):
        assert np.abs(next(evolve(zero_field(spec1d), [1.0], p)).values).max() < 1e-12
    assert calls == [quadratic_rate().label]


def test_cole_hopf_overflow_reported(spec1d):
    h0 = make_bump(spec1d, 800.0, 2.0)
    with pytest.raises(NumericalRangeError, match="exceeds float64 range"):
        evolve(h0, [1.0], QP())


def _former_cole_hopf(h0, t, p):
    """The per-time route: shift by max h0, exponentiate, heat_apply, log."""
    a = p.lam / p.nu
    m = float(np.max(h0.values))
    w = Field(h0.spec, np.exp(a * (h0.values - m)))
    return np.log(heat_apply(w, t, HeatParams(nu=p.nu)).values) / a + m


# 16 times per block in 1-D and 3-D, 4 at 256^2
CH_SPECS = [GridSpec(d=1, N=64, L_box=16.0), GridSpec(d=2, N=256, L_box=64.0), GridSpec(d=3, N=16, L_box=8.0)]


@pytest.mark.parametrize("spec", CH_SPECS, ids=lambda s: f"d{s.d}")
def test_cole_hopf_frames_equal_per_time_route(spec):
    rng = np.random.default_rng(40 + spec.d)
    h0 = random_smooth_field(spec, rng, amp=0.6)
    p = SolveParams(nu=0.7, lam=1.3, rate=quadratic_rate(), dt=0.1)
    # unsorted, with repeats and zeros, more than one block of nonzero times
    times = list(rng.uniform(0.0, 5.0, 17)) + [0.0, 2.5, 0.0, 2.5, 0.01]
    rng.shuffle(times)
    frames = list(evolve(h0, times, p))
    assert len(frames) == len(times)
    for t, f in zip(times, frames):
        assert np.array_equal(f.values, h0.values if t == 0 else _former_cole_hopf(h0, t, p))
        assert np.array_equal(f.values, next(evolve(h0, [t], p)).values)


@pytest.mark.parametrize("n", [1, 4, 11])
def test_cole_hopf_frames_transform_counts(fft_counts, n):
    spec = CH_SPECS[1]
    x = spec.axis_coords()
    h0 = Field(spec, 0.5 * np.sin(2 * np.pi * x / spec.L_box)[:, None] * np.cos(2 * np.pi * x / spec.L_box))
    calls, slices = fft_counts
    list(evolve(h0, [0.0] + list(np.linspace(0.1, 2.0, n)), QP()))
    assert calls == {"rfftn": 1, "irfftn": math.ceil(n / _frame_block(spec))}
    assert slices == {"rfftn": 1, "irfftn": n}


def test_cole_hopf_frames_at_zero_make_no_transform(fft_counts, spec1d):
    h0 = make_bump(spec1d, 2.0, 1.0)
    frames = list(evolve(h0, [0.0, 0.0], QP()))
    assert fft_counts[0] == {"rfftn": 0, "irfftn": 0}
    assert all(np.array_equal(f.values, h0.values) for f in frames)


def test_cole_hopf_frames_reject_before_any_transform(fft_counts, spec1d):
    h0 = make_bump(spec1d, 2.0, 1.0)
    with pytest.raises(BadArgumentError):
        evolve(h0, [1.0, 0.0, -0.5, 2.0], QP())
    with pytest.raises(BadArgumentError):
        evolve(h0, [-0.5], QP())
    with pytest.raises(NumericalRangeError):
        evolve(make_bump(spec1d, 800.0, 1.0), [1.0, 2.0], QP())
    assert fft_counts[0] == {"rfftn": 0, "irfftn": 0}


@pytest.mark.parametrize("spec", [GridSpec(d=1, N=4096, L_box=512.0), GridSpec(d=2, N=512, L_box=512.0)], ids=lambda s: f"d{s.d}")
def test_cole_hopf_frames_equal_per_time_route_on_large_grids(spec):
    h0 = make_bump(spec, 14.0, 2.0)
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
    times = [30.0, 0.0, 16.0, 30.0, 0.0, 240.0]
    for t, f in zip(times, evolve(h0, times, p), strict=True):
        assert np.array_equal(f.values, h0.values if t == 0 else _former_cole_hopf(h0, t, p))


def test_cole_hopf_frames_invert_block_by_block(fft_counts):
    spec = CH_SPECS[1]
    step = _frame_block(spec)
    h0 = random_smooth_field(spec, np.random.default_rng(7), amp=0.5)
    calls, _ = fft_counts
    calls.update(rfftn=0, irfftn=0)
    frames = evolve(h0, [0.0] + list(np.linspace(0.1, 2.0, 2 * step)), QP())
    assert calls == {"rfftn": 0, "irfftn": 0}
    next(frames)  # t = 0
    assert calls == {"rfftn": 0, "irfftn": 0}
    for k in range(step):
        next(frames)
        assert calls == {"rfftn": 1, "irfftn": 1}
    next(frames)
    assert calls == {"rfftn": 1, "irfftn": 2}


# --- bump oracle -------------------------------------------------------------


def test_bump_reference_zero_amplitude():
    assert bump_reference(0.0, 1.0, 5.0, 0.3, 1) == 0.0


@pytest.mark.parametrize("L", [0.0, -1.0])
def test_bump_reference_rejects_nonpositive_width(L):
    # L enters squared, so a negative width would pass for its absolute value
    with pytest.raises(BadArgumentError, match=f"bump_reference needs L > 0, got {L}"):
        bump_reference(3.0, L, 5.0, 0.0, 1)


def test_bump_reference_initial_limit():
    for d in (1, 2, 3):
        assert bump_reference(3.0, 1.0, 1e-8, 0.0, d) == pytest.approx(3.0, abs=1e-5)


def test_bump_reference_erf_oracle():
    # independent closed form in d = 1 via the error function
    def oracle(A, L, t, x):
        amp = math.expm1(A)
        I = 0.5 * (special.erf((L - x) / math.sqrt(2 * t)) + special.erf((L + x) / math.sqrt(2 * t)))
        return math.log1p(amp * I)

    for t in (0.01, 1.0, 50.0, 1000.0):
        for x in (0.0, 0.7, 3.0, 20.0):
            assert bump_reference(3.0, 1.0, t, x, 1) == pytest.approx(oracle(3.0, 1.0, t, x), abs=1e-11)


def test_bump_reference_frozen_regression():
    # value produced by the adaptive quadrature at tol 1e-10 and frozen
    assert bump_reference(3.0, 1.0, 1000.0, 0.0, 1) == pytest.approx(0.39303695911273745, abs=1e-10)


def _quadrature_bump(A, L, t, x, d):
    """The former oracle: one adaptive quadrature of int_{|y|<=L} exp(-(x-y)^2 / 2t) dy per radius."""
    from scipy import integrate

    x, s = abs(x), math.sqrt(t)
    # u = (y - x)/sqrt(t) keeps the integrand O(1)-scaled when sqrt(t) << L
    u_lo = max(-40.0, ((0.0 if d > 1 else -L) - x) / s)
    u_hi = min(40.0, (L - x) / s)
    if u_lo >= u_hi:
        return 0.0
    if d == 1:
        def f(u):
            return s * math.exp(-(u**2) / 2)
    elif d == 2:  # polar reduction with the scaled Bessel function
        def f(u):
            r = x + s * u
            return 2 * math.pi * r * math.exp(-(u**2) / 2) * special.i0e(x * r / t) * s
    elif x < 1e-12 * max(L, s):
        def f(u):
            r = x + s * u
            return 4 * math.pi * r**2 * math.exp(-(r**2) / (2 * t)) * s
    else:
        def f(u):
            r = x + s * u
            return 2 * math.pi * t / x * r * (math.exp(-(u**2) / 2) - math.exp(-((x + r) ** 2) / (2 * t))) * s
    pts = [0.0] if u_lo < 0.0 < u_hi else None
    val, _ = integrate.quad(f, u_lo, u_hi, points=pts, epsabs=1e-10, epsrel=1e-12, limit=400)
    return math.log1p(math.expm1(A) * (2 * math.pi * t) ** (-d / 2) * val)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_reference_matches_former_quadrature(d):
    L = 1.5
    for A in (0.5, 3.0, 14.0):
        for t in (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5, 1e7):
            s = math.sqrt(t)
            xs = np.array([0.0, L * (1 - 1e-9), L * (1 + 1e-9), 3 * L, 3 * L + 8 * s, 3 * L + 30 * s])
            got = bump_reference(A, L, t, xs, d)
            ref = [_quadrature_bump(A, L, t, x, d) for x in xs]
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13, err_msg=f"A={A} t={t}")


def test_bump_reference_return_types():
    assert type(bump_reference(3.0, 1.0, 2.0, 0.5, 2)) is float
    for x in ([0.0, 0.5], np.array([0.0, 0.5])):
        got = bump_reference(3.0, 1.0, 2.0, x, 2)
        assert isinstance(got, np.ndarray) and got.shape == (2,) and got.dtype == float
    with pytest.raises(ValueError, match="t > 0"):
        bump_reference(3.0, 1.0, 0.0, 0.5, 1)


def test_cole_hopf_matches_oracle_warm_start():
    # warm start from the oracle profile: agreement is limited only by the
    # band-limit tail, far below 1e-6
    spec = GridSpec(d=1, N=1024, L_box=128.0)
    p = SolveParams(nu=BUMP_ORACLE_NU, lam=BUMP_ORACLE_LAM, rate=quadratic_rate(), dt=0.1)
    h1 = bump_oracle_field(spec, 3.0, 1.0, 1.0)
    ht = next(evolve(h1, [9.0], p))
    ref = bump_oracle_field(spec, 3.0, 1.0, 10.0)
    assert np.abs(ht.values - ref.values).max() < 1e-6


def test_cole_hopf_from_sampled_indicator():
    # cold start from the lattice indicator: limited by the O(dx^2-to-dx)
    # sampling of the jump, far above the solver's own error
    spec = GridSpec(d=1, N=1024, L_box=128.0)
    p = SolveParams(nu=BUMP_ORACLE_NU, lam=BUMP_ORACLE_LAM, rate=quadratic_rate(), dt=0.1)
    h0 = make_bump(spec, 3.0, 1.0)
    ht = next(evolve(h0, [10.0], p))
    ref = bump_oracle_field(spec, 3.0, 1.0, 10.0)
    mask = periodic_distance_sq(spec) < (spec.L_box / 4) ** 2
    assert np.abs(ht.values - ref.values)[mask].max() < 0.1


# --- mild solutions ----------------------------------------------------------


def test_mild_zero(spec1d):
    traj = mild_solve(zero_field(spec1d), 1.0, QP(dt=0.1))
    assert traj.converged
    assert max(np.abs(f.values).max() for f in traj.frames) < 1e-14


def _smooth_initial(spec, amp=0.2):
    x = spec.axis_coords()
    k = 2 * np.pi / spec.L_box
    return Field(spec, amp * np.sin(k * x) + amp / 2 * np.cos(2 * k * x))


def test_mild_agrees_with_cole_hopf():
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec)
    g = lp_norm(gradient_magnitude(h0), np.inf)
    tol = 1e-9
    p = QP(dt=0.01)
    T1 = 0.1 / (p.lam * g) ** 2
    T = round(2 * T1 / p.dt) * p.dt
    traj = mild_solve(h0, T, p, tol=tol)
    assert traj.converged
    ch = next(evolve(h0, [T], p))
    assert np.abs(traj.frames[-1].values - ch.values).max() < 10 * tol


def test_mild_a_priori_bounds():
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec, amp=0.3)
    p = SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.02)
    traj = mild_solve(h0, 1.0, p, tol=1e-9)
    assert traj.converged
    sups, grad_sups = zip(*frame_norms(traj.frames, ("sup", "grad_sup")))
    assert max(sups) <= lp_norm(h0, np.inf) + 1e-8
    assert max(grad_sups) <= lp_norm(gradient_magnitude(h0), np.inf) + 1e-8


def test_sign_preservation(rng, spec1d):
    f = random_smooth_field(spec1d, rng, amp=0.3)
    pos = Field(spec1d, f.values**2)
    for t in (0.5, 2.0):
        assert next(evolve(pos, [t], QP())).values.min() >= -1e-10
        assert next(evolve(Field(spec1d, -pos.values), [t], QP())).values.max() <= 1e-10


# --- homogeneous step and splitting -------------------------------------------


def test_homogeneous_step_identity(rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    assert homogeneous_step(f, 0.0, QP()) is f


def test_homogeneous_step_sup_nonincreasing(rng, spec1d):
    f = random_smooth_field(spec1d, rng, amp=0.4)
    out = homogeneous_step(f, 0.5, QP())
    assert lp_norm(out, np.inf) <= lp_norm(f, np.inf) + 1e-10


def test_homogeneous_composition_order():
    # two half steps vs one full step for the mild backend: O(dt^2) or better
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec, amp=0.3)
    p = SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.05)
    errs = []
    dts = [0.4, 0.2, 0.1]
    for dt in dts:
        two = homogeneous_step(homogeneous_step(h0, dt, p), dt, p)
        one = homogeneous_step(h0, 2 * dt, p)
        errs.append(np.abs(two.values - one.values).max())
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert order >= 1.8


def test_homogeneous_step_is_the_former_mild_substep():
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec, amp=0.3)
    p = SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.05)
    for dt in (0.3, 0.1):
        former = mild_solve(h0, dt, replace(p, dt=dt / 4), tol=1e-10).frames[-1]
        assert np.array_equal(homogeneous_step(h0, dt, p).values, former.values)


def _zero_rate():
    return DepositionRate(
        label="zero",
        eval=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        deriv=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
    )


def test_trotter_pure_damped_heat(rng):
    # with the nonlinearity scaled away the splitting is exact for the
    # commuting damped heat flow
    spec = GridSpec(d=1, N=64, L_box=32.0)
    psi0 = random_smooth_field(spec, rng, amp=0.5)
    M, j = 2.0, 2
    T, n = 2.0, 64
    p = SolveParams(nu=1.0, lam=1.0, rate=_zero_rate(), dt=T / n, cutoff=(M, j))
    g = SpaceTimeField(spec=spec, dt=T / 256, frames=(zero_field(spec),) * 257, t0=0.0)
    traj = trotter_solve(psi0, g, T, n, p)
    expect = math.exp(-(M**-j) * T) * heat_apply(psi0, T, HeatParams(nu=1.0)).values
    assert np.abs(traj.frames[-1].values - expect).max() < 1e-8


def test_trotter_constant_decay(spec1d):
    M, j = 2.0, 1
    T, n = 1.0, 16
    p = SolveParams(nu=1.0, lam=1.0, rate=quadratic_rate(), dt=T / n, cutoff=(M, j))
    g = SpaceTimeField(spec=spec1d, dt=T / 64, frames=(zero_field(spec1d),) * 65, t0=0.0)
    traj = trotter_solve(constant_field(spec1d, 1.5), g, T, n, p)
    expect = 1.5 * math.exp(-(M**-j) * T)
    assert np.abs(traj.frames[-1].values - expect).max() < 1e-10


def test_trotter_needs_cutoff(spec1d):
    g = SpaceTimeField(spec=spec1d, dt=0.25, frames=(zero_field(spec1d),) * 5, t0=0.0)
    with pytest.raises(ValueError):
        trotter_solve(zero_field(spec1d), g, 1.0, 4, QP(dt=0.25))


def test_trotter_needs_a_step(spec1d):
    g = SpaceTimeField(spec=spec1d, dt=0.25, frames=(zero_field(spec1d),) * 5, t0=0.0)
    p = SolveParams(nu=1.0, lam=1.0, rate=quadratic_rate(), dt=0.25, cutoff=(2.0, 1))
    for n in (0, -1):
        with pytest.raises(BadArgumentError, match="n >= 1"):
            trotter_solve(zero_field(spec1d), g, 1.0, n, p)


def test_trotter_insufficient_forcing(spec1d):
    g = SpaceTimeField(spec=spec1d, dt=0.25, frames=(zero_field(spec1d),) * 3, t0=0.0)
    p = SolveParams(nu=1.0, lam=1.0, rate=quadratic_rate(), dt=0.25, cutoff=(2.0, 1))
    with pytest.raises(InsufficientHistoryError):
        trotter_solve(zero_field(spec1d), g, 4.0, 16, p)


def _all_frames_slab_forcing(g, a, b):
    # the former loop over every frame, skipping those whose cell misses [a, b]
    times = g.times()
    w = np.maximum(np.minimum(times + g.dt / 2, b) - np.maximum(times - g.dt / 2, a), 0.0)
    acc = np.zeros(g.spec.shape)
    for wk, f in zip(w, g.frames):
        if wk > 0:
            acc += wk * f.values
    return acc


def test_slab_forcing_equals_all_frames_loop(rng, spec1d):
    g = SpaceTimeField(spec=spec1d, dt=0.25, frames=tuple(random_smooth_field(spec1d, rng) for _ in range(9)), t0=0.0)
    # partial, sliver, empty, inside one cell, on cell edges, the whole history, and random slabs
    slabs = [(0.0, 0.3), (0.375 - 1e-12, 0.5), (0.7, 0.7), (0.3, 0.31), (0.125, 0.625), (0.375, 0.375)]
    slabs += [(-0.125, 2.125)]
    slabs += [tuple(sorted(rng.uniform(-0.125, 2.125, 2))) for _ in range(20)]
    slabs += [(k * 2.0 / 7, (k + 1) * 2.0 / 7) for k in range(7)]  # a Trotter run's slabs
    for a, b in slabs:
        assert np.array_equal(solvers._slab_forcing(g, a, b), _all_frames_slab_forcing(g, a, b)), (a, b)


# --- ordering ------------------------------------------------------------------


def test_comparison_identical(rng, spec1d):
    f = random_smooth_field(spec1d, rng, amp=0.3)
    rep = check_comparison(f, f, np.linspace(0, 1.0, 9)[1:], QP())
    assert abs(rep.min_gap) < 1e-12


def test_comparison_constant_shift(rng, spec1d):
    f = random_smooth_field(spec1d, rng, amp=0.3)
    up = Field(spec1d, f.values + 0.7)
    rep = check_comparison(f, up, np.linspace(0, 1.0, 9)[1:], QP())
    # the equation sees only the gradient: the gap stays exactly 0.7
    assert rep.min_gap == pytest.approx(0.7, abs=1e-10)


def test_comparison_random_pairs(rng, spec1d):
    for _ in range(5):
        f = random_smooth_field(spec1d, rng, amp=0.4)
        gap = random_smooth_field(spec1d, rng, amp=0.3)
        up = Field(spec1d, f.values + gap.values**2)
        rep = check_comparison(f, up, np.linspace(0, 2.0, 9)[1:], QP())
        assert rep.passed and rep.sup_excess <= 0


@pytest.mark.parametrize("rate", [relativistic_rate(), power_clamp_rate(1.5)], ids=lambda r: r.label)
def test_comparison_general_rate(rng, spec1d, rate):
    # the comparison principle for a V other than the quadratic one: times
    # T/8, 2T/8, ... off the dt grid go through one mild solve per interval
    p = SolveParams(nu=1.0, lam=1.0, rate=rate, dt=0.1)
    for _ in range(2):
        f = random_smooth_field(spec1d, rng, amp=0.4)
        gap = random_smooth_field(spec1d, rng, amp=0.3)
        rep = check_comparison(f, Field(spec1d, f.values + gap.values**2), np.linspace(0, 1.0, 9)[1:], p)
        # ordering, and the maximum principle: V(0) = 0, so sup|h| does not grow
        assert rep.passed and rep.sup_excess <= 0


def test_comparison_requires_order(rng, spec1d):
    f = random_smooth_field(spec1d, rng, amp=0.4)
    with pytest.raises(ValueError):
        check_comparison(Field(spec1d, f.values + 1.0), f, np.linspace(0, 1.0, 9)[1:], QP())


# --- pointwise gradient bound and sub-solution combination -----------------------


def test_pointwise_gradient_bound_resolution_stable():
    # |grad h_t(x)| <= K sqrt(|h_t(x)| / lam / t): fitted K moves < 20% when
    # the resolution doubles
    Ks = {}
    for N in (512, 1024):
        spec = GridSpec(d=1, N=N, L_box=128.0)
        p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
        h0 = make_bump(spec, 4.0, 1.0)
        K = 0.0
        for t in np.geomspace(2.0, 64.0, 6):
            ht = next(evolve(h0, [float(t)], p))
            grad = gradient_magnitude(ht).values
            bound = np.sqrt(np.maximum(np.abs(ht.values), 1e-30) / p.lam / t)
            sel = np.abs(ht.values) > 1e-3
            K = max(K, float(np.max(grad[sel] / bound[sel])))
        Ks[N] = K
    assert abs(Ks[1024] / Ks[512] - 1) < 0.20


def test_subsolution_combination_residual():
    # (d/dt - nu Lap) exp(c (U - mu V)) stays below the time-stencil error
    spec = GridSpec(d=1, N=128, L_box=8 * np.pi)
    p = QP(dt=0.02, nu=1.0, lam=0.8)
    u0 = _smooth_initial(spec, amp=0.35)
    x = spec.axis_coords()
    v0 = Field(spec, 0.3 * np.cos(2 * np.pi * x / spec.L_box + 0.4))
    times = [0.2 + k * p.dt for k in range(6)]
    U = SpaceTimeField(spec=spec, dt=p.dt, frames=tuple(evolve(u0, times, p)), t0=times[0])
    V = SpaceTimeField(spec=spec, dt=p.dt, frames=tuple(evolve(v0, times, p)), t0=times[0])
    for mu in (0.25, 0.5, 0.75):
        resid = subsolution_residual(U, V, lam=p.lam, nu=p.nu, mu=mu)
        assert resid <= 1e-4, mu


# --- decay fits ------------------------------------------------------------------


def test_decay_window_guard(spec1d):
    h0 = make_bump(spec1d, 1.0, 1.0)
    with pytest.raises(BadArgumentError):
        decay_experiment(h0, QP(), ["sup"], np.linspace(4.0, 8.0, 6))
    # a norm that vanishes leaves no window: rejected before the fit
    with pytest.raises(BadArgumentError, match="with sup > 0, got 0"):
        decay_experiment(zero_field(spec1d), QP(), ["sup"], np.geomspace(4.0, 400.0, 6))


def test_decay_sup_slope_small_bump():
    # small bump: the sup norm decays like the linear heat solution, t^{-d/2}
    spec = GridSpec(d=1, N=1024, L_box=256.0)
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
    h0 = make_bump(spec, 0.5, 1.0)
    fit = decay_experiment(h0, p, ["sup"], np.geomspace(4.0, 400.0, 10))[0]
    assert -0.6 < fit.slope < -0.4


def test_decay_requires_known_norm(spec1d):
    with pytest.raises(BadArgumentError):
        decay_experiment(make_bump(spec1d, 1.0, 1.0), QP(), ["nope"], np.geomspace(1, 20, 6))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evolved_frame_norms_equal_former_path(d):
    # zero, repeated and unsorted times through the streamed frames and the shared work arrays
    spec = GridSpec(d=d, N=256 if d == 1 else 64 if d == 2 else 16, L_box=32.0)
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
    h0 = random_smooth_field(spec, np.random.default_rng(60 + d), amp=2.0)
    times = [3.0, 0.0, 1.0, 3.0, 0.5, 0.0, 40.0, 2.0]
    frames = [h0 if t == 0 else Field(spec, _former_cole_hopf(h0, t, p)) for t in times]
    assert frame_norms(evolve(h0, times, p), NORMS) == _former_rows(frames, NORMS)
    fit_times = [t for t in times if t > 0] + [8.0, 16.0]
    fits = decay_experiment(h0, p, list(NORMS), fit_times)
    sorted_frames = [Field(spec, _former_cole_hopf(h0, t, p)) for t in sorted(fit_times)]
    former = np.array(_former_rows(sorted_frames, NORMS))
    for i, fit in enumerate(fits):
        assert np.array_equal(fit.values, former[:, i][former[:, i] > 0])


def test_evolve_mild_equals_one_solve_on_the_grid():
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec, amp=0.3)
    p = SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.05)
    times = [0.0, 0.05, 0.2, 0.2, 0.65, 1.0]
    traj = mild_solve(h0, 1.0, p, tol=1e-10)
    for t, ht in zip(times, evolve(h0, times, p)):
        assert np.abs(ht.values - traj.frames[int(round(t / p.dt))].values).max() <= 1e-9, t


def test_evolve_restarts_on_a_lower_time():
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec, amp=0.3)
    p = SolveParams(nu=1.0, lam=1.0, rate=power_clamp_rate(1.5), dt=0.1)
    times = [0.7, 0.25, 0.0, 0.4]
    together = list(evolve(h0, times, p))
    assert together[2] is h0
    for t, ht in zip(times, together):
        assert np.array_equal(ht.values, next(evolve(h0, [t], p)).values), t


def test_evolve_rejects_negative_times(spec1d):
    p = SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.1)
    for rate_p in (p, QP()):
        with pytest.raises(BadArgumentError, match="negative evolution time -0.5"):
            evolve(zero_field(spec1d), [1.0, -0.5], rate_p)


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("route", ["mild", "colehopf"])
def test_evolve_rejects_non_finite_times(fft_counts, spec1d, route, t):
    p = QP() if route == "colehopf" else SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.1)
    with pytest.raises(BadArgumentError, match="non-finite evolution time"):
        evolve(make_bump(spec1d, 2.0, 1.0), [0.5, t], p)
    assert fft_counts[0] == {"rfftn": 0, "irfftn": 0}


def test_steep_power_clamp_bump_converges_by_substeps():
    # criterion 3's d = 1 steep bump (A 14, L 1, nu = lam = 1/2, dx 1/8) on
    # 512 sites, box 64, under power_clamp_rate(1.5): at dt 0.1 its first
    # one-step slab turns non-finite, and each frame step is split instead
    spec = GridSpec(d=1, N=512, L_box=64.0)
    h0 = make_bump(spec, 14.0, 1.0)
    coarse, fine = (mild_solve(h0, 2.0, SolveParams(nu=0.5, lam=0.5, rate=power_clamp_rate(1.5), dt=dt))
                    for dt in (0.1, 0.01))
    assert coarse.converged and fine.converged
    # no halving of c_slab; the coarse solve splits frame steps, and the fine one none
    assert coarse.attempts[-1].c_slab == solvers.C_SLAB
    assert [any(a.converged and a.substeps > 1 for a in t.attempts) for t in (coarse, fine)] == [True, False]
    # the shared frames agree to 2% of the bump height; most of the gap (0.23
    # at t = 0.1) is the dt 0.01 run's own error, which is 0.19 against dt 0.0025
    for t, f in zip(coarse.field.times(), coarse.frames):
        assert np.abs(f.values - fine.field.frames[fine.field.frame_index(t)].values).max() <= 0.02 * 14.0, t


def test_evolve_takes_a_step_over_a_tiny_gap():
    # a gap far below 1e-9 dt is one step, not zero steps
    spec = GridSpec(d=1, N=64, L_box=8 * np.pi)
    h0 = _smooth_initial(spec, amp=0.3)
    p = SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.1)
    start, moved = evolve(h0, [0.0, 1e-12], p)
    assert start is h0
    assert np.isfinite(moved.values).all()
    assert np.abs(moved.values - h0.values).max() < 1e-9


def test_decay_experiment_memory_at_512sq():
    # criterion 3's d = 2 geometry: frames are streamed and the norms reuse
    # their work arrays, so the traced peak stays far below 12 frames of 2 MiB
    spec = GridSpec(d=2, N=512, L_box=512.0)
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
    h0 = make_bump(spec, 14.0, 2.0)
    times = np.geomspace(16.0, 240.0, 12)
    decay_experiment(h0, p, ["grad_sup", "d2_sup"], times)  # fill the grid caches
    tracemalloc.start()
    try:
        decay_experiment(h0, p, ["grad_sup", "d2_sup"], times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


# --- per-frame norms from one transform -------------------------------------------

# the former per-norm routines, each with its own forward transform and fresh arrays


def _former_lp(values, spec, p):
    if p == np.inf:
        return float(np.max(np.abs(values)))
    return float((np.sum(np.abs(values) ** p) * spec.dx**spec.d) ** (1.0 / p))


def _former_gradient_magnitude(h):
    fhat = _rfftn(h.values, h.spec)
    return np.sqrt(sum(_irfftn(1j * kd * fhat, h.spec) ** 2 for kd in _rfft_wavenumbers(h.spec)[2]))


def _former_derivative_sup(h, order):
    spec = h.spec
    fhat = _rfftn(h.values, spec)
    kds = _rfft_wavenumbers(spec)[2]
    total = np.zeros(spec.shape)
    for idx in combinations_with_replacement(range(spec.d), order):
        mult = factorial(order)
        for ax in range(spec.d):
            mult //= factorial(idx.count(ax))
        m = np.ones((), dtype=complex)
        for ax in idx:
            m = m * (1j * kds[ax])
        total += mult * _irfftn(m * fhat, spec) ** 2
    return float(np.max(np.sqrt(total)))


FORMER_NORMS = {
    "sup": lambda h: _former_lp(h.values, h.spec, np.inf),
    "l1": lambda h: _former_lp(h.values, h.spec, 1.0),
    "grad_sup": lambda h: _former_lp(_former_gradient_magnitude(h), h.spec, np.inf),
    "grad_l1": lambda h: _former_lp(_former_gradient_magnitude(h), h.spec, 1.0),
    "d2_sup": lambda h: _former_derivative_sup(h, 2),
    "d3_sup": lambda h: _former_derivative_sup(h, 3),
}


def _former_rows(frames, names):
    return [[FORMER_NORMS[nm](h) for nm in names] for h in frames]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("names", [NORMS, ("d3_sup", "grad_l1"), ("grad_l1", "sup", "grad_sup"), ("d2_sup",)])
def test_frame_norms_equal_separate_norms(d, names):
    spec = GridSpec(d=d, N=128 if d == 1 else 32 if d == 2 else 16, L_box=16.0)
    h = random_smooth_field(spec, np.random.default_rng(40 + d), amp=0.8)
    assert frame_norms([h], names) == _former_rows([h], names)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frame_norms_of_a_sequence_equal_former_norms(d):
    # five random fields per dimension through one set of work arrays, read from an iterator
    spec = GridSpec(d=d, N=256 if d == 1 else 64 if d == 2 else 16, L_box=16.0)
    rng = np.random.default_rng(50 + d)
    frames = [random_smooth_field(spec, rng, amp=a) for a in (0.1, 0.8, 3.0, 0.5, 12.0)]
    for names in (NORMS, ("d2_sup", "grad_sup"), ("grad_l1", "d3_sup", "l1")):
        assert frame_norms(iter(frames), names) == _former_rows(frames, names)
    for h in frames:
        assert np.array_equal(gradient_magnitude(h).values, _former_gradient_magnitude(h))
        assert [derivative_sup(h, k) for k in (2, 3)] == [_former_derivative_sup(h, k) for k in (2, 3)]


def test_frame_norms_equal_former_norms_at_512sq():
    spec = GridSpec(d=2, N=512, L_box=512.0)
    frames = [make_bump(spec, 14.0, 2.0), random_smooth_field(spec, np.random.default_rng(5), amp=2.0)]
    assert frame_norms(frames, NORMS) == _former_rows(frames, NORMS)


def test_frame_norms_transform_once(fft_counts, spec2d):
    h = random_smooth_field(spec2d, np.random.default_rng(3))
    calls, _ = fft_counts
    calls.update(rfftn=0, irfftn=0)
    frame_norms([h], ("sup", "l1"))
    assert calls == {"rfftn": 0, "irfftn": 0}
    frame_norms([h], NORMS)
    # one forward transform; d gradient, d(d+1)/2 second and (d+1)(d+2)d/6 third derivative inverses
    assert calls == {"rfftn": 1, "irfftn": 2 + 3 + 4}
    with pytest.raises(BadArgumentError):
        frame_norms([h], ("sup", "nope"))
