"""The shared maximal sweep and the probe-site path against the loops they replaced.

The references below are the former implementations: one heat_apply per tau
for the star and log-star sweeps, a clamped ball average per rho for the
sharp sweep, and a forcing quasi-norm that rebuilt every sub-interval average
once per shift inside a closure and read a full-field log_star_exp at the
probes.
"""

import math

import numpy as np
import pytest

from kpzlab import maximal
from kpzlab.grid import (
    BadArgumentError,
    Field,
    GridSpec,
    InsufficientHistoryError,
    NumericalRangeError,
    SpaceTimeField,
    _irfftn,
    _rfftn,
    periodic_distance_sq,
)
from kpzlab.heat import (
    HeatParams,
    _frame_block,
    _heat_multipliers,
    heat_apply,
    random_smooth_field,
)
from kpzlab.ldp import scaling_dimension, tail_quasinorm
from kpzlab.maximal import (
    _ball_kernels,
    _heat_kernels,
    _log_star_exp_at,
    _probe_kernels,
    default_rho_grid,
    default_shift_set,
    default_tau_grid,
    forcing_quasinorm,
    geometric_grid,
    log_star_exp,
    sharp_maximal,
    star_maximal,
)

UNIT = HeatParams(nu=1.0)
SPECS = [GridSpec(d=1, N=64, L_box=16.0), GridSpec(d=2, N=16, L_box=8.0), GridSpec(d=3, N=8, L_box=4.0)]


def _ref_star(f, alpha, tau_grid):
    absf = f.abs()
    best = absf.values.copy()
    for tau in tau_grid:
        sm = heat_apply(absf, float(tau), UNIT)
        np.maximum(best, (1.0 + tau) ** alpha * sm.values, out=best)
    return best


def _ref_sharp(f, alpha, rho_grid):
    spec = f.spec
    absv = np.abs(f.values)
    best = absv.copy()
    fhat = _rfftn(absv, spec)
    for rho, khat in zip(rho_grid, _ball_kernels(spec, tuple(np.round(rho_grid, 14)))):
        avg = _irfftn(fhat * khat, spec)
        np.maximum(best, (1.0 + rho * rho) ** alpha * np.maximum(avg, 0.0), out=best)
    return best


def _ref_log_star(g, tau_grid):
    m = float(np.max(g.values))
    w = Field(g.spec, np.exp(g.values - m))
    best = w.values.copy()
    for tau in tau_grid:
        np.maximum(best, heat_apply(w, float(tau), UNIT).values, out=best)
    return np.log(np.maximum(best, 1e-300)) + m


def _interval_average(g, a, b):
    """Mean of the frames with time in (a, b], added one by one in time order."""
    times = g.times()
    sel = (times > a + 1e-9 * g.dt) & (times <= b + 1e-9 * g.dt)
    if not sel.any():
        raise InsufficientHistoryError(f"no frames in ({a}, {b}]; frame step {g.dt} too coarse")
    vals = np.zeros(g.spec.shape)
    for k in np.nonzero(sel)[0]:
        vals += g.frames[k].values
    return vals / sel.sum()


def _ref_forcing_sups(g, lam, M, j, t, probes, dt_grid, variants, tau_grid):
    """The former stacked forcing sweep: one average per sub-interval, one row per average and variant."""
    spec = g.spec
    eps_ir = 1.0 / float(M) ** j
    sites, kernels = _probe_kernels(spec, tau_grid, probes)
    best = np.full((len(variants), len(probes)), -np.inf)
    for dt in np.asarray(dt_grid, dtype=float):
        p_max = int(np.floor((t - g.t0) / dt + 1e-9)) - 1
        if p_max < 0:
            continue
        rows = []
        for p in range(p_max + 1):
            avg = _interval_average(g, t - (p + 1) * dt, t - p * dt)
            for cells, weight in variants:
                if cells is None:
                    stat = avg
                else:
                    eps_len = float(np.sqrt(sum(c * c for c in cells))) * spec.dx
                    stat = (np.roll(avg, shift=[-c for c in cells], axis=range(spec.d)) - avg) / eps_len
                rows.append((lam * weight * np.abs(stat)).ravel())
        ls = _log_star_exp_at(np.reshape(rows, (len(rows), spec.n_sites)), spec, sites, kernels)
        ls = ls.reshape(p_max + 1, len(variants), len(probes))
        total = np.zeros(best.shape)
        damp = np.exp(-eps_ir * dt)
        for p in range(p_max + 1):
            total += damp**p * ls[p]
        np.maximum(best, eps_ir * dt * total, out=best)
    return best / lam


def _ref_forcing(g, lam, M, j, t, probes, dt_grid, with_gradient, shift_set, tau_grid):
    Mj = float(M) ** j
    eps_ir = 1.0 / Mj
    elapsed = t - g.t0
    weight = M ** (1.5 * j) if with_gradient else Mj
    if with_gradient and shift_set is None:
        shift_set = default_shift_set(g.spec)

    def statistic_fields(base_frames):
        out = np.full(len(probes), -np.inf)
        for dt in np.asarray(dt_grid, dtype=float):
            p_max = int(np.floor(elapsed / dt + 1e-9)) - 1
            if p_max < 0:
                continue
            total = np.zeros(len(probes))
            damp = np.exp(-eps_ir * dt)
            for p in range(p_max + 1):
                avg = _interval_average(g, t - (p + 1) * dt, t - p * dt)
                avg = np.asarray(base_frames(avg))
                ls = log_star_exp(Field(g.spec, lam * weight * np.abs(avg)), tau_grid)
                total += damp**p * np.array([ls.values[tuple(q)] for q in probes])
            np.maximum(out, eps_ir * dt * total, out=out)
        return out / lam

    if not with_gradient:
        return statistic_fields(lambda avg: avg)
    best = np.full(len(probes), -np.inf)
    for cells in shift_set:
        eps_len = float(np.sqrt(sum(c * c for c in cells))) * g.spec.dx

        def dq(avg, cells=cells, eps_len=eps_len):
            rolled = np.roll(avg, shift=[-c for c in cells], axis=range(g.spec.d))
            return (rolled - avg) / eps_len

        np.maximum(best, statistic_fields(dq), out=best)
    return best


def _assert_rel(got, ref, rtol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _history(spec, rng, n_frames=17, dt=0.25):
    frames = tuple(random_smooth_field(spec, rng) for _ in range(n_frames))
    return SpaceTimeField(spec=spec, dt=dt, frames=frames, t0=0.0)


def _probes(spec):
    """The origin, the centre, the last site and a negative index."""
    d, N = spec.d, spec.N
    return [(0,) * d, (N // 2,) * d, (N - 1,) * d, (-3,) + (1,) * (d - 1)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_star_and_sharp_match_loops(spec, alpha):
    rng = np.random.default_rng(100 + spec.d)
    f = random_smooth_field(spec, rng)
    tau, rho = default_tau_grid(spec), default_rho_grid(spec)
    _assert_rel(star_maximal(f, alpha, tau).values, _ref_star(f, alpha, tau))
    _assert_rel(sharp_maximal(f, alpha, rho).values, _ref_sharp(f, alpha, rho))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
def test_log_star_exp_matches_loop(spec):
    rng = np.random.default_rng(200 + spec.d)
    g = Field(spec, 3.0 * np.abs(random_smooth_field(spec, rng).values))
    tau = default_tau_grid(spec)
    _assert_rel(log_star_exp(g, tau).values, _ref_log_star(g, tau))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
@pytest.mark.parametrize("with_gradient", [False, True])
def test_forcing_quasinorm_matches_closure(spec, with_gradient):
    rng = np.random.default_rng(300 + spec.d)
    g = _history(spec, rng)
    probes = _probes(spec)
    dt_grid = geometric_grid(0.5, 2.0)
    tau = default_tau_grid(spec)[::4]
    args = (g, 0.7, 2.0, 1, g.t_end(), probes)
    kw = dict(dt_grid=dt_grid, tau_grid=tau)
    got = forcing_quasinorm(*args, **kw)[int(with_gradient)]
    _assert_rel(got, _ref_forcing(*args, dt_grid, with_gradient, None, tau))


def test_forcing_quasinorm_two_shifts_is_max_of_each():
    spec = SPECS[1]
    g = _history(spec, np.random.default_rng(7))
    kw = dict(dt_grid=geometric_grid(0.5, 2.0), tau_grid=default_tau_grid(spec)[::4])
    args = (g, 0.7, 2.0, 1, g.t_end(), [(0, 0), (3, 5)])
    a = forcing_quasinorm(*args, shift_set=((1, 0),), **kw)[1]
    b = forcing_quasinorm(*args, shift_set=((0, 2),), **kw)[1]
    both = forcing_quasinorm(*args, shift_set=((1, 0), (0, 2)), **kw)[1]
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(both, np.maximum(a, b))


@pytest.mark.parametrize("sweep", ["star", "log_star"])
def test_sweep_transforms_the_field_once(fft_counts, sweep):
    spec = SPECS[1]
    f = random_smooth_field(spec, np.random.default_rng(9))
    tau = default_tau_grid(spec)
    calls, slices = fft_counts
    calls.update(rfftn=0, irfftn=0)
    slices.update(rfftn=0, irfftn=0)
    if sweep == "star":
        star_maximal(f, 0.3, tau)
    else:
        log_star_exp(f, tau)
    # all 40 scales of the 16^2 grid fit in one heat._sweep_block batch
    assert calls == {"rfftn": 1, "irfftn": 1}
    assert slices == {"rfftn": 1, "irfftn": len(tau)}


# --- block sweeps against the former per-scale loop ---------------------------------

# the sizes count in _frame_block(spec) scales (16, and 4 at 256^2); a sweep
# batches heat._sweep_block(spec) scales, so only 256^2 takes more than one
BLOCK_SPECS = SPECS + [GridSpec(d=2, N=256, L_box=64.0), GridSpec(d=1, N=128, L_box=32.0)]


def _former_sweep(spec, values, mults, weights):
    """The per-scale loop: one inverse transform per multiplier."""
    best = values.copy()
    fhat = _rfftn(values, spec)
    for mult, weight in zip(mults, weights):
        np.maximum(best, weight * _irfftn(fhat * mult, spec), out=best)
    return best


def _former_ball_kernels(spec, rho_grid):
    rsq = periodic_distance_sq(spec)
    out = []
    for rho in np.round(rho_grid, 14):
        mask = (rsq <= rho * rho).astype(float)
        cnt = mask.sum()
        mask = np.roll(mask, shift=[-(spec.N // 2)] * spec.d, axis=range(spec.d))
        out.append(_rfftn(mask / cnt, spec))
    return out


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: f"d{s.d}N{s.N}")
@pytest.mark.parametrize("size", ["short", "one_block", "ragged"])
def test_block_sweeps_equal_per_scale_loop(spec, size):
    block = _frame_block(spec)
    n = {"short": max(1, block // 2), "one_block": block, "ragged": 2 * block + 3}[size]
    f = random_smooth_field(spec, np.random.default_rng(700 + spec.d))
    absv = np.abs(f.values)
    tau = np.geomspace(0.25 * spec.dx**2, spec.L_box**2, n)
    rho = np.geomspace(spec.dx, spec.L_box / 2 * (1 - 1e-9), n)
    heat = [_heat_multipliers(spec, [float(t)])[0] for t in tau]
    balls = _former_ball_kernels(spec, rho)
    for alpha in (0.0, 0.3):
        star = _former_sweep(spec, absv, heat, [(1.0 + t) ** alpha for t in tau])
        sharp = _former_sweep(spec, absv, balls, [(1.0 + r * r) ** alpha for r in rho])
        assert np.array_equal(star_maximal(f, alpha, tau).values, star)
        assert np.array_equal(sharp_maximal(f, alpha, rho).values, sharp)
    g = Field(spec, 3.0 * absv)
    m = float(np.max(g.values))
    log_star = np.log(np.maximum(_former_sweep(spec, np.exp(g.values - m), heat, np.ones(n)), 1e-300)) + m
    assert np.array_equal(log_star_exp(g, tau).values, log_star)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
def test_heat_kernels_equal_per_tau_transforms(spec):
    tau = tuple(float(t) for t in default_tau_grid(spec))
    former = np.stack([_irfftn(_heat_multipliers(spec, [t])[0], spec) for t in tau])
    assert np.array_equal(_heat_kernels(spec, tau), former)


@pytest.mark.parametrize("sweep", ["star", "log_star", "kernels"])
def test_negative_tau_raises_before_any_transform(fft_counts, sweep):
    spec = SPECS[1]
    f = Field(spec, np.random.default_rng(15).standard_normal(spec.shape))
    tau = np.array([0.5, 1.0, -0.1, 2.0])
    calls, _ = fft_counts
    with pytest.raises(BadArgumentError):
        if sweep == "star":
            star_maximal(f, 0.3, tau)
        elif sweep == "log_star":
            log_star_exp(f, tau)
        else:
            _heat_kernels(spec, tuple(tau))
    assert calls == {"rfftn": 0, "irfftn": 0}


# --- probe-site path ----------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
def test_log_star_at_probes_matches_field(spec):
    rng = np.random.default_rng(400 + spec.d)
    rows = [c * np.abs(random_smooth_field(spec, rng).values) for c in (0.5, 3.0, 40.0)]
    probes = _probes(spec)
    tau = default_tau_grid(spec)
    sites, kernels = _probe_kernels(spec, tau, probes)
    got = _log_star_exp_at(np.array([r.ravel() for r in rows]), spec, sites, kernels)
    ref = [[log_star_exp(Field(spec, r), tau).values[q] for q in probes] for r in rows]
    _assert_rel(got, ref)


def _two_shifts(d):
    return ((1,) + (0,) * (d - 1), (2,) if d == 1 else (0, 2) + (0,) * (d - 2))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
@pytest.mark.parametrize("n_shifts", [1, 2])
def test_forcing_quasinorm_shift_sets_match_closure(spec, n_shifts):
    g = _history(spec, np.random.default_rng(500 + spec.d))
    shift_set = _two_shifts(spec.d)[:n_shifts]
    dt_grid = geometric_grid(0.5, 2.0)
    tau = default_tau_grid(spec)[::4]
    args = (g, 1.3, 2.0, 1, g.t_end(), _probes(spec))
    got = forcing_quasinorm(*args, dt_grid=dt_grid, tau_grid=tau, shift_set=shift_set)[1]
    _assert_rel(got, _ref_forcing(*args, dt_grid, True, shift_set, tau))


def test_parts_and_tail_statistics_equal_separate_calls():
    spec = SPECS[2]
    M, j, lam = 2.0, 1, 0.9
    trajs = [_history(spec, np.random.default_rng(600 + i)) for i in range(4)]
    kw = dict(dt_grid=geometric_grid(0.5, 2.0), tau_grid=default_tau_grid(spec)[::4], shift_set=_two_shifts(3))
    rep = tail_quasinorm(trajs, j, lam, np.array([1.0, 2.0]), M, (1, 2, 3), min_trials=4, **kw)
    for g, stat in zip(trajs, rep.statistics):
        args = (g, lam, M, j, g.t_end(), [(1, 2, 3), (-1, 0, 5)])
        value, gradient = forcing_quasinorm(*args, **kw)
        _assert_rel(value, forcing_quasinorm(*args, dt_grid=kw["dt_grid"], tau_grid=kw["tau_grid"], shift_set=())[0])
        _assert_rel(stat, (value[0] + gradient[0]) * M ** (j * scaling_dimension(3)))


def test_forcing_quasinorm_warm_cache_makes_no_transform(fft_counts):
    spec = SPECS[2]
    kw = dict(dt_grid=geometric_grid(0.5, 2.0), tau_grid=default_tau_grid(spec))
    g, h = (_history(spec, np.random.default_rng(seed)) for seed in (11, 12))
    calls, _ = fft_counts
    forcing_quasinorm(g, 0.7, 2.0, 1, g.t_end(), [(0, 0, 0)], **kw)
    calls.update(rfftn=0, irfftn=0)
    forcing_quasinorm(h, 0.7, 2.0, 1, h.t_end(), _probes(spec), **kw)
    assert calls == {"rfftn": 0, "irfftn": 0}


def test_forcing_quasinorm_overflow_raises():
    spec = SPECS[1]
    g = _history(spec, np.random.default_rng(13))
    with pytest.raises(NumericalRangeError):
        forcing_quasinorm(g, 1e308, 2.0, 1, g.t_end(), [(0, 0)], dt_grid=geometric_grid(0.5, 2.0))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_log_star_at_names_the_non_finite_site(bad):
    # the finiteness test reads the row maxima; the site prints as plain ints
    spec = SPECS[2]
    sites, kernels = _probe_kernels(spec, default_tau_grid(spec)[::4], [(0, 0, 0)])
    rows = np.abs(np.random.default_rng(16).standard_normal((3, spec.n_sites)))
    rows[1].reshape(spec.shape)[2, 5, 1] = bad
    with pytest.raises(NumericalRangeError) as err:
        _log_star_exp_at(rows, spec, sites, kernels)
    assert str(err.value) == "non-finite exponent at site (2, 5, 1)"


def test_forcing_quasinorm_empty_sub_interval_raises():
    spec = SPECS[1]
    g = _history(spec, np.random.default_rng(14), n_frames=9, dt=1.0)
    with pytest.raises(InsufficientHistoryError):
        forcing_quasinorm(g, 1.0, 2.0, 1, g.t_end(), [(0, 0)], dt_grid=np.array([0.5, 1.0]))


# --- stacked sub-interval averages against the per-sub-interval loop ---------------------

# quasinorm_tail's sub-interval lengths (M^j / 4 .. M^j at M = 2, j = 2) on a
# 0.25 frame step: ragged windows of 4 and 5 frames
RAGGED_DT = geometric_grid(1.0, 4.0)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
@pytest.mark.parametrize("dt_grid", [RAGGED_DT, geometric_grid(0.5, 2.0), None], ids=["ragged", "aligned", "default"])
@pytest.mark.parametrize("t0, t_back", [(0.0, 0.0), (0.75, 0.5)])
def test_forcing_sups_equal_per_sub_interval_loop(spec, dt_grid, t0, t_back):
    g = _history(spec, np.random.default_rng(800 + spec.d), n_frames=21)
    g = SpaceTimeField(spec=spec, dt=g.dt, frames=g.frames, t0=t0)
    M, j, lam = 2.0, 2, 0.8
    shifts = _two_shifts(spec.d)
    variants = ((None, float(M) ** j),) + tuple((cells, M ** (1.5 * j)) for cells in shifts)
    tau = default_tau_grid(spec)[::3]
    args = (g, lam, M, j, g.t_end() - t_back, _probes(spec))
    ref_dt = geometric_grid(max(g.dt, M**j / 16), M**j) if dt_grid is None else dt_grid
    got = forcing_quasinorm(*args, dt_grid, tau, shifts)
    ref = _ref_forcing_sups(*args, ref_dt, variants, tau)
    assert np.array_equal(np.stack(got), np.stack([ref[0], ref[1:].max(axis=0)]))


@pytest.mark.parametrize("dt_grid", [[0.5, 1.0], [1.0, 0.5], [1.0, 2.0, 0.75]])
def test_forcing_sups_empty_sub_interval_message(dt_grid):
    spec = SPECS[1]
    g = _history(spec, np.random.default_rng(14), n_frames=9, dt=1.0)
    args = (g, 1.0, 2.0, 1, g.t_end(), [(0, 0)], np.array(dt_grid))
    tau = default_tau_grid(spec)[::4]
    with pytest.raises(InsufficientHistoryError) as ref:
        _ref_forcing_sups(*args, ((None, 2.0),), tau)
    with pytest.raises(InsufficientHistoryError) as got:
        forcing_quasinorm(*args, tau, ())
    assert str(got.value) == str(ref.value)


def test_forcing_quasinorm_needs_a_probe(monkeypatch):
    # no probe is a bad argument, refused before any window is averaged
    averaged = []
    monkeypatch.setattr(maximal, "_window_averages", lambda *a: averaged.append(a))
    g = _history(SPECS[1], np.random.default_rng(14), n_frames=9, dt=1.0)
    with pytest.raises(BadArgumentError, match="forcing_quasinorm needs at least one probe"):
        forcing_quasinorm(g, 1.0, 2.0, 1, g.t_end(), [])
    assert averaged == []
