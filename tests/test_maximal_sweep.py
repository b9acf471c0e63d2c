"""The shared maximal sweep against the per-scale loops it replaced.

The references below are the former implementations: one heat_apply per tau
for the star and log-star sweeps, a clamped ball average per rho for the
sharp sweep, and a forcing quasi-norm that rebuilt every sub-interval average
once per shift inside a closure.
"""

import numpy as np
import pytest

from kpzlab.grid import Field, GridSpec, SpaceTimeField, _irfftn, _rfftn
from kpzlab.heat import HeatParams, heat_apply, random_smooth_field
from kpzlab.maximal import (
    _ball_kernels,
    _interval_average,
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
    fhat = _rfftn(absv)
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


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}")
@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_star_and_sharp_match_loops(spec, alpha):
    rng = np.random.default_rng(100 + spec.d)
    f = random_smooth_field(spec, rng)
    tau, rho = default_tau_grid(spec), default_rho_grid(spec)
    _assert_rel(star_maximal(f, alpha, tau).profile.values, _ref_star(f, alpha, tau))
    _assert_rel(sharp_maximal(f, alpha, rho).profile.values, _ref_sharp(f, alpha, rho))


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
    probes = [(0,) * spec.d, (spec.N // 2,) * spec.d]
    dt_grid = geometric_grid(0.5, 2.0)
    tau = default_tau_grid(spec)[::4]
    args = (g, 0.7, 2.0, 1, g.t_end(), probes)
    got = forcing_quasinorm(
        *args, dt_grid=dt_grid, with_gradient=with_gradient, tau_grid=tau
    )
    _assert_rel(got, _ref_forcing(*args, dt_grid, with_gradient, None, tau))


def test_forcing_quasinorm_two_shifts_is_max_of_each():
    spec = SPECS[1]
    g = _history(spec, np.random.default_rng(7))
    kw = dict(dt_grid=geometric_grid(0.5, 2.0), with_gradient=True, tau_grid=default_tau_grid(spec)[::4])
    args = (g, 0.7, 2.0, 1, g.t_end(), [(0, 0), (3, 5)])
    a = forcing_quasinorm(*args, shift_set=((1, 0),), **kw)
    b = forcing_quasinorm(*args, shift_set=((0, 2),), **kw)
    both = forcing_quasinorm(*args, shift_set=((1, 0), (0, 2)), **kw)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(both, np.maximum(a, b))


@pytest.mark.parametrize("sweep", ["star", "log_star"])
def test_sweep_transforms_the_field_once(monkeypatch, sweep):
    spec = SPECS[1]
    f = random_smooth_field(spec, np.random.default_rng(9))
    tau = default_tau_grid(spec)
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        real = getattr(np.fft, name)

        def counted(*a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(np.fft, name, counted)
    if sweep == "star":
        star_maximal(f, 0.3, tau)
    else:
        log_star_exp(f, tau)
    assert calls == {"rfftn": 1, "irfftn": len(tau)}
