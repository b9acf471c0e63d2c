import numpy as np
import pytest

from kpzlab.grid import (
    BadArgumentError, Field, GridSpec, InsufficientHistoryError, SpaceTimeField, constant_field, lp_norm, zero_field,
)
from kpzlab.heat import (
    HeatParams,
    cutoff_kernel_decay,
    green_apply,
    heat_apply,
    random_smooth_field,
    verify_parabolic_estimates,
)

P = HeatParams(nu=0.5)


def test_params_validation(fft_counts, spec1d):
    with pytest.raises(ValueError):
        HeatParams(nu=0.0)
    # a cutoff (M, j) is checked like every scale pair, before any transform
    g = _history(spec1d, [zero_field(spec1d)] * 3, 0.5)
    for cutoff in ((1.0, 2), (2.0, -1), (np.nan, 2)):
        with pytest.raises(BadArgumentError):
            green_apply(g, 1.0, P, cutoff=cutoff)
        with pytest.raises(BadArgumentError):
            cutoff_kernel_decay(spec1d, P, cutoff)
    assert fft_counts[0] == {"rfftn": 0, "irfftn": 0}


def test_heat_constant_preserved(spec1d):
    c = constant_field(spec1d, 2.5)
    out = heat_apply(c, 3.0, P)
    assert np.abs(out.values - 2.5).max() < 1e-13


def test_heat_identity_at_zero(rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    out = heat_apply(f, 0.0, P)
    assert out.values is f.values  # bit-exact


def test_heat_negative_time(spec1d):
    with pytest.raises(BadArgumentError):
        heat_apply(zero_field(spec1d), -1.0, P)


def test_heat_gaussian_oracle():
    # closed form: variance sigma^2 grows to sigma^2 + 2 nu t
    spec = GridSpec(d=1, N=256, L_box=64.0)
    x = spec.axis_coords()
    c, sig2, t = 32.0, 1.0, 2.0
    blob = Field(spec, np.exp(-((x - c) ** 2) / (2 * sig2)))
    out = heat_apply(blob, t, P)
    s2t = sig2 + 2 * P.nu * t
    expect = np.sqrt(sig2 / s2t) * np.exp(-((x - c) ** 2) / (2 * s2t))
    assert np.abs(out.values - expect).max() < 1e-8


def test_semigroup_law(rng, spec2d):
    f = random_smooth_field(spec2d, rng)
    a = heat_apply(heat_apply(f, 0.7, P), 1.1, P)
    b = heat_apply(f, 1.8, P)
    assert np.abs(a.values - b.values).max() < 1e-12


def test_positivity(rng, spec1d):
    for _ in range(10):
        f = random_smooth_field(spec1d, rng)
        f = Field(spec1d, f.values**2)
        for t in (1e-3, 0.1, 1.0, 10.0):
            assert heat_apply(f, t, P).values.min() >= -1e-14


def test_max_principle(rng, spec1d):
    for _ in range(10):
        f = random_smooth_field(spec1d, rng)
        for t in (1e-3, 0.1, 1.0, 10.0):
            assert lp_norm(heat_apply(f, t, P), np.inf) <= lp_norm(f, np.inf) + 1e-12


def _history(spec, frames, dt):
    return SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=0.0)


def test_green_zero(spec1d):
    g = _history(spec1d, [zero_field(spec1d)] * 6, 0.5)
    assert np.abs(green_apply(g, 2.5, P).values).max() == 0.0


def test_green_constant_horizon(spec1d):
    g = _history(spec1d, [constant_field(spec1d, 2.0)] * 11, 0.5)
    out = green_apply(g, 5.0, P)
    assert np.abs(out.values - 2.0 * 5.0).max() < 1e-12


def test_green_single_impulse(rng, spec1d):
    frames = [zero_field(spec1d) for _ in range(11)]
    imp = random_smooth_field(spec1d, rng)
    frames[5] = imp
    g = _history(spec1d, frames, 0.5)
    out = green_apply(g, 5.0, P)
    expect = heat_apply(imp, 2.5, P)
    assert np.abs(out.values - 0.5 * expect.values).max() < 1e-12


def test_green_insufficient_history(spec1d):
    g = _history(spec1d, [zero_field(spec1d)] * 4, 0.5)
    with pytest.raises(InsufficientHistoryError):
        green_apply(g, 0.0, P)
    with pytest.raises(ValueError):
        green_apply(g, 9.0, P)


def test_cutoff_limit_matches_plain(rng, spec1d):
    frames = [random_smooth_field(spec1d, rng) for _ in range(9)]
    g = _history(spec1d, frames, 0.25)
    a = green_apply(g, 2.0, P)
    b = green_apply(g, 2.0, P, cutoff=(2.0, 400))
    assert np.abs(a.values - b.values).max() < 1e-12


def test_cutoff_stationary_constant(spec1d):
    # closed form: int_0^inf e^{-M^{-j} s} ds = M^j, truncated at 8 M^j
    dt = 0.05
    n = int(8 * 8 / dt) + 1
    g = _history(spec1d, [constant_field(spec1d, 1.0)] * n, dt)
    out = green_apply(g, 8 * 8.0, HeatParams(nu=1.0), cutoff=(2.0, 3))
    assert abs(out.values.max() - 8.0) / 8.0 < 5e-4


def test_cutoff_sup_bound(rng, spec1d):
    dt = 0.125
    n = int(8 * 4 / dt) + 1
    frames = [random_smooth_field(spec1d, rng) for _ in range(n)]
    g = _history(spec1d, frames, dt)
    sup_g = max(lp_norm(f, np.inf) for f in frames)
    out = green_apply(g, 8 * 4.0, HeatParams(nu=1.0), cutoff=(2.0, 2))
    assert lp_norm(out, np.inf) <= 4.0 * sup_g * (1 + 1e-6)


def test_cutoff_kernel_exponential_decay():
    spec = GridSpec(d=1, N=256, L_box=128.0)
    c_fit, _, _ = cutoff_kernel_decay(spec, HeatParams(nu=1.0), (2.0, 2))
    assert c_fit > 0


def test_parabolic_contraction(spec1d):
    for p in (1.0, 2.0, np.inf):
        c_hat = verify_parabolic_estimates(spec1d, k=0, p=p, q=p, trials=5, heat_params=P, seed=3)
        assert c_hat <= 1 + 1e-10


def test_parabolic_k1_grid_stability():
    # C-hat for the gradient estimate stays put (+-10%) as N doubles
    vals = {}
    for N in (128, 256):
        spec = GridSpec(d=1, N=N, L_box=64.0)
        t_grid = np.geomspace(0.5, 8.0, 8)
        c_hat = verify_parabolic_estimates(
            spec, k=1, p=np.inf, q=1.0, trials=8, heat_params=P, t_grid=t_grid,
            seed=11, corr_len=2.0,
        )
        vals[N] = c_hat
        assert np.isfinite(c_hat)
    assert abs(vals[256] / vals[128] - 1) < 0.10


def test_parabolic_chat_nondecreasing_in_k_recorded(spec1d, capsys):
    # recorded observation, not asserted
    t_grid = np.geomspace(0.5, 8.0, 6)
    cs = [
        verify_parabolic_estimates(
            spec1d, k=k, p=np.inf, q=2.0, trials=4, heat_params=P, t_grid=t_grid, seed=5
        )
        for k in (0, 1, 2)
    ]
    print(f"recorded C_k for k=0,1,2: {cs}")
