"""Noise histories kept as spectra, against the per-frame real-space chain.

The references below are written out frame by frame with numpy.fft: draw a
frame, mollify it by a forward and an inverse transform, sum the phi^j lags
one output at a time from per-frame transforms, then take the centered time
difference and the spectral Laplacian in real space.  The spectral pipeline
changes only the order of the arithmetic, so it must agree within 1e-12
relative; where the arithmetic is unchanged it must agree bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from kpzlab import heat, noise
from kpzlab.grid import Field, GridSpec, SpaceTimeField, gradient, ksq_array
from kpzlab.heat import MAX_BLOCK, HeatParams, _lag_sum, _psi_multiplier
from kpzlab.noise import (
    NoiseParams,
    build_partition,
    empirical_covariance,
    eta_history_ensemble,
    eta_scale,
    eta_snapshot_ensemble,
    sample_noise,
    scale_field,
    scale_field_trajectory,
)

SPECS = {1: GridSpec(d=1, N=32, L_box=16.0), 2: GridSpec(d=2, N=16, L_box=16.0), 3: GridSpec(d=3, N=8, L_box=8.0)}


def _fft(v, spec):
    return np.fft.rfftn(v, axes=tuple(range(spec.d)))


def _ifft(vh, spec):
    return np.fft.irfftn(vh, s=spec.shape, axes=tuple(range(spec.d)))


def _ref_noise(params, n, k0=0):
    """The per-frame sampling loop: draw, transform, multiply by chi-hat, transform back."""
    spec = params.spec
    khat = noise._chi_kernel_hat(spec)
    amp = 1.0 / math.sqrt(params.dt * spec.dx**spec.d)
    return [
        _ifft(_fft(amp * noise._frame_generator(params, k0 + k).standard_normal(spec.shape), spec) * khat, spec)
        for k in range(n)
    ]


def _ref_phi(frames, spec, dt, nu, sd, j, k_t, n_lags):
    """One phi^j output: per-lag sum of per-frame transforms, lags cut at frame 0."""
    w = np.zeros(n_lags)
    if n_lags >= 3:
        w[1:] = dt
        w[1] = w[-1] = dt / 2
    w = w * sd.chi_bar(j, dt * np.arange(n_lags))
    ksq = ksq_array(spec)
    if j == 0:
        acc = _psi_multiplier(spec, nu, dt, 0.0) * _fft(frames[k_t], spec)
    else:
        acc = np.zeros(ksq.shape, dtype=complex)
    for l in range(1, min(n_lags, k_t + 1)):
        acc = acc + w[l] * np.exp(-nu * (l * dt) * ksq) * _fft(frames[k_t - l], spec)
    return _ifft(acc, spec)


def _ref_eta(phis, spec, dt, nu):
    """eta^j at phis[1:-1]: centered differences and a per-frame spectral Laplacian."""
    ksq = ksq_array(spec)
    return [
        (phis[i + 1] - phis[i - 1]) / (2 * dt) - nu * _ifft(-ksq * _fft(phis[i], spec), spec)
        for i in range(1, len(phis) - 1)
    ]


def _assert_rel(got, ref, rtol=1e-12):
    np.testing.assert_allclose(got, ref, rtol=0, atol=rtol * np.abs(ref).max())


# --- noise frames ------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_noise_is_the_per_frame_round_trip(d):
    # 2 MAX_BLOCK + 3 frames, starting off frame 0: three draw blocks
    params = NoiseParams(spec=SPECS[d], dt=0.5, seed=17, replicate=3)
    n = 2 * MAX_BLOCK + 3
    got = sample_noise(params, (n - 1) * params.dt, t0=5 * params.dt)
    assert got.n_frames == n and got.t0 == 5 * params.dt
    for f, ref in zip(got.frames, _ref_noise(params, n, k0=5)):
        np.testing.assert_array_equal(f.values, ref)


# --- the lag kernel ------------------------------------------------------------------


@pytest.mark.parametrize("block_outputs", [1, 3, None])
@pytest.mark.parametrize("with_head", [False, True])
def test_lag_sum_block_equals_single_outputs(monkeypatch, with_head, block_outputs):
    # a block that starts before the lags are all available must cut them
    # at frame 0 (a negative slice start would wrap around to the end); the
    # accumulator blocks of 1 or 3 outputs split the requested ranges
    spec = SPECS[2]
    if block_outputs is not None:
        monkeypatch.setattr(heat, "LAG_BYTES", block_outputs * 16 * ksq_array(spec).size)
    rng = np.random.default_rng(4)
    shape = (30,) + ksq_array(spec).shape
    hats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weights = rng.uniform(0.1, 1.0, 12)
    weights[[0, 3, 4]] = 0.0
    head = _psi_multiplier(spec, 0.4, 0.3, 0.0) if with_head else None
    for a, b in ((0, 30), (2, 9), (11, 12), (25, 30)):
        block = _lag_sum(spec, 0.3, 0.4, hats, a, b, weights, head)
        assert block.shape == (b - a,) + ksq_array(spec).shape
        for i, k in enumerate(range(a, b)):
            ref = head * hats[k] if with_head else np.zeros(shape[1:], dtype=complex)
            for l in range(1, min(len(weights), k + 1)):
                if weights[l] != 0.0:
                    ref = ref + weights[l] * np.exp(-(0.4 * (l * 0.3)) * ksq_array(spec)) * hats[k - l]
            np.testing.assert_array_equal(block[i], _lag_sum(spec, 0.3, 0.4, hats, k, k + 1, weights, head)[0])
            np.testing.assert_allclose(block[i], ref, rtol=1e-14, atol=0)


# --- eta^j histories -------------------------------------------------------------------


@pytest.mark.parametrize("dt", [0.5, 0.37])
@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_history_matches_real_space_chain(d, j, dt):
    # dt = 0.37 divides neither the support end M^(j+1) nor the horizon; the
    # longer histories span two blocks, the last one a single frame or more
    spec, M, nu = SPECS[d], 2.0, 0.3
    sd = build_partition(M, j)
    p = HeatParams(nu=nu)
    params = NoiseParams(spec=spec, dt=dt, seed=9, replicate=1)
    k_start = math.ceil((M ** (j + 1) + 2 * dt) / dt)
    n_lags = int(math.floor(M ** (j + 1) / dt + 1e-9)) + 1
    for n_out in (1, MAX_BLOCK - 1, MAX_BLOCK + 5):
        got = list(eta_history_ensemble(params, sd, j, 2, p, T_traj=(n_out - 1) * dt))
        assert len(got) == 2
        for r, traj in enumerate(got):
            assert traj.n_frames == n_out and traj.t0 == k_start * dt
            frames = _ref_noise(replace(params, replicate=1 + r), k_start + n_out + 1)
            phis = [_ref_phi(frames, spec, dt, nu, sd, j, k, n_lags) for k in range(k_start - 1, k_start + n_out + 1)]
            for f, ref in zip(traj.frames, _ref_eta(phis, spec, dt, nu)):
                _assert_rel(f.values, ref)


@pytest.mark.parametrize("frames_per_batch,outputs_per_lag_block", [(1, 1), (2, 3), (5, 2)])
def test_blocking_does_not_change_results(monkeypatch, frames_per_batch, outputs_per_lag_block):
    # large grids take small blocks; every block size gives the same numbers
    spec, j, dt = SPECS[3], 2, 0.5
    sd = build_partition(2.0, j)
    p = HeatParams(nu=0.5)
    params = NoiseParams(spec=spec, dt=dt, seed=8)
    ref_hist = list(eta_history_ensemble(params, sd, j, 2, p, T_traj=20 * dt))
    ref_noise = sample_noise(params, 20 * dt)
    ref_phi = scale_field_trajectory(ref_noise, sd, j, [k * dt for k in (17, 18, 19, 20, 15)], p)
    monkeypatch.setattr(heat, "BATCH_BYTES", frames_per_batch * 8 * spec.n_sites)
    monkeypatch.setattr(heat, "LAG_BYTES", outputs_per_lag_block * 16 * ksq_array(spec).size)
    assert heat._frame_block(spec) == frames_per_batch
    for a, b in zip(eta_history_ensemble(params, sd, j, 2, p, T_traj=20 * dt), ref_hist):
        np.testing.assert_array_equal(a.values_array(), b.values_array())
    got_noise = sample_noise(params, 20 * dt)
    np.testing.assert_array_equal(got_noise.values_array(), ref_noise.values_array())
    got_phi = scale_field_trajectory(got_noise, sd, j, [k * dt for k in (17, 18, 19, 20, 15)], p)
    for a, b in zip(got_phi, ref_phi):
        np.testing.assert_array_equal(a.values, b.values)


def test_snapshot_ensemble_matches_real_space_chain():
    spec, M, j, dt, nu = SPECS[3], 2.0, 2, 0.5, 0.5
    sd = build_partition(M, j)
    params = NoiseParams(spec=spec, dt=dt, seed=12)
    snaps = list(eta_snapshot_ensemble(params, sd, j, 3, HeatParams(nu=nu)))
    k = math.ceil((M ** (j + 1) + 2 * dt) / dt)
    for r, snap in enumerate(snaps):
        frames = _ref_noise(replace(params, replicate=r), k + 2)
        phis = [_ref_phi(frames, spec, dt, nu, sd, j, i, 17) for i in (k - 1, k, k + 1)]
        _assert_rel(snap.values, _ref_eta(phis, spec, dt, nu)[0])


@pytest.mark.parametrize("j", [0, 2])
@pytest.mark.parametrize("d", [1, 3])
def test_scale_field_trajectory_cut_at_frame_zero(d, j):
    # the earliest frame scale_field_trajectory accepts is up to one frame
    # short of the support; with a later output in the same call the lags
    # are not capped, so those of the earliest output reach before frame 0
    spec, M, dt, nu = SPECS[d], 2.0, 0.5, 0.3
    sd = build_partition(M, j)
    needed = M ** (j + 1)
    k_first = math.ceil((needed - 1.0001 * dt) / dt)
    n_lags = int(math.floor(needed / dt + 1e-9)) + 1
    assert k_first < n_lags - 1
    frames = _ref_noise(NoiseParams(spec=spec, dt=dt, seed=2), n_lags + 25)
    eta = sample_noise(NoiseParams(spec=spec, dt=dt, seed=2), (n_lags + 24) * dt)
    ks = [k_first, k_first + 1, n_lags + 20, n_lags + 21, n_lags + 22, k_first + 3]
    got = scale_field_trajectory(eta, sd, j, [k * dt for k in ks], HeatParams(nu=nu))
    for f, k in zip(got, ks):
        _assert_rel(f.values, _ref_phi(frames, spec, dt, nu, sd, j, k, n_lags))
    with pytest.raises(noise.InsufficientHistoryError):
        scale_field_trajectory(eta, sd, j, [(k_first - 1) * dt], HeatParams(nu=nu))


def test_eta_scale_matches_per_frame_laplacian():
    spec, dt, nu = SPECS[2], 0.25, 0.7
    rng = np.random.default_rng(3)
    vals = [_ifft(_fft(rng.standard_normal(spec.shape), spec) * np.exp(-ksq_array(spec)), spec) for _ in range(6)]
    got = eta_scale(SpaceTimeField(spec=spec, dt=dt, frames=tuple(Field(spec, v) for v in vals)), HeatParams(nu=nu))
    for i in range(1, 5):
        np.testing.assert_array_equal(got.frames[i].values, _ref_eta(vals[i - 1 : i + 2], spec, dt, nu)[0])


# --- transform counts ----------------------------------------------------------------------


def test_history_transforms_each_frame_once(fft_counts, monkeypatch):
    spec, M, j, dt = SPECS[3], 2.0, 2, 0.25
    params = NoiseParams(spec=spec, dt=dt, seed=1)
    noise._chi_kernel_hat(spec)  # the mollifier's own transform is cached
    drawn = []
    real_gen = noise._frame_generator

    def counted_gen(prm, k):
        drawn.append((prm.replicate, k))
        return real_gen(prm, k)

    monkeypatch.setattr(noise, "_frame_generator", counted_gen)
    _, slices = fft_counts  # a batched transform counts once per frame
    slices.update(rfftn=0, irfftn=0)
    trajs = list(eta_history_ensemble(params, build_partition(M, j), j, 2, HeatParams(nu=0.5), T_traj=8.0))
    n_out = sum(t.n_frames for t in trajs)
    assert n_out == 2 * 33
    assert len(set(drawn)) == len(drawn) > 0
    assert slices == {"rfftn": len(drawn), "irfftn": n_out}


# --- covariance estimator ---------------------------------------------------------------------


def _centred_cov(a, b, dx):
    return float(np.mean((a - a.mean()) * (np.roll(b, -dx, axis=0) - b.mean())))


@pytest.mark.parametrize("d", [1, 3])
def test_covariance_is_centred_site_average(d):
    spec, M, dt, nu = SPECS[d], 2.0, 0.5, 0.5
    sd = build_partition(M, 3)
    params = NoiseParams(spec=spec, dt=dt, seed=6)
    pairs, dt_lags, dx_lags = [(1, 1), (1, 2), (2, 3)], (0.0, 1.0), (0, 1, 3)
    p = HeatParams(nu=nu)
    tab = empirical_covariance(params, sd, pairs, 3, p, dt_lags=dt_lags, dx_lags=dx_lags)
    k_probe = math.ceil(M**4 / dt - 1e-9) + 2
    ref = {}
    var = {}
    grad = {}
    for r in range(3):
        eta = sample_noise(replace(params, replicate=r), (k_probe + 3) * dt)
        fields = {}
        for jj in (1, 2, 3):
            for lag in dt_lags:
                t = k_probe * dt + lag
                phis = SpaceTimeField(
                    spec=spec, dt=dt, frames=tuple(scale_field(eta, sd, jj, t + s * dt, p) for s in (-1, 0, 1))
                )
                fields[("phi", jj, lag)] = phis.frames[1].values
                fields[("eta", jj, lag)] = eta_scale(phis, p).frames[1].values
        for f in ("phi", "eta"):
            for jj in (1, 2, 3):
                a = fields[(f, jj, 0.0)]
                var.setdefault((f, jj), []).append(a.var())
            for (ja, jb) in pairs:
                for lag in dt_lags:
                    for dx in dx_lags:
                        c = _centred_cov(fields[(f, ja, 0.0)], fields[(f, jb, lag)], dx)
                        ref.setdefault((f, ja, jb, lag, dx), []).append(c)
        for jj in (1, 2, 3):
            grad.setdefault(jj, []).append(gradient(Field(spec, fields[("phi", jj, 0.0)]))[0].values.var())
    assert len(tab.entries) == len(ref)
    for e in tab.entries:
        vals = np.asarray(ref[(e.field, e.j, e.j2, e.dt_lag, e.dx_lag)])
        scale = math.sqrt(tab.var[(e.field, e.j)] * tab.var[(e.field, e.j2)])
        assert e.n == 3
        assert abs(e.cov - vals.mean()) <= 1e-12 * scale
        assert e.stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(3), rel=1e-9, abs=1e-12 * scale)
        if e.dt_lag == 0.0:
            assert abs(e.cov) <= scale * (1 + 1e-12)
    for key, v in var.items():
        assert tab.var[key] == pytest.approx(np.mean(v), rel=1e-12)
    for jj, v in grad.items():
        assert tab.grad_var[jj] == pytest.approx(np.mean(v), rel=1e-12)
    # the zero-lag self-covariance is the variance itself
    for f in ("phi", "eta"):
        assert tab.lookup(f, 1, 1).cov == tab.var[(f, 1)]
