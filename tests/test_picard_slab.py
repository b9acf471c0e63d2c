"""The Picard slab recurrence against the former trapezoid sum.

The references below are the former slab written out: one Field per frame,
one heat multiplier per lag, the nonlinear term dealiased by a real-space
round trip, and the trapezoid Duhamel sum rebuilt from scratch for every step
of every sweep.  The recurrence changes only the order of the arithmetic, so
frames must agree within 1e-12 relative, and iteration counts and
convergence flags exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from kpzlab import solvers
from kpzlab.deposition import DepositionRate, power_clamp_rate, relativistic_rate, tabulated_rate
from kpzlab.grid import (
    Field,
    GridSpec,
    NumericalRangeError,
    _dealias_mask,
    _rfft_wavenumbers,
    constant_field,
    gradient_magnitude,
    ksq_array,
    lp_norm,
)
from kpzlab.heat import random_smooth_field
from kpzlab.solvers import SolveParams, _slab_picard, homogeneous_step, mild_solve

SPECS = {1: GridSpec(d=1, N=32, L_box=16.0), 2: GridSpec(d=2, N=16, L_box=16.0), 3: GridSpec(d=3, N=8, L_box=8.0)}
RATES = {"relativistic": relativistic_rate(), "powerclamp": power_clamp_rate(1.5)}


def _fft(v, spec):
    return np.fft.rfftn(v, axes=tuple(range(spec.d)))


def _ifft(vh, spec):
    return np.fft.irfftn(vh, s=spec.shape, axes=tuple(range(spec.d)))


def _ref_slab(h_start, n_s, p, tol, max_iter):
    """The former O(n_s^2) slab; returns (frames h_1..h_{n_s}, converged, sweeps)."""
    spec, dt = h_start.spec, p.dt
    ksq, mask = ksq_array(spec), _dealias_mask(spec)
    lag_mult = [np.exp(-p.nu * ksq * (l * dt)) for l in range(n_s + 1)]
    base_hat = [_fft(h_start.values, spec) * m for m in lag_mult]
    H = [Field(spec, _ifft(b, spec)) for b in base_hat]
    conv, it = False, 0
    for it in range(1, max_iter + 1):
        N_hat = []
        for h in H:
            V = p.rate.eval(gradient_magnitude(h).values)
            N_hat.append(_fft(_ifft(_fft(V, spec) * mask, spec), spec))
        H_new = [H[0]]
        diff = 0.0
        for i in range(1, n_s + 1):
            acc = base_hat[i].copy()
            for j in range(i + 1):
                w = dt if 0 < j < i else dt / 2
                acc += (p.lam * w) * lag_mult[i - j] * N_hat[j]
            hi = Field(spec, _ifft(acc, spec))
            diff = max(diff, float(np.max(np.abs(hi.values - H[i].values))))
            H_new.append(hi)
        H = H_new
        if diff < tol:
            conv = True
            break
    return [h.values for h in H[1:]], conv, it


def _ref_split(h, m, p, tol, max_iter):
    """One frame step as m former one-step slabs of p.dt / m: (end frame, converged, sweeps per slab)."""
    q = replace(p, dt=p.dt / m)
    sweeps = []
    for _ in range(m):
        new, conv, it = _ref_slab(h, 1, q, tol, max_iter)
        sweeps.append(it)
        if not conv:
            break
        h = Field(h.spec, new[-1])
    return new[-1:], conv, sweeps


def _ref_mild(h0, T, p, tol, max_iter):
    """The former slab loop: a first attempt, then a separate loop of halvings.

    Once a one-step slab fails, each attempt instead covers the frame step by
    ceil(dt / t_slab) former one-step slabs, the first at the c_slab that failed.
    """
    n_total = int(round(T / p.dt))
    frames, iterations, cs, halvings, substeps, done = [h0], [], solvers.C_SLAB, 0, 0, 0
    while done < n_total:
        g = lp_norm(gradient_magnitude(frames[-1]), np.inf)
        n_s = max(1, min(int(cs / (p.lam * g) ** 2 / p.dt), n_total - done, solvers.SLAB_MAX_STEPS))
        new, conv, it = _ref_slab(frames[-1], n_s, p, tol, max_iter)
        iterations.append(it)
        m = 1
        if not conv and n_s == 1 and math.ceil(p.dt * (p.lam * g) ** 2 / cs - 1e-9) > 1:
            m = math.ceil(p.dt * (p.lam * g) ** 2 / cs - 1e-9)
            new, conv, sweeps = _ref_split(frames[-1], m, p, tol, max_iter)
            iterations += sweeps
        for _ in range(solvers.MAX_HALVINGS):
            if conv:
                break
            cs /= 2
            halvings += 1
            if n_s == 1:
                m = max(1, math.ceil(p.dt * (p.lam * g) ** 2 / cs - 1e-9))
                new, conv, sweeps = _ref_split(frames[-1], m, p, tol, max_iter)
                iterations += sweeps
                continue
            n_s = max(1, min(int(cs / (p.lam * g) ** 2 / p.dt), n_total - done, solvers.SLAB_MAX_STEPS))
            new, conv, it = _ref_slab(frames[-1], n_s, p, tol, max_iter)
            iterations.append(it)
            if not conv and n_s == 1 and math.ceil(p.dt * (p.lam * g) ** 2 / cs - 1e-9) > 1:
                m = math.ceil(p.dt * (p.lam * g) ** 2 / cs - 1e-9)
                new, conv, sweeps = _ref_split(frames[-1], m, p, tol, max_iter)
                iterations += sweeps
        if not conv:
            return frames, False, iterations, halvings, substeps, cs
        frames.extend(Field(h0.spec, v) for v in new)
        done += 1 if m > 1 else n_s
        substeps += m if m > 1 else 0
    return frames, True, iterations, halvings, substeps, cs


def _assert_rel(got, ref, rtol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("rate", sorted(RATES))
@pytest.mark.parametrize("n_s", [1, 2, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_slab_matches_trapezoid_sum(monkeypatch, d, n_s, rate):
    spec = SPECS[d]
    h_start = random_smooth_field(spec, np.random.default_rng(10 * d + n_s), amp=0.5)
    p = SolveParams(nu=0.5, lam=1.0, rate=RATES[rate], dt=0.05)
    for max_iter in (2, solvers.PICARD_MAX_ITER):
        monkeypatch.setattr(solvers, "PICARD_MAX_ITER", max_iter)
        frames, conv, it = _slab_picard(h_start, n_s, p, 1e-10)
        ref, ref_conv, ref_it = _ref_slab(h_start, n_s, p, 1e-10, max_iter)
        assert (conv, it) == (ref_conv, ref_it)
        _assert_rel(frames, ref)


def _parent_slab(h_start, n_s, p, tol, max_iter):
    """The recurrence slab that forward-transformed the real slab for each sweep's nonlinear term."""
    spec, c = h_start.spec, p.lam * p.dt
    E = np.exp(-p.nu * ksq_array(spec) * p.dt)

    axes = tuple(range(-spec.d, 0))  # the grid axes of a stack of frames

    def fft(v):
        return np.fft.rfftn(v, axes=axes)

    def ifft(vh):
        return np.fft.irfftn(vh, s=spec.shape, axes=axes)

    def nonlinear(H):
        H_hat = fft(H)
        grad = [ifft(1j * kd * H_hat) for kd in _rfft_wavenumbers(spec)[2]]
        return fft(p.rate.eval(np.sqrt(sum(g**2 for g in grad)))) * _dealias_mask(spec)

    h_hat = fft(h_start.values)
    H = ifft(solvers._duhamel(h_hat, np.zeros((n_s + 1,) + h_hat.shape, complex), E, c))
    N = nonlinear(H)
    H = H[1:]
    for it in range(1, max_iter + 1):
        if it > 1:
            N[1:] = nonlinear(H)
        H_new = ifft(solvers._duhamel(h_hat, N, E, c)[1:])
        diff = float(np.max(np.abs(H_new - H)))
        H = H_new
        if diff < tol:
            return H, True, it
    return H, False, max_iter


@pytest.mark.parametrize("rate", sorted(RATES))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_slab_from_duhamel_spectra_matches_parent_slab(d, rate):
    # the nonlinear term read from the recurrence's spectra, not from a
    # forward transform of the real slab: frames move by rounding only
    spec = SPECS[d]
    h_start = random_smooth_field(spec, np.random.default_rng(70 + d), amp=0.5)
    p = SolveParams(nu=0.5, lam=1.0, rate=RATES[rate], dt=0.05)
    for n_s in (1, 5):
        frames, conv, it = _slab_picard(h_start, n_s, p, 1e-10)
        ref, ref_conv, ref_it = _parent_slab(h_start, n_s, p, 1e-10, solvers.PICARD_MAX_ITER)
        assert (conv, it) == (ref_conv, ref_it)
        _assert_rel(frames, ref)


def _former_fields(traj):
    """The former Trajectory fields (picard_iterations, halvings, substeps, c_slab), read from its attempts."""
    a = traj.attempts
    return (
        tuple(it for x in a for it in x.sweeps),
        round(math.log2(solvers.C_SLAB / a[-1].c_slab)),
        sum(x.substeps for x in a if x.converged and x.substeps > 1),
        a[-1].c_slab,
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_mild_solve_matches_former_loop(monkeypatch, seed):
    # with 8 sweeps per attempt, seed 1 converges after one halving; seed 0
    # starts at t_slab = 0.76 dt, where the former loop gave up at its first
    # slab after all halvings, and its first three frame steps converge as
    # two sub-steps each at c_slab 0.1
    monkeypatch.setattr(solvers, "PICARD_MAX_ITER", 8)
    spec = SPECS[1]
    h0 = random_smooth_field(spec, np.random.default_rng(seed), amp=1.0)
    p = SolveParams(nu=0.5, lam=1.0, rate=relativistic_rate(), dt=0.1)
    traj = mild_solve(h0, 1.0, p, tol=1e-10)
    frames, conv, iterations, halvings, substeps, cs = _ref_mild(h0, 1.0, p, 1e-10, 8)
    assert traj.converged == conv is True
    assert _former_fields(traj) == (tuple(iterations), halvings, substeps, cs)
    assert (halvings >= 1, substeps) == ((False, 6) if seed == 0 else (True, 0))
    _assert_rel([f.values for f in traj.frames], [f.values for f in frames])


def test_last_sweep_convergence_is_told_from_failure(monkeypatch):
    # with 8 sweeps per attempt, seed 1's first slab converges on its eighth
    # sweep and its fourth slab fails after eight: both list the cap, and
    # only converged tells them apart
    monkeypatch.setattr(solvers, "PICARD_MAX_ITER", 8)
    h0 = random_smooth_field(SPECS[1], np.random.default_rng(1), amp=1.0)
    p = SolveParams(nu=0.5, lam=1.0, rate=relativistic_rate(), dt=0.1)
    traj = mild_solve(h0, 1.0, p, tol=1e-10)
    first, fourth = traj.attempts[0], traj.attempts[3]
    assert first == solvers.SlabAttempt(2, 1, (8,), solvers.C_SLAB, True)
    assert fourth == solvers.SlabAttempt(3, 1, (8,), solvers.C_SLAB, False)
    assert traj.attempts[4].c_slab == solvers.C_SLAB / 2 and traj.converged
    # one sweep fewer, and the first slab fails too
    monkeypatch.setattr(solvers, "PICARD_MAX_ITER", 7)
    assert _slab_picard(h0, 2, p, 1e-10)[1:] == (False, 7)


def test_flat_start_gives_up_after_halvings(monkeypatch):
    # zero gradient at the slab start: the slab size must not divide by it,
    # and every attempt covers all ten frame steps
    monkeypatch.setattr(solvers, "PICARD_MAX_ITER", 1)
    spec = SPECS[1]
    p = SolveParams(nu=1.0, lam=1.0, rate=tabulated_rate(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 5.0]])), dt=0.1)
    h0 = constant_field(spec, 0.3)
    traj = mild_solve(h0, 1.0, p)
    assert not traj.converged
    assert len(traj.frames) == 1 and traj.frames[0] is h0
    assert traj.attempts == tuple(
        solvers.SlabAttempt(10, 1, (1,), solvers.C_SLAB / 2**k, False) for k in range(solvers.MAX_HALVINGS + 1)
    )
    assert _former_fields(traj) == ((1,) * (solvers.MAX_HALVINGS + 1), solvers.MAX_HALVINGS, 0,
                                    solvers.C_SLAB / 2**solvers.MAX_HALVINGS)
    msg = (rf"failed to converge at t = 0: the last of {solvers.MAX_HALVINGS + 1} slab attempts was "
           r"SlabAttempt\(steps=4, substeps=1, sweeps=\(1,\), c_slab=0\.0015625, converged=False\)")
    with pytest.raises(NumericalRangeError, match=msg):
        homogeneous_step(h0, 0.4, p)


def test_slab_rejects_non_finite_rate():
    spec = SPECS[1]
    blowup = DepositionRate(label="blowup", eval=lambda y: np.full_like(y, np.inf), deriv=lambda y: 0 * y)
    p = SolveParams(nu=1.0, lam=1.0, rate=blowup, dt=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        _slab_picard(random_smooth_field(spec, np.random.default_rng(0)), 3, p, 1e-10)


def test_non_finite_slab_is_a_failed_slab():
    # mild_solve counts a slab that turns non-finite as one that did not
    # contract: it halves, splits and gives up, and does not raise
    spec = SPECS[1]
    blowup = DepositionRate(label="blowup", eval=lambda y: np.full_like(y, np.inf), deriv=lambda y: 0 * y)
    h0 = random_smooth_field(spec, np.random.default_rng(0))
    traj = mild_solve(h0, 0.3, SolveParams(nu=1.0, lam=1.0, rate=blowup, dt=0.1))
    assert not traj.converged and traj.frames == (h0,)
    assert not any(a.converged for a in traj.attempts)
    iterations, halvings, substeps, _ = _former_fields(traj)
    assert halvings == solvers.MAX_HALVINGS and substeps == 0
    assert set(iterations) == {solvers.PICARD_MAX_ITER}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_sweep_makes_d_plus_2_transforms(fft_counts, monkeypatch, d):
    spec, n_s = SPECS[d], 5
    h_start = random_smooth_field(spec, np.random.default_rng(d), amp=0.5)
    p = SolveParams(nu=0.5, lam=1.0, rate=relativistic_rate(), dt=0.05)
    calls, slices = fft_counts
    per_run = []
    for sweeps in (1, 2):
        monkeypatch.setattr(solvers, "PICARD_MAX_ITER", sweeps)
        for counts in fft_counts:
            counts.update(rfftn=0, irfftn=0)
        _slab_picard(h_start, n_s, p, tol=0.0)  # tol 0: every sweep runs
        per_run.append({"calls": sum(calls.values()), "slices": sum(slices.values())})
    sweep = {k: per_run[1][k] - per_run[0][k] for k in per_run[0]}
    # d gradient inverses and one forward transform of the nonlinear term, read
    # from the last sweep's spectra, and one inverse of the new slab; the slab
    # start's nonlinear term is reused
    assert sweep["calls"] == d + 2
    assert sweep["slices"] == n_s * (d + 2)
    assert per_run[0]["calls"] - sweep["calls"] == 2  # the start's transform and its heat flow
