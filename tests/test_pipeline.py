"""The shared noise pipeline, the shared lag quadrature and the single FFT entry point.

Reference loops written out here are the per-caller implementations the
shared code replaced; where the arithmetic is unchanged they must agree bit
for bit.
"""

import ast
import builtins
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpzlab
from kpzlab import grid, ldp, maximal, noise, solvers
from kpzlab.grid import Field, GridSpec, SpaceTimeField, _AXES, ksq_array
from kpzlab.heat import (
    HeatParams,
    _psi_multiplier,
    green_apply,
    heat_apply,
    random_smooth_field,
)
from kpzlab.noise import (
    NoiseParams,
    build_partition,
    eta_history_ensemble,
    eta_scale,
    eta_snapshot_ensemble,
    sample_noise,
    scale_field_trajectory,
)

SPEC3 = GridSpec(d=3, N=8, L_box=8.0)


def _history(spec, dt, n, seed):
    rng = np.random.default_rng(seed)
    frames = tuple(random_smooth_field(spec, rng) for _ in range(n))
    return SpaceTimeField(spec=spec, dt=dt, frames=frames, t0=0.0)


# --- one noise pipeline ---------------------------------------------------------


@pytest.mark.parametrize("j", [2, 3])
def test_snapshot_is_frame_zero_of_history(j):
    params = NoiseParams(spec=SPEC3, dt=0.5, seed=21, replicate=4)
    sd = build_partition(2.0, j)
    p = HeatParams(nu=0.5)
    snaps = list(eta_snapshot_ensemble(params, sd, j, 3, p))
    trajs = list(eta_history_ensemble(params, sd, j, 3, p, T_traj=0.0))
    assert len(snaps) == len(trajs) == 3
    for s, tr in zip(snaps, trajs):
        assert tr.n_frames == 1
        np.testing.assert_array_equal(s.values, tr.frames[0].values)


@pytest.mark.parametrize("j", [2, 3])
def test_history_matches_inline_cutoff_chain(j):
    # the sample -> phi^j stencil -> eta^j chain criterion 7 used to spell out
    M, nu, seed, ensemble = 2.0, 0.25, 2000, 2
    Mj = M**j
    dt = Mj / 16
    T = 3 * Mj
    sd = build_partition(M, j)
    p = HeatParams(nu=nu)
    t_start = math.ceil((M ** (j + 1) + 2 * dt) / dt) * dt
    got = list(eta_history_ensemble(NoiseParams(spec=SPEC3, dt=dt, seed=seed), sd, j, ensemble, p, T_traj=T))
    for r in range(ensemble):
        eta = sample_noise(NoiseParams(spec=SPEC3, dt=dt, seed=seed, replicate=r), t_start + T + 2 * dt)
        tlist = [t_start + k * dt for k in range(int(T / dt) + 1)]
        phis = scale_field_trajectory(eta, sd, j, [tlist[0] - dt] + tlist + [tlist[-1] + dt], p)
        stf = SpaceTimeField(spec=SPEC3, dt=dt, frames=tuple(phis), t0=tlist[0] - dt)
        ref = eta_scale(stf, p).frames[1:-1]
        assert got[r].t0 == tlist[0] and got[r].n_frames == len(ref)
        # the history forms eta^j on spectra, the chain in real space
        for a, b in zip(got[r].frames, ref):
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12 * np.abs(b.values).max())


def test_snapshot_takes_one_laplacian(fft_counts, monkeypatch):
    # outside the noise draws and the phi^j lag sums, the eta^j stencil and
    # Laplacian act on spectra: the only transform left is one inverse per snapshot
    calls, _ = fft_counts
    for name in ("_noise_hat", "scale_field_trajectory"):
        real = getattr(noise, name)

        def uncounted(*a, _real=real, **k):
            before = dict(calls)
            try:
                return _real(*a, **k)
            finally:
                calls.update(before)

        monkeypatch.setattr(noise, name, uncounted)
    params = NoiseParams(spec=SPEC3, dt=0.5, seed=5)
    snaps = list(eta_snapshot_ensemble(params, build_partition(2.0, 2), 2, 2, HeatParams(nu=0.5)))
    assert len(snaps) == 2
    assert calls == {"rfftn": 0, "irfftn": 2}


# --- one lag quadrature ------------------------------------------------------------


def _old_green(g, t, nu, eps):
    k_t = g.frame_index(t)
    spec, dt = g.spec, g.dt
    ksq = ksq_array(spec)
    acc = _psi_multiplier(spec, nu, dt, eps) * np.fft.rfftn(g.frames[k_t].values)
    if k_t >= 2:
        for p in range(1, k_t + 1):
            s = p * dt
            w = dt if 1 < p < k_t else dt / 2
            hat = np.fft.rfftn(g.frames[k_t - p].values)
            acc = acc + (w * np.exp(-eps * s)) * np.exp(-nu * s * ksq) * hat
    return np.fft.irfftn(acc, s=spec.shape, axes=_AXES(spec.shape))


def _old_scale_field(eta, sd, j, t, nu):
    spec, dt = eta.spec, eta.dt
    ksq = ksq_array(spec)
    k_t = eta.frame_index(t)
    n_lags = min(int(math.floor(sd.support(j)[1] / dt + 1e-9)) + 1, k_t + 1)
    w = np.full(n_lags, dt)
    w[0] = 0.0
    w[1] = dt / 2
    w[-1] = dt / 2
    w = w * sd.chi_bar(j, dt * np.arange(n_lags))
    hat = [np.fft.rfftn(f.values) for f in eta.frames]
    acc = _psi_multiplier(spec, nu, dt, 0.0) * hat[k_t] if j == 0 else np.zeros_like(hat[k_t])
    for l in range(1, n_lags):
        if w[l] != 0.0:
            acc = acc + w[l] * np.exp(-nu * ksq * (l * dt)) * hat[k_t - l]
    return np.fft.irfftn(acc, s=spec.shape, axes=_AXES(spec.shape))


@pytest.mark.parametrize("nu,dt", [(0.5, 0.25), (0.3, 0.2)])
@pytest.mark.parametrize("d", [1, 3])
def test_green_matches_reference_loop(d, nu, dt):
    spec = GridSpec(d=d, N=8 if d == 3 else 64, L_box=8.0)
    g = _history(spec, dt, 30, seed=d)
    for k_t in (1, 2, 3, 29):
        t = k_t * dt
        ref = _old_green(g, t, nu, 0.0)
        np.testing.assert_array_equal(green_apply(g, t, HeatParams(nu=nu)).values, ref)
        got = green_apply(g, t, HeatParams(nu=nu), cutoff=(2.0, 1)).values
        np.testing.assert_array_equal(got, _old_green(g, t, nu, 0.5))


@pytest.mark.parametrize("nu,dt", [(0.5, 0.25), (0.3, 0.2)])
@pytest.mark.parametrize("d", [1, 3])
def test_scale_field_matches_reference_loop(d, nu, dt):
    # the old loop computed its lag multiplier as exp((-nu |k|^2) (l dt)); the
    # shared one reads exp(-(nu l dt) |k|^2), equal when nu l dt is exact
    spec = GridSpec(d=d, N=8 if d == 3 else 64, L_box=8.0)
    eta = _history(spec, dt, 90, seed=10 + d)
    sd = build_partition(2.0, 3)
    exact = nu * 4 == int(nu * 4) and dt * 4 == int(dt * 4)
    for j in range(4):
        t = 89 * dt
        got = scale_field_trajectory(eta, sd, j, [t], HeatParams(nu=nu))[0].values
        ref = _old_scale_field(eta, sd, j, t, nu)
        if exact:
            np.testing.assert_array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_green_one_interval_is_head_only():
    spec = GridSpec(d=2, N=16, L_box=8.0)
    dt, nu = 0.3, 0.7
    g = _history(spec, dt, 2, seed=5)
    frame_hat = np.fft.rfftn(g.frames[1].values)
    for eps, got in (
        (0.0, green_apply(g, dt, HeatParams(nu=nu))),
        (0.25, green_apply(g, dt, HeatParams(nu=nu), cutoff=(2.0, 2))),
    ):
        head_hat = _psi_multiplier(spec, nu, dt, eps) * frame_hat
        head = np.fft.irfftn(head_hat, s=spec.shape, axes=_AXES(spec.shape))
        np.testing.assert_array_equal(got.values, head)


def test_scales_telescope_on_one_interval():
    # with a single frame interval of history, the only scale available
    # (j = 0) and the Green response take the same head-only quadrature
    spec = GridSpec(d=1, N=32, L_box=8.0)
    g = _history(spec, 1.0, 2, seed=8)
    p = HeatParams(nu=0.5)
    phi0 = scale_field_trajectory(g, build_partition(2.0, 0), 0, [1.0], p)[0]
    np.testing.assert_array_equal(phi0.values, green_apply(g, 1.0, p).values)


# --- one FFT entry point and one exception type per failure mode ----------------------


def test_transforms_only_in_grid():
    src = Path(kpzlab.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "grid.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if any(name in line for name in ("np.fft.", "numpy.fft", "scipy.fft", "from scipy import fft", "from numpy import fft"))
    ]
    assert offenders == []


def test_import_loads_no_scipy_stats_or_integrate():
    # a fresh interpreter: the test session itself may have loaded them
    code = "import sys, kpzlab, kpzlab.cli; print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(kpzlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


SHARED_ERRORS = {
    "BadArgumentError", "InsufficientHistoryError", "NumericalRangeError", "FieldFormatError", "DimensionMismatchError",
}


def _name(node):
    """The name a class base or a raise refers to: `X` for X, X(...), mod.X and mod.X(...)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", ast.unparse(node))


def test_exception_types_are_the_five_shared_ones():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(kpzlab.__file__).parent.glob("*.py"))}
    classes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    # an exception class derives from a builtin exception or from an exception class defined here
    bases = {n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    defined = set()
    while True:
        found = {(name, node.name) for name, node in classes if {_name(b) for b in node.bases} & bases}
        if found == defined:
            break
        defined = found
        bases |= {cls for _, cls in found}
    assert defined == {("grid.py", cls) for cls in SHARED_ERRORS}
    assert all(issubclass(getattr(grid, cls), ValueError) for cls in SHARED_ERRORS)
    allowed = SHARED_ERRORS | {"NotImplementedError", "FileNotFoundError"}
    offenders = [
        f"{name}:{node.lineno} raises {_name(node.exc)}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) not in allowed
    ]
    assert offenders == []


def _references(name):
    """(module, enclosing top-level def or None) of every name, attribute or import of name in src/kpzlab."""
    refs = set()
    for path in sorted(Path(kpzlab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
                if field and getattr(node, field) == name:
                    refs.add((path.name, owner))
    return refs


def test_one_unforced_evolution_and_one_block_loop():
    # the Cole-Hopf stream is evolve's quadratic branch, and mild_solve runs
    # only as its mild branch and as `kpzlab solve --scheme mild`
    assert _references("_cole_hopf_frames") == {("solvers.py", "evolve")}
    assert {r for r in _references("mild_solve") if r[1]} == {("solvers.py", "_mild_intervals"), ("cli.py", "cmd_solve")}
    assert {module for module, _ in _references("_frame_block")} == {"heat.py"}


def _definitions(name):
    """Modules of src/kpzlab that define a function or class called name."""
    return {
        path.name
        for path in sorted(Path(kpzlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    }


@pytest.mark.parametrize("name", [
    "MaximalProfile", "scale_field", "_heat_multiplier", "step_count", "_checked_taus", "_require_positive",
    "forcing_quasinorm_parts", "_shift_variants", "_forcing_sups", "CutoffGreen", "green_cutoff_apply",
    "_green_quadrature",
])
def test_one_entry_per_quantity(name):
    # each maximal profile, scale field and heat multiplier has one entry point,
    # which returns a plain Field or array, the forcing quasi-norm one function
    # for its value and gradient parts, the Green response one function with
    # and without its cutoff, and each kind of argument one check in grid: the
    # retired wrappers and checks stay retired
    assert _definitions(name) == set() and _references(name) == set()


def test_positivity_is_checked_only_in_grid():
    # every "must be positive" comes from grid.check_positive
    raising = {
        path.name
        for path in sorted(Path(kpzlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and "must be positive" in ast.unparse(node)
    }
    assert raising == {"grid.py"}


def _lam_calls():
    """Each public function with a coupling lam, as lam -> call; the tail ensembles are lazy noise draws."""
    spec = GridSpec(d=3, N=8, L_box=8.0)
    f = grid.make_bump(spec, 2.0, 1.0)
    npar, sd, heat = NoiseParams(spec=spec, dt=0.5, seed=0), build_partition(2.0, 1), HeatParams(nu=0.5)
    probe, A, g = (0, 0, 0), [1.0], sample_noise(npar, 4.0)
    return {
        "h_lambda_norm": lambda lam: maximal.h_lambda_norm(f, lam),
        "w1inf_lambda_norm": lambda lam: maximal.w1inf_lambda_norm(f, lam),
        "forcing_quasinorm": lambda lam: maximal.forcing_quasinorm(g, lam, 2.0, 1, 4.0, [probe]),
        "tail_exp_eta": lambda lam: ldp.tail_exp_eta(
            eta_snapshot_ensemble(npar, sd, 1, 2, heat), 1, lam, A, probe, 2.0, min_trials=1),
        "tail_quasinorm": lambda lam: ldp.tail_quasinorm(
            eta_history_ensemble(npar, sd, 1, 2, heat, T_traj=4.0), 1, lam, A, 2.0, probe, min_trials=1),
    }


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", [
    "h_lambda_norm", "w1inf_lambda_norm", "forcing_quasinorm", "tail_exp_eta", "tail_quasinorm",
])
def test_bad_lam_raises_before_any_transform(fft_counts, name, lam):
    # every coupling is checked by grid.check_positive, before any noise frame is drawn
    call = _lam_calls()[name]
    fft_counts[0].update(rfftn=0, irfftn=0)
    with pytest.raises(grid.BadArgumentError, match="lam must be positive"):
        call(lam)
    assert fft_counts[0] == {"rfftn": 0, "irfftn": 0}


TIMED_CALLS = {
    "evolve": lambda f, t: solvers.evolve(f, [0.5, t], solvers.SolveParams(
        nu=1.0, lam=1.0, rate=kpzlab.quadratic_rate(), dt=0.1)),
    "heat_apply": lambda f, t: heat_apply(f, t, HeatParams()),
    "star_maximal": lambda f, t: maximal.star_maximal(f, 0.5, [0.1, t]),
    "log_star_exp": lambda f, t: maximal.log_star_exp(f, [0.1, t]),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("call", sorted(TIMED_CALLS))
def test_bad_times_raise_before_any_transform(fft_counts, call, t):
    # grid.check_times: each time must be finite and >= 0
    f = grid.make_bump(GridSpec(d=1, N=16, L_box=8.0), 2.0, 1.0)
    with pytest.raises(grid.BadArgumentError, match="evolution time"):
        TIMED_CALLS[call](f, t)
    assert fft_counts[0] == {"rfftn": 0, "irfftn": 0}


def test_overflow_error_is_one_class():
    assert solvers.NumericalRangeError is maximal.NumericalRangeError is grid.NumericalRangeError
    spec = GridSpec(d=1, N=16, L_box=8.0)
    h0 = Field(spec, np.where(np.arange(16) < 8, 0.0, 1000.0))
    p = solvers.SolveParams(nu=1.0, lam=1.0, rate=kpzlab.quadratic_rate(), dt=0.1)
    with pytest.raises(maximal.NumericalRangeError):
        solvers.evolve(h0, [0.1], p)
