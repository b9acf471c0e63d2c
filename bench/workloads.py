"""The four benchmark workloads.

BENCHMARK.json lists quasinorm_tail and deterministic_pde; cutoff_forced and
eta_snapshots run with the same command by hand (their run-to-run spread on
a shared 2-CPU host exceeded the largest bound the benchmark may set).

Each workload draws its inputs from a recorded pool: the noise streams of
the pool's replicates (or the deterministic criteria and the solve
amplitudes), whose outputs are stored in ``reference/<workload>.json``.
The run seed picks which pool rounds run and in what order, so every
operation of every seed is checked against a reference recorded at the same
code.  Calls go through the kpzlab module objects (``noise.sample_noise``
rather than a name imported once), so the tracer's rebinding reaches them.

A round is a fixed amount of work; `run_round` returns, per operation id,
either ``(output, conditions)`` or the text of the exception that stopped it.
``conditions`` carries the pass conditions of the acceptance criterion the
workload is cut from.
"""

from __future__ import annotations

import configparser
import contextlib
import importlib
import io
import math
import sys
from itertools import count

import numpy as np

import kpzlab
from kpzlab import acceptance, cli, deposition, grid, heat, ldp, maximal, noise, solvers

from checks import SPECTRAL_RTOL, fingerprint


def criterion_params(name):
    parser = configparser.ConfigParser()
    parser.read(acceptance.CONFIG_DIR / name)
    return dict(parser["params"])


def reload_kpzlab():
    """Run kpzlab's module bodies again, in dependency order.

    This is the import work a change to kpzlab can move (numpy and scipy stay
    loaded), and it leaves every lru_cache empty, so each set-up pays its own
    cache fills.  The module objects stay the same, so references to them
    stay valid.
    """
    for name in ("grid", "deposition", "heat", "solvers", "maximal", "noise", "ldp", "acceptance", "cli"):
        importlib.reload(sys.modules[f"kpzlab.{name}"])
    importlib.reload(kpzlab)


def cycled_permutations(pool, seed):
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[i]


def history_bytes(spec, frames):
    """Computed bytes of `frames` real noise frames plus their rfftn spectra."""
    half_spectrum = spec.n_sites // spec.N * (spec.N // 2 + 1)
    return frames * (8 * spec.n_sites + 16 * half_spectrum)


def guarded(results, op_id, fn):
    try:
        results[op_id] = fn()
    except Exception as e:  # an operation that raises is a failed operation
        results[op_id] = f"{type(e).__name__}: {e}"


class Workload:
    name = ""
    item = ""
    rtol = SPECTRAL_RTOL
    atol = None

    def pool(self):
        """Round keys that together cover every operation with a reference."""
        raise NotImplementedError

    def rounds(self, seed):
        return cycled_permutations(self.pool(), seed)

    def is_item(self, op_id):
        """Items are what items_per_s counts; other operations are round-level checks."""
        return True

    def finish(self, observed, reference):
        """Run-level checks over all operations: list of (op_id, problems)."""
        return []


class CutoffForced(Workload):
    """Criterion 7 pipeline: noise -> phi^j -> eta^j -> 48-step Trotter, d=3, N=32."""

    name = "cutoff_forced"
    item = "one replicate at one scale: noise history, phi^j, eta^j, trotter_solve"
    scales = (2, 3, 4)

    def __init__(self, tmp):
        c = criterion_params("c07_cutoff_scaling.ini")
        self.spec = grid.GridSpec(d=3, N=int(c["n"]), L_box=float(c["l_box"]))
        self.M = float(c["m"])
        self.seed = int(c["seed"])
        self.replicates = int(c["ensemble"])
        self.p_heat = heat.HeatParams(nu=float(c["nu"]))
        self.steps = 48
        self.per_scale = {}
        for j in self.scales:
            Mj = self.M**j
            dt = Mj / 16
            T = 3 * Mj
            t_start = math.ceil((self.M ** (j + 1) + 2 * dt) / dt) * dt
            times = [t_start + k * dt for k in range(int(T / dt) + 1)]
            p = solvers.SolveParams(
                nu=float(c["nu"]), lam=float(c["lambda"]), rate=deposition.quadratic_rate(),
                dt=dt, cutoff=(self.M, j),
            )
            self.per_scale[j] = (noise.build_partition(self.M, j), dt, T, [times[0] - dt] + times + [times[-1] + dt], p)

    def working_set(self):
        _, dt, _, times, _ = self.per_scale[self.scales[-1]]
        frames = int(round((times[-1] + dt) / dt)) + 1
        return history_bytes(self.spec, frames), f"{frames} noise frames and their spectra at 32^3"

    def pool(self):
        return list(range(self.replicates))

    def op_ids(self, r):
        return [f"r{r}_j{j}" for j in self.scales]

    def _item(self, j, r):
        sd, dt, T, times, p = self.per_scale[j]
        eta = noise.sample_noise(
            noise.NoiseParams(spec=self.spec, dt=dt, seed=self.seed, replicate=r), times[-1] + dt
        )
        phis = noise.scale_field_trajectory(eta, sd, j, times, self.p_heat)
        stencil = grid.SpaceTimeField(spec=self.spec, dt=dt, frames=tuple(phis), t0=times[0])
        etaj = noise.eta_scale(stencil, self.p_heat)
        g = grid.SpaceTimeField(spec=self.spec, dt=dt, frames=etaj.frames[1:-1], t0=0.0)
        traj = solvers.trotter_solve(grid.zero_field(self.spec), g, T, self.steps, p)
        x0 = (0,) * self.spec.d
        value = max(abs(float(fr.values[x0])) for fr in traj.frames) * self.M ** (j * 0.25)
        out = {
            "value": value,
            "psi_end": fingerprint(traj.frames[-1].values),
            "forcing_mid": fingerprint(g.frames[len(g.frames) // 2].values, full=False),
        }
        return out, [("value finite", math.isfinite(value))]

    def run_round(self, r):
        results = {}
        for j, op in zip(self.scales, self.op_ids(r)):
            guarded(results, op, lambda j=j: self._item(j, r))
        return results

    def warmup(self):
        self.run_round(self.pool()[0])

    def finish(self, observed, reference):
        """Criterion 7's condition on the whole pool, this run's values in place."""
        medians = {}
        for j in self.scales:
            vals = []
            for r in self.pool():
                op = f"r{r}_j{j}"
                out = observed.get(op, reference[op])
                vals.append(out["value"] if isinstance(out, dict) else math.nan)
            medians[j] = float(np.median(vals))
        spread = max(medians.values()) / min(medians.values()) - 1.0
        ok = spread < 0.30
        return [("pool_spread", [] if ok else [f"median spread {spread:.1%} >= 30% ({medians})"])]


class EtaSnapshots(Workload):
    """Criterion 9 pipeline: eta^j snapshots at d=3, N=16, j=3 and the ldp checks."""

    name = "eta_snapshots"
    item = "one eta^j snapshot (fresh noise history per replicate, 3-point stencil)"
    block = 64
    blocks = 24
    nagaev_trials = 100_000
    mayer_configs = 16
    slepian_trials = 4000

    def __init__(self, tmp):
        c = criterion_params("c09_ldp.ini")
        self.seed = int(c["seed"])
        self.M = float(c["m"])
        self.j = int(c["j"])
        self.dt = float(c["dt"])
        self.lam = float(c["lambda"])
        self.spec = grid.GridSpec(d=3, N=int(c["n"]), L_box=float(c["l_box"]))
        self.p_heat = heat.HeatParams(nu=float(c["nu"]))
        self.sd = noise.build_partition(self.M, self.j)
        self.tau = maximal.geometric_grid(0.25 * self.spec.dx**2, (self.spec.L_box / 4) ** 2)
        self.probe = (0,) * 3
        self.A_sup = np.array([float(v) for v in c["a_grid_sup"].split(";")])
        self.A_exp = np.array([float(v) for v in c["a_grid_exp"].split(";")])
        ball = ldp.ball_sites(self.spec, self.probe, self.M ** (self.j / 2))
        self.ball = tuple(np.array(ball).T)
        self.btis_norm = self.M ** (self.j * (1 + 0.25))
        self.slepian_high = 0.3 * np.ones((4, 4)) + 0.7 * np.eye(4)

    def working_set(self):
        t_probe = math.ceil((self.M ** (self.j + 1) + 2 * self.dt) / self.dt) * self.dt
        frames = int(round((t_probe + 2 * self.dt) / self.dt)) + 1
        return history_bytes(self.spec, frames), f"{frames} noise frames and their spectra at 16^3"

    def pool(self):
        return list(range(self.blocks))

    def op_ids(self, b, size=None):
        size = self.block if size is None else size
        return [f"b{b}_s{i}" for i in range(size)] + [
            f"b{b}_{k}" for k in ("tail_sup", "tail_exp", "btis", "nagaev", "mayer", "slepian")
        ]

    def is_item(self, op_id):
        return op_id.split("_", 1)[1][1:].isdigit()

    def _round(self, b, size, nagaev_trials, mayer_configs, slepian_trials):
        params = noise.NoiseParams(spec=self.spec, dt=self.dt, seed=self.seed, replicate=b * size)
        snaps = list(noise.eta_snapshot_ensemble(params, self.sd, self.j, size, self.p_heat))
        sup = ldp.tail_sup_eta(snaps, self.j, self.A_sup, self.probe, self.M, tau_grid=self.tau, min_trials=size)
        exp = ldp.tail_exp_eta(
            snaps, self.j, self.lam, self.A_exp, self.probe, self.M, tau_grid=self.tau, min_trials=size
        )
        pool = [self.btis_norm * s.values[self.ball] for s in snaps]
        sigma_hat = math.sqrt(float(np.var(np.stack(pool), axis=0).max()))
        it = iter(pool)
        btis = ldp.btis_check(lambda rng: next(it), np.linspace(0.0, 3 * sigma_hat, 10), size, seed=self.seed + b)
        A_nag = np.geomspace(2 * math.sqrt(64) * 0.05, 20.0, 12)
        nag = ldp.nagaev_check(64, 0.05, 2.0, A_nag, trials=nagaev_trials, seed=self.seed + b)
        rng = np.random.default_rng(self.seed + b)
        mayer_ok = True
        for _ in range(mayer_configs):
            cfg = ldp.random_cube_config(
                int(rng.integers(1, 17)), float(rng.choice([2.0, 4.0])), float(rng.choice([0.1, 0.5])), rng,
                dim=int(rng.integers(1, 4)),
            )
            rep = ldp.mayer_check(cfg)
            mayer_ok &= rep.expansion_ok and rep.holder_ok
        slep = ldp.slepian_check(
            np.eye(4), self.slepian_high, lambda v: float(abs(np.sum(v))), slepian_trials, seed=self.seed + b
        )

        ops = self.op_ids(b, size)
        results = {}
        for i, s in enumerate(snaps):
            out = {
                "eta": fingerprint(s.values, full=False),
                "sup_stat": float(sup.statistics[i]),
                "exp_stat": float(exp.statistics[i]),
            }
            results[ops[i]] = (out, [])
        results[ops[size]] = (
            {"c_fit": sup.c_fit, "C_fit": sup.C_fit, "r2": sup.r2},
            [("gaussian-tail R2 >= 0.9", sup.r2 >= 0.9), ("c_fit > 0", sup.c_fit > 0)],
        )
        results[ops[size + 1]] = (
            {"c_fit": exp.c_fit, "C_fit": exp.C_fit, "r2": exp.r2},
            [("lognormal-tail R2 >= 0.85", exp.r2 >= 0.85), ("c_fit > 0", exp.c_fit > 0)],
        )
        results[ops[size + 2]] = (
            {"sigma2": btis.sigma2, "mean_sup": btis.mean_sup, "passed": btis.passed},
            [("BTIS bound dominates", btis.passed)],
        )
        results[ops[size + 3]] = (
            {"p_hat": [float(v) for v in nag.p_hat], "passed": nag.passed},
            [("Nagaev bound dominates", nag.passed)],
        )
        results[ops[size + 4]] = ({"ok": bool(mayer_ok)}, [("Mayer expansion exact", bool(mayer_ok))])
        results[ops[size + 5]] = (
            {"e_low": slep.e_low, "e_high": slep.e_high, "passed": slep.passed},
            [("Slepian monotone", slep.passed)],
        )
        return results

    def run_round(self, b):
        try:
            return self._round(b, self.block, self.nagaev_trials, self.mayer_configs, self.slepian_trials)
        except Exception as e:  # the snapshots feed every operation of the round
            return {op: f"{type(e).__name__}: {e}" for op in self.op_ids(b)}

    def warmup(self):
        self._round(self.blocks, 8, 1000, 1, 100)


class QuasinormTail(Workload):
    """eta_history_ensemble + ldp.tail_quasinorm at the `kpzlab ldp --check quasinorm` geometry."""

    name = "quasinorm_tail"
    item = "one eta^j trajectory and its forcing quasi-norm (value and gradient parts)"
    block = 2
    blocks = 16

    def __init__(self, tmp):
        self.M, self.j, self.lam, self.seed = 2.0, 2, 1.0, 0
        self.spec = grid.GridSpec(d=3, N=16, L_box=16.0)
        self.p_heat = heat.HeatParams(nu=0.5)
        self.sd = noise.build_partition(self.M, self.j)
        Mj = self.M**self.j
        self.dt = Mj / 16
        self.T_traj = 8 * Mj
        self.A = np.array([1.0, 2.0, 4.0, 8.0])
        self.dt_grid = maximal.geometric_grid(Mj / 4, Mj)
        self.tau = maximal.geometric_grid(0.25 * self.spec.dx**2, (self.spec.L_box / 4) ** 2)
        self.probe = (0,) * 3

    def working_set(self):
        t_start = math.ceil((self.M ** (self.j + 1) + 2 * self.dt) / self.dt) * self.dt
        frames = int(round((t_start + self.T_traj + 2 * self.dt) / self.dt)) + 1
        return history_bytes(self.spec, frames), f"{frames} noise frames and their spectra at 16^3"

    def pool(self):
        return list(range(self.blocks))

    def op_ids(self, b, size=None):
        size = self.block if size is None else size
        return [f"b{b}_t{i}" for i in range(size)] + [f"b{b}_tail"]

    def is_item(self, op_id):
        return op_id.split("_", 1)[1][1:].isdigit()

    def _round(self, b, size):
        params = noise.NoiseParams(spec=self.spec, dt=self.dt, seed=self.seed, replicate=b * size)
        trajs = list(noise.eta_history_ensemble(params, self.sd, self.j, size, self.p_heat, T_traj=self.T_traj))
        rep = ldp.tail_quasinorm(
            trajs, self.j, self.lam, self.A, self.M, self.probe, dt_grid=self.dt_grid,
            tau_grid=self.tau, shift_set=((1, 0, 0),), min_trials=size,
        )
        ops = self.op_ids(b, size)
        results = {}
        for i, traj in enumerate(trajs):
            out = {
                "eta_end": fingerprint(traj.frames[-1].values),
                "eta_mid": fingerprint(traj.frames[len(traj.frames) // 2].values, full=False),
                "stat": float(rep.statistics[i]),
            }
            results[ops[i]] = (out, [])
        finite = bool(np.all(np.isfinite(rep.statistics)))
        results[ops[size]] = (
            {"p_hat": [float(v) for v in rep.p_hat], "c_fit": rep.c_fit, "r2": rep.r2},
            [("quasi-norm statistics finite", finite)],
        )
        return results

    def run_round(self, b):
        try:
            return self._round(b, self.block)
        except Exception as e:
            return {op: f"{type(e).__name__}: {e}" for op in self.op_ids(b)}

    def warmup(self):
        self._round(self.blocks, 1)


class DeterministicPde(Workload):
    """Criteria 1-6 and 10 through `kpzlab verify`, plus mild solves through `kpzlab solve`."""

    name = "deterministic_pde"
    item = "one acceptance criterion or one mild solve"
    atol = 1e-8  # mild_solve's own Picard tolerance; criteria compare text exactly
    criteria = (1, 2, 3, 4, 5, 6, 10)
    rates = ("relativistic", "powerclamp1.5")
    # bump amplitudes the seed picks from: a band where the Picard work, and so
    # the round's cost, hardly depends on the choice
    amplitudes = (0.5, 0.75, 1.0, 1.25)
    solve_args = [
        "--set", "grid.d=2", "--set", "grid.n=128", "--set", "grid.l_box=32",
        "--T", "1", "--dt", "0.05", "--L", "2.0",
    ]
    solve_frames = 21

    def __init__(self, tmp):
        self.tmp = tmp
        self._serial = count()

    def working_set(self):
        return self.solve_frames * 8 * 128 * 128, f"one 128^2 KPZT trajectory of {self.solve_frames} frames"

    def pool(self):
        ops = [f"crit{c}" for c in self.criteria]
        return [(tuple(ops + [f"solve_{r}_a{a:g}" for r in self.rates]),) for a in self.amplitudes]

    def rounds(self, seed):
        """Each round: every criterion and both solves at one amplitude, in seeded order."""
        rng = np.random.default_rng(seed)
        pool = self.pool()
        while True:
            ops = pool[rng.integers(len(pool))][0]
            yield (tuple(ops[i] for i in rng.permutation(len(ops))),)

    def op_ids(self, key):
        return list(key[0])

    @contextlib.contextmanager
    def _prefix(self):
        """A fresh output prefix whose files are deleted after the operation."""
        name = f"pde{next(self._serial)}"
        try:
            yield str(self.tmp / name)
        finally:
            for path in self.tmp.glob(name + ".*"):
                path.unlink()

    def _criterion(self, cid):
        with self._prefix() as prefix, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--criteria", str(cid), "--out", prefix])
            with open(prefix + ".verify.csv") as fh:
                rows = fh.read().splitlines()[1:]
        _, _, status, detail = rows[0].split(",", 3)
        out = {"exit": rc, "status": status, "detail": detail}
        return out, [("criterion passes", rc == cli.EXIT_PASS and status == "pass")]

    def _solve(self, rate, amp):
        with self._prefix() as prefix:
            rc = cli.main(["solve", "--scheme", "mild", "--rate", rate, "--A", f"{amp:g}", "--out", prefix] + self.solve_args)
            stf = grid.read_spacetime(prefix + ".traj.kpzt")
            grid.write_spacetime(stf, prefix + ".copy.kpzt")
            with open(prefix + ".traj.kpzt", "rb") as a, open(prefix + ".copy.kpzt", "rb") as b:
                same = a.read() == b.read()
        out = {"exit": rc, "frames": [fingerprint(f.values) for f in stf.frames]}
        return out, [
            ("solve exits 0", rc == cli.EXIT_PASS),
            (f"Picard converged to all {self.solve_frames} frames", stf.n_frames == self.solve_frames),
            ("KPZT read back byte for byte", same),
        ]

    def run_round(self, key):
        results = {}
        for op in key[0]:
            if op.startswith("crit"):
                guarded(results, op, lambda op=op: self._criterion(int(op[4:])))
            else:
                _, rate, amp = op.split("_")
                guarded(results, op, lambda rate=rate, amp=amp: self._solve(rate, float(amp[1:])))
        return results

    def warmup(self):
        self.run_round(self.pool()[0])


WORKLOADS = {w.name: w for w in (CutoffForced, EtaSnapshots, QuasinormTail, DeterministicPde)}
