"""Acceptance criteria: one callable per criterion, each driven by a shipped
config file, printing one pass/fail line and collecting details.

The criteria pin every tolerance; `quick` trims only ensemble sizes that the
criteria leave free (it never loosens a tolerance).  All runs are seeded and
deterministic.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ldp
from .deposition import quadratic_rate
from .grid import (
    Field,
    GridSpec,
    SpaceTimeField,
    lp_norm,
    make_bump,
    zero_field,
)
from .heat import HeatParams, green_apply, random_smooth_field
from .maximal import (
    default_tau_grid,
    equivalence_constants,
    h_lambda_norm,
    log_star_exp,
    star_maximal,
)
from .noise import (
    NoiseParams,
    build_partition,
    empirical_covariance,
    eta_history_ensemble,
    eta_snapshot_ensemble,
    scale_field,
)
from .solvers import (
    SolveParams,
    _evolve_frames,
    bump_oracle_field,
    cole_hopf_frames,
    decay_experiment,
    trotter_solve,
)

CONFIG_DIR = Path(__file__).parent / "configs"


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    detail: str


def _load_params(name: str) -> dict:
    parser = configparser.ConfigParser()
    path = CONFIG_DIR / name
    if not parser.read(path):
        raise FileNotFoundError(f"missing criterion config {path}")
    return dict(parser["params"])


def _within(x, lo, hi):
    return lo <= x <= hi


# --- criterion 1: bump oracle agreement --------------------------------------


def crit01_bump_oracle(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c01_bump_oracle.ini")
    spec = GridSpec(d=1, N=int(c["n"]), L_box=float(c["l_box"]))
    A, L = float(c["a"]), float(c["l"])
    tol = float(c["tol"])
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
    t0 = float(c["t_start"])
    h = bump_oracle_field(spec, A, L, t0)
    times = np.geomspace(t0, float(c["t_end"]), 5 if quick else int(c["n_times"]))
    worst = 0.0
    for t, ht in zip(times[1:], cole_hopf_frames(h, times[1:] - t0, p)):
        ref = bump_oracle_field(spec, A, L, float(t))
        worst = max(worst, float(np.max(np.abs(ht.values - ref.values))))
    elapsed = time.time() - t_wall
    passed = worst <= tol and elapsed < float(c["max_seconds"])
    return CriterionResult(
        1, "bump oracle agreement", passed, elapsed,
        f"sup err {worst:.2e} (tol {tol:g}), budget {c['max_seconds']}s",
    )


# --- criterion 2: bump asymptotics --------------------------------------------


def crit02_bump_asymptotics(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c02_bump_asymptotics.ini")
    A, L = float(c["a"]), float(c["l"])
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)

    # initial regime: sup norm tracks A - (d/2) log(t/L^2) within 10% of A
    spec_i = GridSpec(d=1, N=int(c["n_initial"]), L_box=float(c["l_box_initial"]))
    t0 = L * L
    t_end = 0.5 * L * L * math.exp(2 * A)
    h = bump_oracle_field(spec_i, A, L, t0)
    times = np.geomspace(t0, t_end, 8 if quick else 16)
    dev = 0.0
    for t, ht in zip(times, _evolve_frames(h, times - t0, p)):
        dev = max(dev, abs(lp_norm(ht, np.inf) - (A - 0.5 * math.log(t / L**2))))
    ok_initial = dev <= 0.1 * A

    # final regime: L1 flat within 20%, sup slope -d/2 +- 0.1
    spec_f = GridSpec(d=1, N=int(c["n_final"]), L_box=float(c["l_box_final"]))
    tf0 = float(c["t_final_lo"])
    hf = bump_oracle_field(spec_f, A, L, tf0)
    times_f = np.geomspace(tf0, float(c["t_final_hi"]), 8 if quick else 12)
    sups, l1s = [], []
    for ht in _evolve_frames(hf, times_f - tf0, p):
        sups.append(lp_norm(ht, np.inf))
        l1s.append(lp_norm(ht, 1))
    slope = float(np.polyfit(np.log(times_f), np.log(sups), 1)[0])
    flat = max(l1s) / min(l1s)
    ok_final = _within(slope, -0.6, -0.4) and flat <= 1.2
    elapsed = time.time() - t_wall
    return CriterionResult(
        2, "bump asymptotics", ok_initial and ok_final, elapsed,
        f"initial dev {dev:.3f} <= {0.1 * A:g}; final sup slope {slope:.3f}, L1 max/min {flat:.3f}",
    )


# --- criterion 3: decay rates --------------------------------------------------


def crit03_decay_rates(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c03_decay_rates.ini")
    p = SolveParams(nu=0.5, lam=0.5, rate=quadratic_rate(), dt=0.1)
    details = []
    ok = True
    budget = float(c["max_seconds_each"])
    for d in (1, 2):
        t_d = time.time()
        N = int(c[f"n_d{d}"])
        L_box = float(c[f"l_box_d{d}"])
        L = float(c[f"l_d{d}"])
        spec = GridSpec(d=d, N=N, L_box=L_box)
        A = float(c["a_steep"])
        h0 = make_bump(spec, A, L)
        times = np.geomspace(4 * L * L, float(c[f"t_hi_d{d}"]), 8 if quick else 12)
        fits = {f.label: f for f in decay_experiment(h0, p, ["grad_sup", "d2_sup"], times)}
        h_small = make_bump(spec, float(c["a_flat"]), L)
        times2 = np.geomspace(4 * L * L, float(c[f"t_hi_flat_d{d}"]), 8 if quick else 12)
        fit_l1 = decay_experiment(h_small, p, ["grad_l1"], times2)[0]
        sl_g, sl_h, sl_l1 = fits["grad_sup"].slope, fits["d2_sup"].slope, fit_l1.slope
        ok_d = (
            _within(sl_g, -0.6, -0.4)
            and _within(sl_h, -1.15, -0.85)
            and _within(sl_l1, -0.6, -0.4)
            and (time.time() - t_d) < budget
        )
        ok &= ok_d
        details.append(
            f"d={d}: grad_sup {sl_g:.3f}, d2_sup {sl_h:.3f}, grad_l1 {sl_l1:.3f}"
        )
    return CriterionResult(3, "gradient decay rates", ok, time.time() - t_wall, "; ".join(details))


# --- criterion 4: comparison and maximum principles -----------------------------


def crit04_comparison(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c04_comparison.ini")
    spec = GridSpec(d=1, N=int(c["n"]), L_box=float(c["l_box"]))
    p = SolveParams(nu=1.0, lam=1.0, rate=quadratic_rate(), dt=0.1)
    rng = np.random.default_rng(int(c["seed"]))
    tol = float(c["tol"])
    pairs = 25 if quick else int(c["pairs"])
    times = np.geomspace(0.05, float(c["t"]), 6)
    min_gap = np.inf
    sup_excess = -np.inf
    for _ in range(pairs):
        f = random_smooth_field(spec, rng, amp=0.5)
        gap = random_smooth_field(spec, rng, amp=0.3)
        lower = f
        upper = Field(spec, f.values + gap.values**2)
        s_lo, s_up = lp_norm(lower, np.inf), lp_norm(upper, np.inf)
        for lo_t, up_t in zip(cole_hopf_frames(lower, times, p), cole_hopf_frames(upper, times, p)):
            min_gap = min(min_gap, float(np.min(up_t.values - lo_t.values)))
            sup_excess = max(
                sup_excess,
                lp_norm(lo_t, np.inf) - s_lo,
                lp_norm(up_t, np.inf) - s_up,
            )
    passed = min_gap >= -tol and sup_excess <= tol
    return CriterionResult(
        4, "comparison/maximum principles", passed, time.time() - t_wall,
        f"min ordering gap {min_gap:.2e} >= -{tol:g}; max sup-norm excess {sup_excess:.2e}",
    )


# --- criterion 5: maximal-space suite -------------------------------------------


def crit05_maximal_suite(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c05_maximal.ini")
    seed = int(c["seed"])
    rng = np.random.default_rng(seed)
    details = []

    # (a) sharp/star ratio bounds finite and stable under N doubling
    ratios = {}
    for N in (int(c["n_small"]), 2 * int(c["n_small"])):
        spec = GridSpec(d=1, N=N, L_box=float(c["l_box"]))
        cs, Cs = [], []
        for _ in range(4 if quick else 10):
            f = Field(spec, np.abs(random_smooth_field(spec, rng).values) + 0.05)
            ch, Ch = equivalence_constants(f, 0.0)
            cs.append(ch)
            Cs.append(Ch)
        ratios[N] = (float(np.mean(cs)), float(np.mean(Cs)))
    (c1, C1), (c2, C2) = ratios.values()
    ok_a = 0 < c1 <= C1 < np.inf and 0 < c2 <= C2 < np.inf
    ok_a &= abs(math.log(C2 / C1)) <= math.log(1.3) and abs(math.log(max(c2, 1e-12) / c1)) <= math.log(1.3)
    details.append(f"ratio bounds ({c1:.3f},{C1:.3f}) vs 2N ({c2:.3f},{C2:.3f})")

    # (b) Jensen + quasi-norm convexity at 1e-8 on random fields
    spec = GridSpec(d=1, N=int(c["n_small"]), L_box=float(c["l_box"]))
    lam = float(c["lambda"])
    worst_j = -np.inf
    worst_c = -np.inf
    for _ in range(20 if quick else 50):
        f = random_smooth_field(spec, rng)
        lhs = np.exp(lam * star_maximal(f, 0.0).profile.values)
        rhs = np.exp(log_star_exp(Field(spec, lam * np.abs(f.values))).values)
        worst_j = max(worst_j, float(np.max(lhs - rhs)))
        f2 = random_smooth_field(spec, rng)
        for (p1, p2) in ((2.0, 2.0), (3.0, 1.5)):
            l = h_lambda_norm(f + f2, lam).values
            r = (
                h_lambda_norm(p1 * f, lam).values / p1
                + h_lambda_norm(p2 * f2, lam).values / p2
            )
            worst_c = max(worst_c, float(np.max(l - r)))
    ok_b = worst_j <= 1e-8 and worst_c <= 1e-8
    details.append(f"jensen excess {worst_j:.1e}, convexity excess {worst_c:.1e}")

    # (c) maximal-norm monotonicity along a trajectory at 16 probes
    spec_t = GridSpec(d=1, N=int(c["n_traj"]), L_box=float(c["l_box_traj"]))
    p = SolveParams(nu=1.0, lam=lam, rate=quadratic_rate(), dt=0.1)
    h0 = random_smooth_field(spec_t, rng, amp=0.8)
    probes = [(int(i),) for i in np.linspace(0, spec_t.N - 1, 16, dtype=int)]
    tau = default_tau_grid(spec_t)
    worst_m = -np.inf
    times = np.geomspace(0.1, float(c["t_traj"]), 4 if quick else 8)
    for t, ht in zip(times, cole_hopf_frames(h0, times, p)):
        tau_ext = np.unique(np.concatenate([tau, tau + p.nu * t]))
        base_t = log_star_exp(Field(spec_t, lam * np.abs(h0.values)), tau_ext)
        lhs = log_star_exp(Field(spec_t, lam * np.abs(ht.values)), tau)
        for q in probes:
            worst_m = max(worst_m, math.exp(lhs.values[q]) - math.exp(base_t.values[q]))
    ok_c = worst_m <= float(c["tol_monotone"])
    details.append(f"maximal monotonicity excess {worst_m:.2e}")
    return CriterionResult(
        5, "maximal-space suite", ok_a and ok_b and ok_c, time.time() - t_wall,
        "; ".join(details),
    )


# --- criterion 6: Trotter splitting order ----------------------------------------


def crit06_trotter_order(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c06_trotter.ini")
    spec = GridSpec(d=1, N=int(c["n"]), L_box=float(c["l_box"]))
    x = spec.axis_coords()
    T = float(c["t"])
    M, j = float(c["m"]), int(c["j"])
    p = SolveParams(nu=1.0, lam=float(c["lambda"]), rate=quadratic_rate(), dt=0.1, cutoff=(M, j))
    psi0 = Field(spec, 0.4 * np.sin(2 * np.pi * x / spec.L_box))
    dt_g = T / int(c["forcing_frames"])
    k1, k2 = 2 * np.pi / spec.L_box, 6 * np.pi / spec.L_box
    frames = tuple(
        Field(spec, 0.5 * np.sin(k1 * x) * math.cos(1.3 * (k * dt_g)) + 0.2 * np.cos(k2 * x + 0.7 * k * dt_g))
        for k in range(int(c["forcing_frames"]) + 1)
    )
    g = SpaceTimeField(spec=spec, dt=dt_g, frames=frames, t0=0.0)
    ns = [8, 16, 32, 64]
    sols = {n: trotter_solve(psi0, g, T, n, p).frames[-1] for n in ns + [128]}
    errs = [float(np.max(np.abs(sols[n].values - sols[2 * n].values))) for n in ns]
    order = -float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    elapsed = time.time() - t_wall
    passed = _within(order, 0.8, 1.2) and elapsed < float(c["max_seconds"])
    return CriterionResult(
        6, "splitting order", passed, elapsed,
        f"fitted order {order:.3f} in [0.8, 1.2]; errs {['%.2e' % e for e in errs]}",
    )


# --- criterion 7: cutoff-solution scaling ----------------------------------------


def crit07_cutoff_scaling(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c07_cutoff_scaling.ini")
    spec = GridSpec(d=3, N=int(c["n"]), L_box=float(c["l_box"]))
    M = float(c["m"])
    nu = float(c["nu"])
    p_heat = HeatParams(nu=nu)
    d_phi = ldp.scaling_dimension(spec.d)
    ensemble = 16 if quick else int(c["ensemble"])
    seed = int(c["seed"])
    js = [2, 3, 4]
    medians = {}
    for j in js:
        Mj = M**j
        dt_g = Mj / 16
        T = 3 * Mj
        n = 48
        sd = build_partition(M, j)
        params = NoiseParams(spec=spec, dt=dt_g, seed=seed)
        p = SolveParams(nu=nu, lam=float(c["lambda"]), rate=quadratic_rate(), dt=dt_g, cutoff=(M, j))
        vals = []
        for etaj in eta_history_ensemble(params, sd, j, ensemble, p_heat, T_traj=T):
            g = replace(etaj, t0=0.0)
            traj = trotter_solve(zero_field(spec), g, T, n, p)
            x0 = (0, 0, 0)
            vals.append(max(abs(fr.values[x0]) for fr in traj.frames) * M ** (j * d_phi))
        medians[j] = float(np.median(vals))
    spread = max(medians.values()) / min(medians.values()) - 1.0
    elapsed = time.time() - t_wall
    passed = spread < 0.30 and elapsed < float(c["max_seconds"])
    return CriterionResult(
        7, "cutoff-solution scaling", passed, elapsed,
        f"medians {dict((k, round(v, 3)) for k, v in medians.items())}, spread {spread:.1%} < 30%",
    )


# --- criterion 8: noise/scale diagnostics -----------------------------------------


def crit08_scale_diagnostics(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c08_scales.ini")
    M = float(c["m"])
    details = []

    sd = build_partition(M, 6)
    s = np.geomspace(1e-3, M**6, 4000)
    resid = float(np.abs(sd.partition_values(s).sum(axis=0) - 1).max())
    ok_part = resid < 1e-12
    details.append(f"partition residual {resid:.1e}")

    # telescoping against the plain Green response
    spec1 = GridSpec(d=1, N=64, L_box=32.0)
    sd3 = build_partition(M, 3)
    p1 = HeatParams(nu=1.0)
    dtq = 0.125
    n = int(M**4 / dtq) + 1
    rng = np.random.default_rng(int(c["seed"]))
    frames = []
    t_eval = (n - 1) * dtq
    for k in range(n):
        s_lag = t_eval - k * dtq
        frames.append(
            random_smooth_field(spec1, rng) if s_lag <= M**3 else zero_field(spec1)
        )
    eta1 = SpaceTimeField(spec=spec1, dt=dtq, frames=tuple(frames), t0=0.0)
    tot = np.zeros(spec1.shape)
    for j in range(4):
        tot += scale_field(eta1, sd3, j, t_eval, p1).values
    tele = float(np.max(np.abs(tot - green_apply(eta1, t_eval, p1).values)))
    ok_tele = tele < 1e-10
    details.append(f"telescoping {tele:.1e}")

    # variance ratios across scales, d = 3
    spec = GridSpec(d=3, N=int(c["n"]), L_box=float(c["l_box"]))
    params = NoiseParams(spec=spec, dt=float(c["dt"]), seed=int(c["seed"]))
    sdv = build_partition(M, 4)
    S = 120 if quick else int(c["samples"])
    tab = empirical_covariance(
        params, sdv, pairs=[(2, 2), (3, 3), (4, 4), (2, 3), (2, 4)], S=S,
        p=HeatParams(nu=float(c["nu"])), with_eta=False,
    )
    target = M ** (2 * 0.25)
    r23 = tab.var[("phi", 2)] / tab.var[("phi", 3)]
    r34 = tab.var[("phi", 3)] / tab.var[("phi", 4)]
    ok_var = _within(r23, 0.75 * target, 1.25 * target) and _within(r34, 0.75 * target, 1.25 * target)
    details.append(f"var ratios {r23:.3f},{r34:.3f} vs {target:.3f} +-25%")

    def corr(j, j2):
        e = tab.lookup("phi", j, j2)
        return abs(e.cov) / math.sqrt(tab.var[("phi", j)] * tab.var[("phi", j2)])

    ok_corr = corr(2, 2) > corr(2, 3) > corr(2, 4)
    details.append(f"cross-corr {corr(2,2):.3f} > {corr(2,3):.3f} > {corr(2,4):.3f}")
    return CriterionResult(
        8, "noise/scale diagnostics", ok_part and ok_tele and ok_var and ok_corr,
        time.time() - t_wall, "; ".join(details),
    )


# --- criterion 9: large-deviation suite --------------------------------------------


def crit09_ldp_suite(quick=False) -> CriterionResult:
    t_wall = time.time()
    c = _load_params("c09_ldp.ini")
    details = []
    seed = int(c["seed"])
    M = float(c["m"])
    j = int(c["j"])
    spec = GridSpec(d=3, N=int(c["n"]), L_box=float(c["l_box"]))
    p_heat = HeatParams(nu=float(c["nu"]))
    sd = build_partition(M, j)
    trials = 250 if quick else int(c["tail_trials"])
    tau = ldp.snapshot_tau_grid(spec)

    params = NoiseParams(spec=spec, dt=float(c["dt"]), seed=seed)
    snaps = list(eta_snapshot_ensemble(params, sd, j, trials, p_heat))
    probe = (0,) * 3
    A_sup = np.array([float(v) for v in c["a_grid_sup"].split(";")])
    rep_sup = ldp.tail_sup_eta(snaps, j, A_sup, probe, M, tau_grid=tau, min_trials=min(trials, 1000))
    ok_sup = rep_sup.r2 >= 0.9 and rep_sup.c_fit > 0
    details.append(f"gaussian-tail R2 {rep_sup.r2:.3f} (c {rep_sup.c_fit:.3g})")

    A_exp = np.array([float(v) for v in c["a_grid_exp"].split(";")])
    rep_exp = ldp.tail_exp_eta(
        snaps, j, float(c["lambda"]), A_exp, probe, M, tau_grid=tau, min_trials=min(trials, 1000)
    )
    ok_exp = rep_exp.r2 >= 0.85 and rep_exp.c_fit > 0
    details.append(f"lognormal-tail R2 {rep_exp.r2:.3f} (c {rep_exp.c_fit:.3g})")

    # full trial count even in quick mode: the zero-hit rule needs the
    # Wilson limit to resolve below the bound at the deepest thresholds
    nag_trials = int(c["nagaev_trials"])
    ok_nag = True
    for n_sum, eps in ((64, 0.05), (256, 0.02)):
        A = ldp.nagaev_thresholds(n_sum, eps)
        chk = ldp.nagaev_check(n_sum, eps, 2.0, A, trials=nag_trials, seed=seed + n_sum)
        ok_nag &= chk.passed
    details.append(f"nagaev dominated: {ok_nag} (K_cal {ldp.NAGAEV_K_CAL:g})")

    mayer_trials = 200 if quick else int(c["mayer_trials"])
    ok_mayer = ldp.mayer_sweep(mayer_trials, seed, draw_dim=True)
    details.append(f"mayer exact on {mayer_trials} configs: {ok_mayer}")

    # BTIS on eta^j snapshots over the scale ball; Slepian on nested covariances
    btis_trials = 1000 if quick else int(c["btis_trials"])
    btis_snaps = eta_snapshot_ensemble(
        NoiseParams(spec=spec, dt=float(c["dt"]), seed=seed + 7), sd, j, btis_trials, p_heat
    )
    rep_btis = ldp.btis_ball_check(btis_snaps, probe, M, j, seed=seed, normalized=True)
    ok_btis = rep_btis.passed
    details.append(f"btis: {ok_btis} (sigma2 {rep_btis.sigma2:.3f})")

    ok_slep = ldp.slepian_nested(4000 if quick else 20000, seed=seed).passed
    details.append(f"slepian monotone: {ok_slep}")

    elapsed = time.time() - t_wall
    passed = (
        ok_sup and ok_exp and ok_nag and ok_mayer and ok_btis and ok_slep
        and elapsed < float(c["max_seconds"])
    )
    return CriterionResult(9, "large-deviation suite", passed, elapsed, "; ".join(details))


# --- criterion 10: determinism -------------------------------------------------------


def crit10_determinism(quick=False) -> CriterionResult:
    import tempfile

    from . import cli

    t_wall = time.time()
    c = _load_params("c10_determinism.ini")
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            prefix = f"{tmp}/{run}"
            cfg = cli.load_config(None, [
                ("grid", "d", "3"), ("grid", "n", "8"), ("grid", "l_box", "8"),
                ("scales", "m", "2"), ("scales", "jmax", "3"),
                ("scales", "ensemble", "20"), ("scales", "seed", c["seed"]),
                ("scales", "nu", "0.5"), ("scales", "dt", "0.5"),
            ])
            cli.cmd_scales(cfg, prefix)
            cfg2 = cli.load_config(None, [
                ("ldp", "check", "nagaev"), ("ldp", "n", "16"), ("ldp", "eps", "0.05"),
                ("ldp", "trials", "20000"), ("ldp", "seed", "3"),
            ])
            cli.cmd_ldp(cfg2, prefix + "_n")
            blobs = []
            for suffix in (".cov.csv", ".var.json", "_n.nagaev.csv", "_n.nagaev.json"):
                with open(prefix + suffix, "rb") as fh:
                    blobs.append(fh.read())
            outputs.append(blobs)
    same = all(a == b for a, b in zip(*outputs))
    return CriterionResult(
        10, "determinism", same, time.time() - t_wall,
        "byte-identical reports on re-run" if same else "outputs differ between runs",
    )


CRITERIA = {
    1: crit01_bump_oracle,
    2: crit02_bump_asymptotics,
    3: crit03_decay_rates,
    4: crit04_comparison,
    5: crit05_maximal_suite,
    6: crit06_trotter_order,
    7: crit07_cutoff_scaling,
    8: crit08_scale_diagnostics,
    9: crit09_ldp_suite,
    10: crit10_determinism,
}


def run_criteria(ids=None, quick=False) -> list:
    results = []
    for cid in sorted(ids or CRITERIA):
        results.append(CRITERIA[cid](quick=quick))
    return results
