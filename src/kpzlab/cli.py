"""Command-line entry point: config handling, dispatch, machine-readable reports.

Config files are INI (one section per module area, key = value); command-line
flags override file values.  Unknown keys are rejected.  Every run writes its
resolved configuration next to its outputs, and identical resolved configs
produce byte-identical output files.

Exit codes: 0 pass, 1 assertion failure, 2 config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import acceptance, ldp
from .deposition import rate_by_label
from .grid import GridSpec, SpaceTimeField, lp_norm, make_bump, write_spacetime
from .heat import HeatParams
from .maximal import (
    forcing_quasinorm,
    geometric_grid,
    h_lambda_norm,
    sharp_maximal,
    star_maximal,
    w1inf_lambda_norm,
)
from .noise import (
    NoiseParams,
    build_partition,
    empirical_covariance,
    eta_history_ensemble,
    eta_snapshot_ensemble,
    sample_noise,
)
from .solvers import (
    BUMP_ORACLE_LAM,
    BUMP_ORACLE_NU,
    NORMS,
    SolveParams,
    bump_oracle_field,
    bump_reference,
    cole_hopf_frames,
    decay_experiment,
    frame_norms,
    mild_solve,
    step_count,
    trotter_solve,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


# accepted keys per section; values are parsed with these converters
CONFIG_SCHEMA = {
    "grid": {"d": int, "n": int, "l_box": float},
    "solve": {
        "scheme": str, "rate": str, "nu": float, "lambda": float, "d_noise": float,
        "m": float, "j": int, "t": float, "dt": float, "seed": int, "a": float,
        "l": float, "n_steps": int,
    },
    "maximal": {
        "alpha": float, "lambda": float, "variant": str, "m": float, "j": int,
        "probes": str,
    },
    "scales": {"m": float, "jmax": int, "ensemble": int, "seed": int, "nu": float, "dt": float},
    "ldp": {
        "check": str, "j": int, "lambda": float, "trials": int, "seed": int,
        "agrid": str, "m": float, "n": int, "eps": float, "t_exp": float,
    },
    "run": {"quick": str, "criteria": str},
}


def _fmt(x) -> str:
    """Deterministic text form for report files."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _convert(sec: str, key: str, val: str):
    """val parsed with the schema converter of sec.key; a bad value is a ConfigError."""
    try:
        return CONFIG_SCHEMA[sec][key](val)
    except ValueError as e:
        raise ConfigError(f"bad value {val!r} for {sec}.{key}") from e


def load_config(path=None, overrides=None) -> dict:
    """Parse an INI config plus flag overrides into a nested dict; reject unknowns."""
    cfg = {sec: {} for sec in CONFIG_SCHEMA}
    parser = configparser.ConfigParser()
    if path:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for sec in parser.sections():
            if sec not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, val in parser.items(sec):
                if key not in CONFIG_SCHEMA[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                cfg[sec][key] = _convert(sec, key, val)
    for sec, key, val in overrides or []:
        if sec not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[sec]:
            raise ConfigError(f"unknown option {sec}.{key}")
        cfg[sec][key] = _convert(sec, key, val)
    return cfg


def write_resolved_config(cfg: dict, prefix: str):
    lines = []
    for sec in sorted(cfg):
        if not cfg[sec]:
            continue
        lines.append(f"[{sec}]")
        for key in sorted(cfg[sec]):
            lines.append(f"{key} = {_fmt(cfg[sec][key])}")
        lines.append("")
    with open(prefix + ".config.ini", "w", newline="\n") as fh:
        fh.write("\n".join(lines))


def _grid_from_cfg(cfg) -> GridSpec:
    g = cfg["grid"]
    try:
        return GridSpec(d=g.get("d", 1), N=g.get("n", 256), L_box=g.get("l_box", 64.0))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _parse_probes(raw: str, d: int):
    probes = []
    for item in raw.split(";"):
        idx = tuple(int(v) for v in item.split(","))
        if len(idx) != d:
            raise ConfigError(f"probe {item!r} has wrong dimension")
        probes.append(idx)
    return probes


# --- subcommands -------------------------------------------------------------


def cmd_solve(cfg, prefix):
    spec = _grid_from_cfg(cfg)
    s = cfg["solve"]
    T = s.get("t", 1.0)
    try:
        p = SolveParams(
            nu=s.get("nu", 1.0), lam=s.get("lambda", 1.0), rate=rate_by_label(s.get("rate", "quadratic")),
            dt=s.get("dt", 0.1), D=s.get("d_noise", 1.0),
            cutoff=(s["m"], s["j"]) if "m" in s and "j" in s else None,
        )
        n = step_count(T, p.dt)
    except (KeyError, ValueError) as e:
        raise ConfigError(str(e.args[0] if e.args else e)) from e
    h0 = make_bump(spec, s.get("a", 1.0), s.get("l", min(1.0, spec.L_box / 4)))
    scheme = s.get("scheme", "colehopf")
    if scheme == "colehopf":
        frames = [h0, *cole_hopf_frames(h0, [k * p.dt for k in range(1, n + 1)], p)]
        stf = SpaceTimeField(spec=spec, dt=p.dt, frames=tuple(frames), t0=0.0)
    elif scheme == "mild":
        stf = mild_solve(h0, T, p).field
    elif scheme == "trotter":
        if p.cutoff is None:
            raise ConfigError("trotter scheme needs m and j")
        npar = NoiseParams(spec=spec, dt=p.dt, seed=s.get("seed", 0))
        g = sample_noise(npar, T)
        stf = trotter_solve(h0, g, T, s.get("n_steps", n), p).field
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    write_spacetime(stf, prefix + ".traj.kpzt")
    rows = [[t] + norms for t, norms in zip(stf.times(), frame_norms(stf.frames, NORMS))]
    write_csv(prefix + ".norms.csv", ["t", *NORMS], rows)
    return EXIT_PASS


def cmd_bump(cfg, prefix):
    spec = _grid_from_cfg(cfg)
    s = cfg["solve"]
    A, L = s.get("a", 3.0), s.get("l", 1.0)
    p = SolveParams(nu=BUMP_ORACLE_NU, lam=BUMP_ORACLE_LAM, rate=rate_by_label("quadratic"), dt=0.1)
    t_grid = np.geomspace(max(L * L, 4 * spec.dx**2), s.get("t", 100.0), 24)
    t0 = float(t_grid[0])
    h = bump_oracle_field(spec, A, L, t0)
    rows = []
    for t, ht in zip(t_grid, cole_hopf_frames(h, t_grid - t0, p)):
        ref_sup = bump_reference(A, L, float(t), 0.0, spec.d)
        rows.append([float(t), lp_norm(ht, np.inf), lp_norm(ht, 1), ref_sup])
    write_csv(prefix + ".bump.csv", ["t", "sup", "l1", "ref_center"], rows)
    return EXIT_PASS


def cmd_decay(cfg, prefix):
    spec = _grid_from_cfg(cfg)
    s = cfg["solve"]
    rate = rate_by_label(s.get("rate", "quadratic"))
    p = SolveParams(nu=s.get("nu", 0.5), lam=s.get("lambda", 0.5), rate=rate, dt=s.get("dt", 0.1))
    A, L = s.get("a", 4.0), s.get("l", 1.0)
    h0 = bump_oracle_field(spec, A, L, L * L)
    times = np.geomspace(4 * L * L, s.get("t", 400.0), 20)
    fits = decay_experiment(h0, p, ["sup", "l1", "grad_sup", "grad_l1", "d2_sup"], times)
    write_json(
        prefix + ".decay.json",
        {f.label: {"slope": f.slope, "intercept": f.intercept, "residual": f.residual} for f in fits},
    )
    rows = [[t] + [float(f.values[i]) for f in fits] for i, t in enumerate(fits[0].times)]
    write_csv(prefix + ".decay.csv", ["t"] + [f.label for f in fits], rows)
    return EXIT_PASS


def cmd_maximal(cfg, prefix):
    spec = _grid_from_cfg(cfg)
    m = cfg["maximal"]
    variant = m.get("variant", "star")
    lam = m.get("lambda", 1.0)
    alpha = m.get("alpha", 0.0)
    probes = _parse_probes(m.get("probes", ",".join(["0"] * spec.d)), spec.d)
    h0 = make_bump(spec, 2.0, min(1.0, spec.L_box / 8))
    if variant == "star":
        prof = star_maximal(h0, alpha).profile
    elif variant == "sharp":
        prof = sharp_maximal(h0, alpha).profile
    elif variant == "hlambda":
        prof = h_lambda_norm(h0, lam)
    elif variant == "w1inf":
        scale = (m["m"], m["j"]) if "m" in m and "j" in m else None
        prof = w1inf_lambda_norm(h0, lam, scale=scale)
    elif variant == "forcing":
        npar = NoiseParams(spec=spec, dt=0.25, seed=0)
        Mv, jv = m.get("m", 2.0), m.get("j", 2)
        T = 4 * Mv**jv
        g = sample_noise(npar, T)
        vals = forcing_quasinorm(g, lam, Mv, jv, T, probes)
        write_csv(prefix + ".maximal.csv", ["probe", "value"],
                  [[";".join(map(str, q)), v] for q, v in zip(probes, vals)])
        return EXIT_PASS
    else:
        raise ConfigError(f"unknown maximal variant {variant!r}")
    write_csv(prefix + ".maximal.csv", ["probe", "value"],
              [[";".join(map(str, q)), float(prof.values[q])] for q in probes])
    return EXIT_PASS


def cmd_scales(cfg, prefix):
    s = cfg["scales"]
    spec = _grid_from_cfg(cfg)
    M, jmax = s.get("m", 2.0), s.get("jmax", 4)
    sd = build_partition(M, jmax)
    params = NoiseParams(spec=spec, dt=s.get("dt", 0.5), seed=s.get("seed", 0))
    js = list(range(2, jmax + 1))
    tab = empirical_covariance(
        params, sd, pairs=[(a, b) for a in js for b in js if a <= b],
        S=s.get("ensemble", 200), p=HeatParams(nu=s.get("nu", 0.25)), with_eta=False,
    )
    rows = [
        [e.j, e.j2, e.dt_lag, e.dx_lag, e.cov, e.stderr] for e in sorted(
            tab.entries, key=lambda e: (e.field, e.j, e.j2, e.dt_lag, e.dx_lag)
        )
    ]
    write_csv(prefix + ".cov.csv", ["j", "j2", "dt_lag", "dx_lag", "cov", "stderr"], rows)
    write_json(prefix + ".var.json", {f"phi_j{j}": tab.var[("phi", j)] for j in js})
    return EXIT_PASS


def _agrid(s, default) -> np.ndarray:
    if "agrid" not in s:
        return np.asarray(default, dtype=float)
    try:
        return np.array([float(v) for v in s["agrid"].split(";")])
    except ValueError as e:
        raise ConfigError(f"bad number list {s['agrid']!r}") from e


def _tail_outputs(rep):
    rows = zip(rep.A_grid, rep.p_hat, rep.wilson_lo, rep.wilson_hi)
    summary = {"model": rep.model, "c_fit": rep.c_fit, "C_fit": rep.C_fit, "r2": rep.r2, "trials": rep.trials}
    return (["A", "p_hat", "wilson_lo", "wilson_hi"], rows), summary


def _ldp_nagaev(cfg):
    s = cfg["ldp"]
    n, eps = s.get("n", 64), s.get("eps", 0.05)
    if n < 1:
        raise ConfigError(f"ldp.n must be positive, got {n}")
    if not eps > 0:
        raise ConfigError(f"ldp.eps must be positive, got {eps}")
    A = _agrid(s, ldp.nagaev_thresholds(n, eps))
    chk = ldp.nagaev_check(
        n, eps, s.get("t_exp", 2.0), A, trials=s.get("trials", 100_000), seed=s.get("seed", 0)
    )
    table = (["A", "p_hat", "bound"], zip(chk.A_grid, chk.p_hat, chk.bound))
    return chk.passed, table, {"passed": chk.passed, "k_cal": ldp.NAGAEV_K_CAL}


def _ldp_mayer(cfg):
    s = cfg["ldp"]
    trials = s.get("trials", 1000)
    ok = ldp.mayer_sweep(trials, seed=s.get("seed", 0))
    return ok, None, {"passed": ok, "trials": trials}


def _ldp_slepian(cfg):
    s = cfg["ldp"]
    rep = ldp.slepian_nested(s.get("trials", 20_000), seed=s.get("seed", 0))
    summary = {"passed": rep.passed, "e_low": rep.e_low, "e_high": rep.e_high, "stderr": rep.stderr}
    return rep.passed, None, summary


class _NoiseGeometry:
    """Desk-scale d = 3 sampling geometry shared by the noise-driven ldp checks."""

    probe = (0,) * 3

    def __init__(self, cfg):
        self.s = s = cfg["ldp"]
        spec = _grid_from_cfg(cfg)
        if spec.d != 3:
            raise ConfigError(f"ldp check {s['check']!r} needs a d = 3 grid")
        self.M, self.j, self.lam = s.get("m", 2.0), s.get("j", 3), s.get("lambda", 1.0)
        self.trials = s.get("trials", 1000)
        self.sd = build_partition(self.M, self.j)
        self.npar = NoiseParams(spec=spec, dt=float(self.M) ** self.j / 16, seed=s.get("seed", 0))
        self.tau = ldp.snapshot_tau_grid(spec)

    def snapshots(self):
        return eta_snapshot_ensemble(self.npar, self.sd, self.j, self.trials, HeatParams(nu=0.5))


def _ldp_eta_tail(cfg):
    g = _NoiseGeometry(cfg)
    supeta = g.s["check"] == "supeta"
    A = _agrid(g.s, range(2, 24, 2) if supeta else range(8, 26, 2))
    snaps = list(g.snapshots())
    kw = dict(tau_grid=g.tau, min_trials=min(g.trials, 1000))
    if supeta:
        rep = ldp.tail_sup_eta(snaps, g.j, A, g.probe, g.M, **kw)
    else:
        rep = ldp.tail_exp_eta(snaps, g.j, g.lam, A, g.probe, g.M, **kw)
    return (True, *_tail_outputs(rep))


def _ldp_quasinorm(cfg):
    g = _NoiseGeometry(cfg)
    A = _agrid(g.s, [1, 2, 4, 8])
    Mj = float(g.M) ** g.j
    trajs = list(eta_history_ensemble(g.npar, g.sd, g.j, g.trials, HeatParams(nu=0.5), T_traj=8 * Mj))
    rep = ldp.tail_quasinorm(
        trajs, g.j, g.lam, A, g.M, g.probe, dt_grid=geometric_grid(Mj / 4, Mj),
        tau_grid=g.tau, shift_set=((1, 0, 0),), min_trials=min(g.trials, 16),
    )
    return (bool(np.all(np.isfinite(rep.statistics))), *_tail_outputs(rep))


def _ldp_btis(cfg):
    g = _NoiseGeometry(cfg)
    rep = ldp.btis_ball_check(g.snapshots(), g.probe, g.M, g.j, seed=g.s.get("seed", 0))
    table = (["u", "p_hat", "bound"], zip(rep.u_grid, rep.p_hat, rep.bound))
    return rep.passed, table, {"passed": rep.passed, "sigma2": rep.sigma2}


# each check returns (passed, csv header and rows or None, json summary)
LDP_CHECKS = {
    "nagaev": _ldp_nagaev, "mayer": _ldp_mayer, "slepian": _ldp_slepian, "supeta": _ldp_eta_tail,
    "expeta": _ldp_eta_tail, "quasinorm": _ldp_quasinorm, "btis": _ldp_btis,
}


def cmd_ldp(cfg, prefix):
    s = cfg["ldp"]
    check = s.get("check", "nagaev")
    if check not in LDP_CHECKS:
        raise ConfigError(f"unknown ldp check {check!r}")
    # slepian's stderr and btis's sigma^2 are sample variances, which need two trials
    min_trials = 2 if check in ("slepian", "btis") else 1
    if s.get("trials", min_trials) < min_trials:
        raise ConfigError(f"ldp.trials must be at least {min_trials} for {check}, got {s['trials']}")
    passed, table, summary = LDP_CHECKS[check](cfg)
    if table is not None:
        write_csv(prefix + f".{check}.csv", *table)
    write_json(prefix + f".{check}.json", summary)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_verify(cfg, prefix):
    quick = cfg["run"].get("quick", "no") == "yes"
    wanted = cfg["run"].get("criteria")
    try:
        ids = [int(v) for v in wanted.split(",")] if wanted else None
    except ValueError as e:
        raise ConfigError(f"bad criterion list {wanted!r}") from e
    for cid in ids or []:
        if cid not in acceptance.CRITERIA:
            raise ConfigError(f"unknown criterion {cid}")
    results = acceptance.run_criteria(ids=ids, quick=quick)
    # timings go to stdout only: report files must be byte-reproducible
    rows = [[r.cid, r.name, "pass" if r.passed else "FAIL", r.detail] for r in results]
    write_csv(prefix + ".verify.csv", ["criterion", "name", "status", "detail"], rows)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.cid}: {r.name} ({r.elapsed:.1f}s) {r.detail}")
    return EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL


COMMANDS = {
    "solve": cmd_solve,
    "bump": cmd_bump,
    "decay": cmd_decay,
    "maximal": cmd_maximal,
    "scales": cmd_scales,
    "ldp": cmd_ldp,
    "verify": cmd_verify,
}


# direct flags, each mapping onto one config key
FLAG_MAP = {
    "--scheme": ("solve", "scheme"),
    "--rate": ("solve", "rate"),
    "--nu": ("solve", "nu"),
    "--lambda": ("solve", "lambda"),
    "--M": ("solve", "m"),
    "--j": ("solve", "j"),
    "--T": ("solve", "t"),
    "--dt": ("solve", "dt"),
    "--seed": ("solve", "seed"),
    "--A": ("solve", "a"),
    "--L": ("solve", "l"),
    "--alpha": ("maximal", "alpha"),
    "--variant": ("maximal", "variant"),
    "--probes": ("maximal", "probes"),
    "--jmax": ("scales", "jmax"),
    "--ensemble": ("scales", "ensemble"),
    "--check": ("ldp", "check"),
    "--trials": ("ldp", "trials"),
    "--Agrid": ("ldp", "agrid"),
}

# some flags feed more than one section, resolved by subcommand
MULTI_SECTION = {
    "maximal": {"--lambda": ("maximal", "lambda"), "--M": ("maximal", "m"), "--j": ("maximal", "j")},
    "scales": {"--M": ("scales", "m"), "--seed": ("scales", "seed"), "--nu": ("scales", "nu"), "--dt": ("scales", "dt")},
    "ldp": {"--lambda": ("ldp", "lambda"), "--j": ("ldp", "j"), "--M": ("ldp", "m"), "--seed": ("ldp", "seed")},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpzlab",
        description="Simulation and verification toolkit for KPZ-class growth equations",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", default="kpzlab_run", help="output path prefix")
    parser.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config value",
    )
    for flag in FLAG_MAP:
        parser.add_argument(flag, default=None)
    parser.add_argument("--quick", action="store_true", help="verify: reduced-size run")
    parser.add_argument("--criteria", help="verify: comma-separated criterion ids")
    args = parser.parse_args(argv)

    overrides = []
    for item in args.set:
        try:
            dotted, val = item.split("=", 1)
            sec, key = dotted.split(".", 1)
        except ValueError:
            print(f"config error: bad override {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        overrides.append((sec.strip(), key.strip(), val.strip()))
    for flag, (sec, key) in FLAG_MAP.items():
        val = getattr(args, flag.lstrip("-").replace("-", "_"))
        if val is not None:
            sec, key = MULTI_SECTION.get(args.command, {}).get(flag, (sec, key))
            overrides.append((sec, key, val))
    if args.quick:
        overrides.append(("run", "quick", "yes"))
    if args.criteria:
        overrides.append(("run", "criteria", args.criteria))

    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_resolved_config(cfg, args.out)
    try:
        return COMMANDS[args.command](cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
