"""Command-line entry point: config handling, dispatch, machine-readable reports.

Config files are INI (one section per module area, key = value); command-line
flags override file values.  Each subcommand accepts exactly the keys it reads
(CONFIG_SCHEMA), and each flag --X sets key x (lowercased) of its subcommand's
own section (FLAG_SECTION).  Every run writes its resolved configuration next
to its outputs, and identical resolved configs produce byte-identical output
files.

Exit codes: 0 pass, 1 failed check, 2 bad input: a grid.BadArgumentError (a
bad config among them), a grid.NumericalRangeError or an OSError.
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
from .grid import (
    BadArgumentError, GridSpec, NumericalRangeError, SpaceTimeField, check_positive, check_scale, frame_steps, lp_norm,
    make_bump, write_spacetime,
)
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
    decay_experiment,
    evolve,
    frame_norms,
    mild_solve,
    trotter_solve,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


GRID = {"d": int, "n": int, "l_box": float}
SOLVE = {
    "scheme": str, "rate": str, "nu": float, "lambda": float, "d_noise": float,
    "m": float, "j": int, "t": float, "dt": float, "seed": int, "a": float,
    "l": float, "n_steps": int,
}
TROTTER_KEYS = ("m", "j", "seed", "d_noise", "n_steps")  # the solve keys only --scheme trotter reads

# subcommand -> section -> the keys it reads, each with the converter that parses its value
CONFIG_SCHEMA = {
    "solve": {"grid": GRID, "solve": SOLVE},
    "bump": {"grid": GRID, "solve": {k: SOLVE[k] for k in ("a", "l", "t")}},
    "decay": {"grid": GRID, "solve": {k: SOLVE[k] for k in ("rate", "nu", "lambda", "dt", "a", "l", "t")}},
    "maximal": {"grid": GRID, "maximal": {
        "alpha": float, "lambda": float, "variant": str, "m": float, "j": int, "probes": str,
    }},
    "scales": {"grid": GRID, "scales": {
        "m": float, "jmax": int, "ensemble": int, "seed": int, "nu": float, "dt": float,
    }},
    "ldp": {"grid": GRID, "ldp": {
        "check": str, "j": int, "lambda": float, "trials": int, "seed": int,
        "agrid": str, "m": float, "n": int, "eps": float, "t_exp": float,
    }},
    "verify": {"run": {"quick": str, "criteria": str}},
}

# the config section each subcommand's flags set: the last of its sections
FLAG_SECTION = {command: list(sections)[-1] for command, sections in CONFIG_SCHEMA.items()}


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


def load_config(command: str, path=None, overrides=None) -> dict:
    """Parse an INI config plus flag overrides into a nested dict; reject every key command does not read."""
    schema = CONFIG_SCHEMA[command]
    parser = configparser.ConfigParser()
    if path and not parser.read(path):
        raise BadArgumentError(f"cannot read config file {path}")
    cfg = {sec: {} for sec in schema}
    items = [(sec, key, val) for sec in parser.sections() for key, val in parser.items(sec)]
    for sec, key, val in items + list(overrides or []):
        if key not in schema.get(sec, {}):
            raise BadArgumentError(f"unknown option {sec}.{key}")
        try:
            out = schema[sec][key](val)
        except ValueError as e:
            raise BadArgumentError(f"bad value {val!r} for {sec}.{key}") from e
        # a seed keys numpy's generators, which take only nonnegative integers
        if key == "seed" and out < 0:
            raise BadArgumentError(f"{sec}.seed must be nonnegative, got {out}")
        cfg[sec][key] = out
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


def _grid_from_cfg(cfg, d=1, n=256, l_box=64.0) -> GridSpec:  # d, n, l_box: defaults for unset keys
    g = cfg["grid"]
    return GridSpec(d=g.get("d", d), N=g.get("n", n), L_box=g.get("l_box", l_box))


def _parse_probes(raw: str, spec: GridSpec):
    probes = []
    for item in raw.split(";"):
        try:
            idx = tuple(int(v) for v in item.split(","))
        except ValueError as e:
            raise BadArgumentError(f"maximal.probes: bad probe {item!r}") from e
        if len(idx) != spec.d:
            raise BadArgumentError(f"probe {item!r} has wrong dimension")
        # negative indices count from the end of each axis, as numpy's do
        if not all(-spec.N <= i < spec.N for i in idx):
            raise BadArgumentError(f"maximal.probes: probe {item!r} is outside the {spec.N}-site axes")
        probes.append(idx)
    return probes


# --- subcommands -------------------------------------------------------------


def cmd_solve(cfg, prefix):
    spec = _grid_from_cfg(cfg)
    s = cfg["solve"]
    scheme = s.get("scheme", "colehopf")
    if scheme in ("colehopf", "mild"):
        for key in TROTTER_KEYS:
            if key in s:
                raise BadArgumentError(f"solve.{key} is read only by the trotter scheme, not by {scheme}")
    T = s.get("t", 1.0)
    check_positive("solve.t", T)
    p = SolveParams(
        nu=s.get("nu", 1.0), lam=s.get("lambda", 1.0), rate=rate_by_label(s.get("rate", "quadratic")),
        dt=s.get("dt", 0.1), D=s.get("d_noise", 1.0),
        cutoff=(s["m"], s["j"]) if "m" in s and "j" in s else None,
    )
    n = frame_steps(T, p.dt)
    if scheme == "colehopf" and not p.rate.quadratic:
        raise BadArgumentError(f"solve.scheme colehopf needs the quadratic solve.rate, got {p.rate.label!r}")
    h0 = make_bump(spec, s.get("a", 1.0), s.get("l", min(1.0, spec.L_box / 4)))
    if scheme == "colehopf":
        frames = tuple(evolve(h0, [k * p.dt for k in range(n + 1)], p))
        stf = SpaceTimeField(spec=spec, dt=p.dt, frames=frames, t0=0.0)
    elif scheme == "mild":
        traj = mild_solve(h0, T, p)
        # the diagnostics are written first, so a solve that stops short still reports them
        diagnostics = ("converged", "picard_iterations", "halvings", "substeps", "c_slab")
        write_json(prefix + ".solve.json", {k: getattr(traj, k) for k in diagnostics})
        stf = traj.converged_field()
    elif scheme == "trotter":
        if p.cutoff is None:
            raise BadArgumentError("trotter scheme needs m and j")
        npar = NoiseParams(spec=spec, dt=p.dt, seed=s.get("seed", 0))
        g = sample_noise(npar, T)
        stf = trotter_solve(h0, g, T, s.get("n_steps", n), p)
    else:
        raise BadArgumentError(f"unknown scheme {scheme!r}")
    write_spacetime(stf, prefix + ".traj.kpzt")
    rows = [[t] + norms for t, norms in zip(stf.times(), frame_norms(stf.frames, NORMS))]
    write_csv(prefix + ".norms.csv", ["t", *NORMS], rows)
    return EXIT_PASS


def cmd_bump(cfg, prefix):
    spec = _grid_from_cfg(cfg)
    s = cfg["solve"]
    A, L = s.get("a", 3.0), s.get("l", 1.0)
    check_positive("solve.l", L)
    p = SolveParams(nu=BUMP_ORACLE_NU, lam=BUMP_ORACLE_LAM, rate=rate_by_label("quadratic"), dt=0.1)
    t0, T = max(L * L, 4 * spec.dx**2), s.get("t", 100.0)
    if not T > t0:
        raise BadArgumentError(f"solve.t must exceed the first bump time max(l^2, 4 dx^2) = {t0:g}, got {T}")
    t_grid = np.geomspace(t0, T, 24)
    h = bump_oracle_field(spec, A, L, t0)
    rows = []
    for t, ht in zip(t_grid, evolve(h, t_grid - t0, p)):
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
    check_positive("solve.l", L)
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
    probes = _parse_probes(m.get("probes", ",".join(["0"] * spec.d)), spec)
    if variant == "forcing":
        npar = NoiseParams(spec=spec, dt=0.25, seed=0)
        Mv, jv = m.get("m", 2.0), m.get("j", 2)
        check_scale(Mv, jv)  # before the noise history of length 4 M^j is drawn
        T = 4 * Mv**jv
        values = forcing_quasinorm(sample_noise(npar, T), lam, Mv, jv, T, probes, shift_set=())[0]
    else:
        h0 = make_bump(spec, 2.0, min(1.0, spec.L_box / 8))
        if variant == "star":
            prof = star_maximal(h0, alpha)
        elif variant == "sharp":
            prof = sharp_maximal(h0, alpha)
        elif variant == "hlambda":
            prof = h_lambda_norm(h0, lam)
        elif variant == "w1inf":
            if ("m" in m) != ("j" in m):
                raise BadArgumentError("maximal.m and maximal.j weight the w1inf quasi-norm together; set both or neither")
            prof = w1inf_lambda_norm(h0, lam, scale=(m["m"], m["j"]) if "m" in m else None)
        else:
            raise BadArgumentError(f"unknown maximal variant {variant!r}")
        values = [prof.values[q] for q in probes]
    write_csv(prefix + ".maximal.csv", ["probe", "value"],
              [[";".join(map(str, q)), float(v)] for q, v in zip(probes, values)])
    return EXIT_PASS


def cmd_scales(cfg, prefix):
    s = cfg["scales"]
    spec = _grid_from_cfg(cfg)
    M, jmax, S = s.get("m", 2.0), s.get("jmax", 4), s.get("ensemble", 200)
    dt, nu = s.get("dt", 0.5), s.get("nu", 0.25)
    # the table covers scales 2 .. jmax, and stderr is a sample deviation
    if S < 2:
        raise BadArgumentError(f"scales.ensemble must be at least 2, got {S}")
    if jmax < 2:
        raise BadArgumentError(f"scales.jmax must be at least 2, got {jmax}")
    check_positive("scales.dt", dt)
    check_positive("scales.nu", nu)
    sd = build_partition(M, jmax)
    params = NoiseParams(spec=spec, dt=dt, seed=s.get("seed", 0))
    js = list(range(2, jmax + 1))
    tab = empirical_covariance(
        params, sd, pairs=[(a, b) for a in js for b in js if a <= b],
        S=S, p=HeatParams(nu=nu),
    )
    # the estimates are at zero time and space lag
    rows = [[j, j2, 0, 0, e.cov, e.stderr] for (j, j2), e in sorted(tab.entries.items())]
    write_csv(prefix + ".cov.csv", ["j", "j2", "dt_lag", "dx_lag", "cov", "stderr"], rows)
    write_json(prefix + ".var.json", {f"phi_j{j}": tab.var[j] for j in js})
    return EXIT_PASS


def _agrid(s, default) -> np.ndarray:
    if "agrid" not in s:
        return np.asarray(default, dtype=float)
    try:
        return np.array([float(v) for v in s["agrid"].split(";")])
    except ValueError as e:
        raise BadArgumentError(f"bad number list {s['agrid']!r}") from e


def _tail_outputs(rep):
    rows = zip(rep.A_grid, rep.p_hat, rep.wilson_lo, rep.wilson_hi)
    summary = {"model": rep.model, "c_fit": rep.c_fit, "C_fit": rep.C_fit, "r2": rep.r2, "trials": rep.trials}
    return (["A", "p_hat", "wilson_lo", "wilson_hi"], rows), summary


def _ldp_nagaev(cfg):
    s = cfg["ldp"]
    n, eps = s.get("n", 64), s.get("eps", 0.05)
    check_positive("ldp.n", n)
    check_positive("ldp.eps", eps)
    A = _agrid(s, ldp.nagaev_thresholds(n, eps))
    chk = ldp.nagaev_check(
        n, eps, s.get("t_exp", 2.0), A, trials=s.get("trials", 100_000), seed=s.get("seed", 0)
    )
    table = (["A", "p_hat", "bound", "resolved"], zip(chk.A_grid, chk.p_hat, chk.bound, chk.resolved.astype(int)))
    summary = {"passed": chk.passed, "k_cal": ldp.NAGAEV_K_CAL, "unresolved": int(np.sum(~chk.resolved))}
    return chk.passed, table, summary


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
    """Desk-scale d = 3 sampling geometry of the noise-driven ldp checks; unset grid keys take criterion 9's."""

    probe = (0,) * 3

    def __init__(self, cfg):
        self.s = s = cfg["ldp"]
        spec = _grid_from_cfg(cfg, d=3, n=16, l_box=16.0)
        if spec.d != 3:
            raise BadArgumentError(f"ldp check {s['check']!r} needs a d = 3 grid")
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
    kw = dict(tau_grid=g.tau, min_trials=min(g.trials, 1000))
    if supeta:
        rep = ldp.tail_sup_eta(g.snapshots(), g.j, A, g.probe, g.M, **kw)
    else:
        rep = ldp.tail_exp_eta(g.snapshots(), g.j, g.lam, A, g.probe, g.M, **kw)
    return (True, *_tail_outputs(rep))


def _ldp_quasinorm(cfg):
    g = _NoiseGeometry(cfg)
    A = _agrid(g.s, [1, 2, 4, 8])
    Mj = float(g.M) ** g.j
    trajs = eta_history_ensemble(g.npar, g.sd, g.j, g.trials, HeatParams(nu=0.5), T_traj=8 * Mj)
    rep = ldp.tail_quasinorm(
        trajs, g.j, g.lam, A, g.M, g.probe, dt_grid=geometric_grid(Mj / 4, Mj),
        tau_grid=g.tau, shift_set=((1, 0, 0),), min_trials=min(g.trials, 16),
    )
    return (bool(np.all(np.isfinite(rep.statistics))), *_tail_outputs(rep))


def _ldp_btis(cfg):
    g = _NoiseGeometry(cfg)
    rep = ldp.btis_ball_check(g.snapshots(), g.probe, g.M, g.j)
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
        raise BadArgumentError(f"unknown ldp check {check!r}")
    # slepian's stderr and btis's sigma^2 are sample variances, which need two trials
    min_trials = 2 if check in ("slepian", "btis") else 1
    if s.get("trials", min_trials) < min_trials:
        raise BadArgumentError(f"ldp.trials must be at least {min_trials} for {check}, got {s['trials']}")
    passed, table, summary = LDP_CHECKS[check](cfg)
    if table is not None:
        write_csv(prefix + f".{check}.csv", *table)
    write_json(prefix + f".{check}.json", summary)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_verify(cfg, prefix):
    quick = cfg["run"].get("quick", "no")
    if quick not in ("yes", "no"):
        raise BadArgumentError(f"run.quick must be yes or no, got {quick!r}")
    wanted = cfg["run"].get("criteria")
    try:
        ids = [int(v) for v in wanted.split(",")] if wanted else None
    except ValueError as e:
        raise BadArgumentError(f"bad criterion list {wanted!r}") from e
    for k, cid in enumerate(ids or []):
        if cid not in acceptance.CRITERIA:
            raise BadArgumentError(f"unknown criterion {cid}")
        if cid in ids[:k]:
            raise BadArgumentError(f"criterion {cid} listed twice")
    results = acceptance.run_criteria(ids=ids, quick=quick == "yes")
    # timings go to stdout only: report files must be byte-reproducible
    rows = [[r.cid, r.name, "pass" if r.passed else "FAIL", r.detail] for r in results]
    write_csv(prefix + ".verify.csv", ["criterion", "name", "status", "detail"], rows)
    for r in results:
        print(r.line())
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


# each flag --X sets key x (the flag's name, lowercased) of its subcommand's section
FLAGS = (
    "--scheme", "--rate", "--nu", "--lambda", "--M", "--j", "--T", "--dt", "--seed", "--A", "--L",
    "--alpha", "--variant", "--probes", "--jmax", "--ensemble", "--check", "--trials", "--Agrid",
    "--criteria", "--quick",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpzlab",
        description="Simulation and verification toolkit for KPZ-class growth equations",
        epilog="Each flag --X sets key x (lowercased) of the subcommand's config section, as --set does: "
        "solve for solve, bump and decay, run for verify, else the subcommand's own; --quick sets run.quick = yes.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", default="kpzlab_run", help="output path prefix")
    parser.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config value",
    )
    for flag in FLAGS:
        parser.add_argument(flag, **({"action": "store_const", "const": "yes"} if flag == "--quick" else {}))
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
    for flag in FLAGS:
        val = getattr(args, flag[2:])
        if val is not None:
            overrides.append((FLAG_SECTION[args.command], flag[2:].lower(), val))

    try:
        cfg = load_config(args.command, args.config, overrides)
    except BadArgumentError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_resolved_config(cfg, args.out)
    try:
        return COMMANDS[args.command](cfg, args.out)
    except (BadArgumentError, NumericalRangeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
