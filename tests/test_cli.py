import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kpzlab import cli, solvers
from kpzlab.deposition import relativistic_rate
from kpzlab.grid import GridSpec, make_bump, read_spacetime


def run(args):
    return cli.main(args)


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[grid]\nbogus = 1\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_unknown_section(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nope]\nx = 1\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_bad_override(tmp_path):
    assert run(["solve", "--set", "grid.bogus=3", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert run(["solve", "--set", "malformed", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("args", [
    ["--dt", "-1"],
    ["--rate", "bogus"],
    ["--scheme", "mild", "--T", "1.03", "--dt", "0.1"],
    ["--scheme", "trotter", "--M", "2", "--j", "1", "--dt", "0"],
])
def test_bad_solve_parameters_exit_2(tmp_path, capsys, args):
    assert run(["solve", "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: ")
    # the message itself, not the repr a KeyError's str() gives
    message = err[len("config error: "):]
    assert message[0] not in "\"'" and message[-1] != '"'


def test_solve_writes_outputs(tmp_path):
    out = str(tmp_path / "run")
    rc = run([
        "solve", "--out", out,
        "--set", "grid.d=1", "--set", "grid.n=64", "--set", "grid.l_box=32",
        "--set", "solve.t=1.0", "--set", "solve.dt=0.25", "--set", "solve.a=2",
        "--set", "solve.l=1",
    ])
    assert rc == cli.EXIT_PASS
    traj = read_spacetime(out + ".traj.kpzt")
    assert traj.n_frames == 5
    lines = Path(out + ".norms.csv").read_text().splitlines()
    assert lines[0] == "t,sup,l1,grad_sup,grad_l1,d2_sup,d3_sup"
    assert len(lines) == 6
    assert Path(out + ".config.ini").exists()


def test_solve_mild_scheme(tmp_path):
    out = str(tmp_path / "m")
    rc = run([
        "solve", "--out", out, "--set", "solve.scheme=mild",
        "--set", "grid.n=64", "--set", "grid.l_box=32",
        "--set", "solve.t=0.5", "--set", "solve.dt=0.1",
        "--set", "solve.a=0.5", "--set", "solve.l=1", "--set", "solve.rate=relativistic",
    ])
    assert rc == cli.EXIT_PASS


def test_bump_subcommand(tmp_path):
    out = str(tmp_path / "b")
    rc = run([
        "bump", "--out", out,
        "--set", "grid.d=1", "--set", "grid.n=256", "--set", "grid.l_box=64",
        "--set", "solve.a=3", "--set", "solve.l=1", "--set", "solve.t=20",
    ])
    assert rc == cli.EXIT_PASS
    lines = Path(out + ".bump.csv").read_text().splitlines()
    assert lines[0] == "t,sup,l1,ref_center"
    # center value tracks the reference column at late times
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(float(last[3]), rel=0.05)


def test_decay_subcommand(tmp_path):
    out = str(tmp_path / "d")
    rc = run([
        "decay", "--out", out,
        "--set", "grid.d=1", "--set", "grid.n=512", "--set", "grid.l_box=128",
        "--set", "solve.a=4", "--set", "solve.l=1", "--set", "solve.t=100",
    ])
    assert rc == cli.EXIT_PASS
    fits = json.loads(Path(out + ".decay.json").read_text())
    assert "grad_sup" in fits and "slope" in fits["grad_sup"]


@pytest.mark.parametrize("settings", [
    ["maximal.variant=star", "maximal.alpha=0.3"],
    ["maximal.variant=sharp", "maximal.alpha=0.3"],
    ["maximal.variant=hlambda", "maximal.lambda=1.0"],
    ["maximal.variant=w1inf"],
    ["maximal.variant=w1inf", "maximal.m=2", "maximal.j=2"],
    ["maximal.variant=forcing"],
], ids=["star", "sharp", "hlambda", "w1inf", "w1inf_mj", "forcing"])
def test_maximal_subcommand(tmp_path, settings):
    out = str(tmp_path / "mx")
    args = ["maximal", "--out", out, "--set", "grid.d=1", "--set", "grid.n=64", "--set", "grid.l_box=32",
            "--set", "maximal.probes=0;16;32"]
    for item in settings:
        args += ["--set", item]
    assert run(args) == cli.EXIT_PASS
    lines = Path(out + ".maximal.csv").read_text().splitlines()
    assert lines[0] == "probe,value"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "16", "32"]
    assert all(np.isfinite(float(row.split(",")[1])) for row in lines[1:])


def test_scales_and_determinism(tmp_path):
    args = [
        "scales",
        "--set", "grid.d=3", "--set", "grid.n=8", "--set", "grid.l_box=8",
        "--set", "scales.m=2", "--set", "scales.jmax=3",
        "--set", "scales.ensemble=10", "--set", "scales.seed=5",
        "--set", "scales.nu=0.5", "--set", "scales.dt=0.5",
    ]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--out", a]) == cli.EXIT_PASS
    assert run(args + ["--out", b]) == cli.EXIT_PASS
    for suffix in (".cov.csv", ".var.json", ".config.ini"):
        assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()


def test_ldp_nagaev_subcommand(tmp_path):
    out = str(tmp_path / "n")
    rc = run([
        "ldp", "--out", out, "--set", "ldp.check=nagaev",
        "--set", "ldp.n=16", "--set", "ldp.eps=0.05",
        "--set", "ldp.trials=20000", "--set", "ldp.seed=3",
        "--set", "ldp.agrid=0.4;0.8;1.5;3;6",
    ])
    assert rc == cli.EXIT_PASS
    rep = json.loads(Path(out + ".nagaev.json").read_text())
    assert rep["passed"] is True


def test_ldp_nagaev_unresolved_thresholds(tmp_path):
    # criterion 10's settings with the default thresholds: the three deepest
    # bounds lie below the zero-hit Wilson limit of 20,000 trials
    out = str(tmp_path / "n")
    rc = run([
        "ldp", "--out", out, "--set", "ldp.check=nagaev", "--set", "ldp.n=16",
        "--set", "ldp.trials=20000", "--set", "ldp.seed=3",
    ])
    assert rc == cli.EXIT_PASS
    rep = json.loads(Path(out + ".nagaev.json").read_text())
    assert rep["passed"] is True and rep["unresolved"] == 3
    lines = Path(out + ".nagaev.csv").read_text().splitlines()
    assert lines[0] == "A,p_hat,bound,resolved"
    assert [row.rsplit(",", 1)[1] for row in lines[1:]] == ["1"] * 9 + ["0"] * 3


def test_ldp_mayer_subcommand(tmp_path):
    out = str(tmp_path / "my")
    rc = run([
        "ldp", "--out", out, "--set", "ldp.check=mayer", "--set", "ldp.trials=100",
        "--set", "ldp.seed=2",
    ])
    assert rc == cli.EXIT_PASS


@pytest.mark.parametrize("rate", ["relativistic", "powerclamp1.5"])
def test_decay_general_rate(tmp_path, rate):
    # the 20 geometric sample times lie off the dt grid: one mild solve per interval
    out = str(tmp_path / "d")
    assert run(["decay", "--out", out, "--set", f"solve.rate={rate}", "--set", "grid.n=64"]) == cli.EXIT_PASS
    fits = json.loads(Path(out + ".decay.json").read_text())
    assert sorted(fits) == ["d2_sup", "grad_l1", "grad_sup", "l1", "sup"]
    assert all(np.isfinite(f["slope"]) for f in fits.values())


def test_tabulated_rate_via_cli(tmp_path):
    import numpy as np

    y = np.linspace(0, 10, 100)
    table = tmp_path / "rate.csv"
    np.savetxt(table, np.stack([y, y**2 / 2], axis=1), delimiter=",")
    out = str(tmp_path / "t")
    rc = run([
        "solve", "--out", out, "--scheme", "mild", "--rate", f"tabulated:{table}",
        "--T", "0.3", "--dt", "0.1", "--A", "0.5", "--L", "1",
        "--set", "grid.n=64", "--set", "grid.l_box=32",
    ])
    assert rc == cli.EXIT_PASS


def test_verify_quick_single_criterion(tmp_path, capsys):
    out = str(tmp_path / "v")
    rc = run(["verify", "--quick", "--criteria", "1", "--out", out])
    assert rc == cli.EXIT_PASS
    text = capsys.readouterr().out
    assert "criterion 1" in text and "PASS" in text
    assert Path(out + ".verify.csv").exists()


@pytest.mark.parametrize("key", ["maximal.t=5", "run.out=x"])
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    assert run(["maximal", "--set", key, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "unknown option" in capsys.readouterr().err


BTIS_8 = [
    "--set", "ldp.check=btis", "--set", "grid.d=3", "--set", "grid.n=8", "--set", "grid.l_box=8",
    "--set", "ldp.trials=4",
]


@pytest.mark.parametrize("args, message", [
    (["--set", "ldp.check=bogus"], "unknown ldp check 'bogus'"),
    (["--set", "ldp.check=nagaev", "--Agrid", "1;x"], "bad number list '1;x'"),
    (["--set", "ldp.check=slepian", "--set", "ldp.trials=1"], "ldp.trials must be at least 2 for slepian, got 1"),
    (["--set", "ldp.check=btis", "--set", "ldp.trials=1"], "ldp.trials must be at least 2 for btis, got 1"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.n=0"], "ldp.n must be positive, got 0"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.eps=0"], "ldp.eps must be positive, got 0.0"),
    (BTIS_8 + ["--set", "ldp.m=1"], "scale parameter M must exceed 1, got 1.0"),
    (BTIS_8 + ["--set", "ldp.j=-1"], "scale index j must be >= 0, got -1"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.t_exp=-1"], "ldp.t_exp must be positive, got -1.0"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.t_exp=0"], "ldp.t_exp must be positive, got 0.0"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.t_exp=nan"], "ldp.t_exp must be positive, got nan"),
    (["--set", "ldp.check=nagaev", "--Agrid", "nan;1"], "bad number list 'nan;1'"),
    (["--set", "ldp.check=nagaev", "--Agrid", "1;inf"], "bad number list '1;inf'"),
])
def test_ldp_bad_input_exit_2(tmp_path, capsys, args, message):
    assert run(["ldp", "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    # rejected before any work: only the resolved config is written, and not
    # even that for an unknown check, which the config itself refuses
    written = [] if message.startswith("unknown ") else ["o.config.ini"]
    assert sorted(p.name for p in tmp_path.iterdir()) == written


@pytest.mark.parametrize("command, args, message", [
    ("solve", ["--set", "grid.n=abc"], "bad value 'abc' for grid.n"),
    ("ldp", ["--set", "ldp.trials=x"], "bad value 'x' for ldp.trials"),
    ("verify", ["--criteria", "11"], "unknown criterion 11"),
    ("verify", ["--criteria", "1,x"], "bad criterion list '1,x'"),
    ("scales", ["--set", "scales.seed=-1"], "scales.seed must be nonnegative, got -1"),
    ("solve", ["--seed", "-1"], "solve.seed must be nonnegative, got -1"),
    ("ldp", ["--set", "ldp.seed=-1"], "ldp.seed must be nonnegative, got -1"),
    ("verify", ["--criteria", "1,1"], "criterion 1 listed twice"),
    ("verify", ["--set", "run.quick=true"], "run.quick must be yes or no, got 'true'"),
])
def test_bad_value_exit_2(tmp_path, capsys, command, args, message):
    assert run([command, "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"config error: {message}"


W1INF_SCALE_MESSAGE = "maximal.m and maximal.j weight the w1inf quasi-norm together; set both or neither"


@pytest.mark.parametrize("command, args, message", [
    ("scales", ["--set", "scales.ensemble=1"], "scales.ensemble must be at least 2, got 1"),
    ("scales", ["--set", "scales.jmax=1"], "scales.jmax must be at least 2, got 1"),
    ("scales", ["--set", "scales.m=1"], "scale parameter M must exceed 1, got 1.0"),
    ("scales", ["--set", "scales.dt=0"], "scales.dt must be positive, got 0.0"),
    ("scales", ["--set", "scales.nu=-1"], "scales.nu must be positive, got -1.0"),
    ("maximal", ["--set", "maximal.probes=abc"], "maximal.probes: bad probe 'abc'"),
    ("maximal", ["--set", "maximal.probes=0;999999"],
     "maximal.probes: probe '999999' is outside the 256-site axes"),
    ("maximal", ["--set", "maximal.probes=-257"], "maximal.probes: probe '-257' is outside the 256-site axes"),
    ("solve", ["--set", "solve.t=-1"], "solve.t must be positive, got -1.0"),
    ("solve", ["--set", "solve.rate=relativistic"],
     "solve.scheme colehopf needs the quadratic solve.rate, got 'relativistic'"),
    ("bump", ["--set", "solve.t=0.5"], "solve.t must exceed the first bump time max(l^2, 4 dx^2) = 1, got 0.5"),
    ("bump", ["--set", "solve.t=0"], "solve.t must exceed the first bump time max(l^2, 4 dx^2) = 1, got 0.0"),
    ("bump", ["--set", "solve.l=0"], "solve.l must be positive, got 0.0"),
    # out-of-range inputs that only the library checks
    ("maximal", ["--set", "maximal.variant=hlambda", "--set", "maximal.lambda=0"], "lam must be positive, got 0.0"),
    ("maximal", ["--set", "maximal.variant=w1inf", "--set", "grid.l_box=1024", "--set", "grid.n=64"],
     "grid spacing exceeds the unit shift window"),
    ("decay", ["--set", "solve.t=5", "--set", "grid.n=64"], "decay window must span at least one decade"),
    ("solve", ["--set", "solve.a=800", "--set", "solve.nu=1", "--set", "solve.lambda=1", "--set", "grid.n=64"],
     "lam/nu * osc(h0) = 800 exceeds float64 range (sup 800)"),
    ("solve", ["--scheme", "trotter", "--M", "2", "--j", "1", "--set", "solve.n_steps=0", "--set", "grid.n=32",
               "--T", "0.2"], "trotter_solve needs n >= 1 steps, got 0"),
    ("solve", ["--rate", "powerclampX"], "could not convert string to float: 'X'"),
    ("solve", ["--rate", "powerclamp3"], "growth exponent q must lie in (1, 2], got 3.0"),
    ("solve", ["--scheme", "trotter", "--M", "2", "--j", "1", "--set", "solve.d_noise=-1"],
     "noise strength D must be nonnegative, got -1.0"),
    ("bump", ["--set", "solve.a=1000"], "bump height A = 1e+03 exceeds float64 range"),
    ("decay", ["--set", "solve.a=1000"], "bump height A = 1e+03 exceeds float64 range"),
    # one (M, j) check for every scale pair
    ("solve", ["--scheme", "trotter", "--M", "0.5", "--j", "1"], "scale parameter M must exceed 1, got 0.5"),
    ("solve", ["--scheme", "trotter", "--M", "2", "--j", "-1"], "scale index j must be >= 0, got -1"),
    ("maximal", ["--set", "maximal.variant=forcing", "--set", "maximal.m=1"],
     "scale parameter M must exceed 1, got 1.0"),
    ("maximal", ["--set", "maximal.variant=w1inf", "--set", "maximal.m=0.5", "--set", "maximal.j=1"],
     "scale parameter M must exceed 1, got 0.5"),
    ("decay", ["--set", "solve.l=-1"], "solve.l must be positive, got -1.0"),
    ("decay", ["--set", "solve.a=0"], "decay window needs >= 5 sample times with sup > 0, got 0"),
    # the w1inf scale weighting takes maximal.m and maximal.j together
    ("maximal", ["--variant", "w1inf", "--M", "4"], W1INF_SCALE_MESSAGE),
    ("maximal", ["--variant", "w1inf", "--j", "2"], W1INF_SCALE_MESSAGE),
    # every coupling lam is checked, the noise checks' before any frame is drawn
    ("ldp", ["--check", "expeta", "--set", "ldp.lambda=0"], "lam must be positive, got 0.0"),
    ("ldp", ["--check", "expeta", "--set", "ldp.lambda=-2"], "lam must be positive, got -2.0"),
    ("ldp", ["--check", "quasinorm", "--set", "ldp.lambda=0"], "lam must be positive, got 0.0"),
    ("ldp", ["--check", "quasinorm", "--set", "ldp.lambda=-1"], "lam must be positive, got -1.0"),
    ("maximal", ["--variant", "forcing", "--lambda", "0"], "lam must be positive, got 0.0"),
    ("maximal", ["--variant", "forcing", "--lambda", "-1"], "lam must be positive, got -1.0"),
    # the keys only the trotter scheme reads
    *[("solve", args + ["--set", f"solve.{key}=1"], f"solve.{key} is read only by the trotter scheme, not by {scheme}")
      for scheme, args in (("colehopf", []), ("mild", ["--scheme", "mild"]))
      for key in ("m", "j", "seed", "d_noise", "n_steps")],
    # an empty list is not all criteria
    ("verify", ["--set", "run.criteria="], "bad criterion list ''"),
    # a tail threshold at or below zero, refused before any sample is drawn
    ("ldp", ["--check", "nagaev", "--Agrid=-1;0;0.5"], "ldp.agrid threshold must be positive, got -1.0"),
    ("ldp", ["--check", "supeta", "--Agrid=-3;-1"], "ldp.agrid threshold must be positive, got -3.0"),
])
def test_bad_input_exit_2_before_work(tmp_path, capsys, monkeypatch, command, args, message):
    drawn, real = [], cli.sample_noise
    monkeypatch.setattr(cli, "sample_noise", lambda *a: drawn.append(a) or real(*a))
    assert run([command, "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    # a forcing quasi-norm is refused before its noise history is drawn
    assert not (drawn and any("forcing" in a for a in args))
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    # only the resolved config is written, and not even that for a key the mode does not read
    written = [] if " is read only by the " in message else ["o.config.ini"]
    assert sorted(p.name for p in tmp_path.iterdir()) == written


@pytest.mark.parametrize("table, message", [
    ("1\n2\n3\n", "expected an array of (y, V) pairs"),
    ("a,b\nc,d\n", "could not convert string"),
])
def test_bad_tabulated_rate_exit_2_before_work(tmp_path, tmp_path_factory, capsys, table, message):
    csv = tmp_path_factory.mktemp("rate") / "rate.csv"
    csv.write_text(table)
    assert run(["solve", "--rate", f"tabulated:{csv}", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip().startswith(f"config error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.config.ini"]


def test_under_resolved_solve_exit_2(tmp_path, capsys):
    # a = 400 on the default 256-site grid: the spectral heat step turns
    # exp((lam/nu) h) negative; no output is written
    assert run(["solve", "--set", "solve.a=400", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "config error: the heat-evolved exponential exp((lam/nu) h) turned non-positive: "
        "the grid (N = 256, dx = 0.25) under-resolves it"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.config.ini"]


def test_unconverged_mild_solve_exit_2(tmp_path, capsys, monkeypatch):
    # one Picard sweep per slab attempt never contracts to tolerance: the
    # solve exits 2 with evolve's message and writes no trajectory or norms
    monkeypatch.setattr(solvers, "PICARD_MAX_ITER", 1)
    args = ["solve", "--scheme", "mild", "--rate", "relativistic", "--T", "0.2", "--set", "grid.n=64"]
    assert run(args + ["--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: mild evolution failed to converge at t = 0: ")
    # the solver diagnostics are written before the solve is refused
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.config.ini", "o.solve.json"]
    report = json.loads((tmp_path / "o.solve.json").read_text())
    assert report["converged"] is False
    assert report["attempts"][-1]["c_slab"] == solvers.C_SLAB / 2**solvers.MAX_HALVINGS
    spec = GridSpec(d=1, N=64, L_box=64.0)
    p = solvers.SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.1)
    assert report == _solve_report(solvers.mild_solve(make_bump(spec, 1.0, 1.0), 0.2, p))


def _solve_report(traj):
    return {"converged": traj.converged, "attempts": [dict(a._asdict(), sweeps=list(a.sweeps)) for a in traj.attempts]}


def test_mild_solve_writes_its_diagnostics(tmp_path):
    out = str(tmp_path / "m")
    args = ["--scheme", "mild", "--rate", "relativistic", "--T", "0.5", "--A", "0.5", "--L", "1"]
    assert run(["solve", "--out", out, "--set", "grid.n=64", "--set", "grid.l_box=32"] + args) == cli.EXIT_PASS
    report = json.loads(Path(out + ".solve.json").read_text())
    spec = GridSpec(d=1, N=64, L_box=32.0)
    p = solvers.SolveParams(nu=1.0, lam=1.0, rate=relativistic_rate(), dt=0.1)
    traj = solvers.mild_solve(make_bump(spec, 0.5, 1.0), 0.5, p)
    assert report == _solve_report(traj) and report["converged"] is True
    assert read_spacetime(out + ".traj.kpzt").n_frames == len(traj.frames) == 6


def test_readme_names_the_solve_json_fields(tmp_path):
    # README lists the keys of solve.json and the fields of each attempt record
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = r"((?:`\w+`(?:, |,? and )?)+)"
    keys, fields = (re.findall(r"`(\w+)`", re.search(lead + names, readme).group(1))
                    for lead in (r"`solve\.json` holds the keys ", r"each attempt is a record with the fields "))
    out = str(tmp_path / "m")
    assert run(["solve", "--scheme", "mild", "--rate", "relativistic", "--T", "0.2", "--out", out]) == cli.EXIT_PASS
    report = json.loads(Path(out + ".solve.json").read_text())
    assert sorted(report) == sorted(keys) and report["attempts"]
    assert all(sorted(a) == sorted(fields) for a in report["attempts"])
    assert list(solvers.SlabAttempt._fields) == fields


def test_steep_mild_solve_converges_by_substeps(tmp_path):
    # a steep relativistic bump: at dt 0.1 the first one-step slab does not
    # contract in 60 sweeps, and each frame step is split into sub-steps
    out = str(tmp_path / "s")
    args = ["--scheme", "mild", "--set", "solve.rate=relativistic", "--set", "solve.a=8", "--set", "solve.l=0.5",
            "--set", "solve.lambda=2", "--set", "grid.n=128", "--set", "grid.l_box=16"]
    assert run(["solve", "--out", out] + args) == cli.EXIT_PASS
    report = json.loads(Path(out + ".solve.json").read_text())
    assert report["converged"] is True and report["attempts"][-1]["c_slab"] == solvers.C_SLAB
    assert any(a["converged"] and a["substeps"] > 1 for a in report["attempts"])
    coarse = read_spacetime(out + ".traj.kpzt")
    p = solvers.SolveParams(nu=1.0, lam=2.0, rate=relativistic_rate(), dt=0.01)
    fine = solvers.mild_solve(make_bump(GridSpec(d=1, N=128, L_box=16.0), 8.0, 0.5), 1.0, p).converged_field()
    assert coarse.n_frames == 11
    # the shared frames agree to 2% of the bump height; most of the gap (0.079
    # at t = 0.1) is the dt 0.01 run's own error, which is 0.073 against dt 0.0025
    for t, f in zip(coarse.times(), coarse.frames):
        assert np.abs(f.values - fine.frames[fine.frame_index(t)].values).max() <= 0.02 * 8.0, t


def test_negative_probe_counts_from_the_end(tmp_path):
    out = str(tmp_path / "mx")
    # on the default 256-site grid, -256 is site 0
    assert run(["maximal", "--set", "maximal.probes=-256;0", "--out", out]) == cli.EXIT_PASS
    rows = [row.split(",") for row in Path(out + ".maximal.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["-256", "0"]
    assert rows[0][1] == rows[1][1]


def test_bad_value_in_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[grid]\nl_box = wide\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == "config error: bad value 'wide' for grid.l_box"


def test_ldp_zero_trials_exit_2_before_work(tmp_path):
    out = tmp_path / "o"
    rc = run(["ldp", "--set", "ldp.check=nagaev", "--set", "ldp.trials=0", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.config.ini"]


SMALL_LDP = [
    "--set", "grid.d=3", "--set", "grid.n=8", "--set", "grid.l_box=8",
    "--set", "ldp.j=2", "--set", "ldp.trials=20",
]
TAIL_KEYS = ["C_fit", "c_fit", "model", "r2", "trials"]


def test_ldp_btis_p_hat_is_that_of_the_raw_pool(tmp_path):
    # BTIS is scale-invariant: normalizing the pool by M^{j(1+d_phi)} moves
    # only the u grid and sigma2, so p_hat and the bound are the raw pool's
    from kpzlab import ldp
    from kpzlab.grid import periodic_distance_sq

    out = str(tmp_path / "b")
    assert run(["ldp", "--check", "btis", "--out", out] + SMALL_LDP) == cli.EXIT_PASS
    small = [(*kv.split("=")[0].split("."), kv.split("=")[1]) for kv in SMALL_LDP[1::2]]
    g = cli._NoiseGeometry(cli.load_config("ldp", None, [("ldp", "check", "btis")] + small))
    ball = periodic_distance_sq(g.npar.spec, g.probe) <= g.M**g.j  # radius M^{j/2}
    pool = [s.values[ball] for s in g.snapshots()]
    it = iter(pool)
    sigma_hat = np.sqrt(np.var(np.stack(pool), axis=0).max())
    raw = ldp.btis_check(lambda rng: next(it), np.linspace(0.0, 3 * sigma_hat, 10), len(pool), seed=0)
    rows = [line.split(",") for line in Path(out + ".btis.csv").read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == [cli._fmt(float(v)) for v in raw.p_hat]
    assert np.allclose([float(r[2]) for r in rows], raw.bound, rtol=1e-14, atol=0)
    norm = g.M ** (g.j * (1 + ldp.scaling_dimension(3)))
    sigma2 = json.loads(Path(out + ".btis.json").read_text())["sigma2"]
    assert sigma2 == pytest.approx(norm**2 * raw.sigma2, rel=1e-12)


@pytest.mark.parametrize("check, keys, csv_header", [
    ("slepian", ["e_high", "e_low", "passed", "stderr"], None),
    ("supeta", TAIL_KEYS, "A,p_hat,wilson_lo,wilson_hi"),
    ("expeta", TAIL_KEYS, "A,p_hat,wilson_lo,wilson_hi"),
    ("quasinorm", TAIL_KEYS, "A,p_hat,wilson_lo,wilson_hi"),
    ("btis", ["passed", "sigma2"], "u,p_hat,bound"),
])
def test_ldp_small_checks(tmp_path, check, keys, csv_header):
    out = str(tmp_path / check)
    # slepian reads neither a grid key nor ldp.j
    small = ["--set", "ldp.trials=20"] if check == "slepian" else SMALL_LDP
    assert run(["ldp", "--check", check, "--out", out] + small) == cli.EXIT_PASS
    rep = json.loads(Path(f"{out}.{check}.json").read_text())
    assert sorted(rep) == keys
    if csv_header is not None:
        assert Path(f"{out}.{check}.csv").read_text().splitlines()[0] == csv_header


def test_ldp_quasinorm_streams_its_trajectories(tmp_path):
    # the trajectories pass one at a time through tail_quasinorm: the traced
    # peak does not grow with --trials by as much as one trajectory
    # (8 M^j / dt + 1 = 129 frames of 8^3 sites at M = 2, j = 2)
    one_trajectory = 129 * 8**3 * 8
    args = ["ldp", "--check", "quasinorm"] + SMALL_LDP[:-2]
    assert run(args + ["--trials", "2", "--out", str(tmp_path / "warm")]) == cli.EXIT_PASS
    peaks = []
    for trials in (4, 12):
        tracemalloc.start()
        try:
            assert run(args + ["--trials", str(trials), "--out", str(tmp_path / f"t{trials}")]) == cli.EXIT_PASS
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < one_trajectory


def test_ldp_noise_check_defaults_to_criterion_9_grid(tmp_path):
    # with no grid.* key the noise checks run on d 3, N 16, box 16
    out = str(tmp_path / "b")
    assert run(["ldp", "--check", "btis", "--set", "ldp.trials=4", "--out", out]) == cli.EXIT_PASS
    assert Path(out + ".btis.json").exists()


@pytest.mark.parametrize("command, args, option", [
    ("scales", ["--j", "3"], "scales.j"),
    ("ldp", ["--nu", "2"], "ldp.nu"),
    ("maximal", ["--seed", "5"], "maximal.seed"),
    ("verify", ["--M", "2"], "run.m"),
    ("solve", ["--alpha", "0.3"], "solve.alpha"),
    ("bump", ["--quick"], "solve.quick"),
    # each subcommand accepts only the keys it reads, from a flag, --set or --config
    ("bump", ["--rate", "relativistic"], "solve.rate"),
    ("decay", ["--scheme", "trotter"], "solve.scheme"),
    ("scales", ["--set", "ldp.trials=5"], "ldp.trials"),
    ("verify", ["--set", "grid.n=8"], "grid.n"),
    ("solve", ["--config", "maximal.ini"], "maximal.alpha"),
])
def test_flag_outside_its_section_exit_2(tmp_path, tmp_path_factory, capsys, command, args, option):
    ini = tmp_path_factory.mktemp("ini") / "maximal.ini"
    ini.write_text("[maximal]\nalpha = 0.3\n")
    args = [str(ini) if arg == "maximal.ini" else arg for arg in args]
    assert run([command, "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"config error: unknown option {option}"
    assert list(tmp_path.iterdir()) == []


def test_every_flag_names_a_schema_key():
    for flag in cli.FLAGS:
        assert any(flag[2:].lower() in cli.CONFIG_SCHEMA[cmd][sec] for cmd, sec in cli.FLAG_SECTION.items()), flag


@pytest.mark.parametrize("command, flags, settings", [
    ("maximal", ["--variant", "forcing", "--M", "2", "--j", "3", "--lambda", "0.5"],
     ["maximal.variant=forcing", "maximal.m=2", "maximal.j=3", "maximal.lambda=0.5"]),
    ("scales", ["--M", "3", "--seed", "4", "--nu", "0.5", "--dt", "0.25"],
     ["scales.m=3", "scales.seed=4", "scales.nu=0.5", "scales.dt=0.25"]),
    ("ldp", ["--check", "quasinorm", "--lambda", "2", "--j", "2", "--M", "3", "--seed", "7"],
     ["ldp.check=quasinorm", "ldp.lambda=2", "ldp.j=2", "ldp.m=3", "ldp.seed=7"]),
    ("verify", ["--criteria", "1,4", "--quick"], ["run.criteria=1,4", "run.quick=yes"]),
    ("solve", ["--scheme", "mild", "--rate", "relativistic", "--A", "0.5", "--T", "1", "--dt", "0.05", "--L", "2"],
     ["solve.scheme=mild", "solve.rate=relativistic", "solve.a=0.5", "solve.t=1", "solve.dt=0.05", "solve.l=2"]),
])
def test_flags_write_the_config_of_their_set_spelling(tmp_path, monkeypatch, command, flags, settings):
    # the flags map onto config keys before any work, so the command itself is not run
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, prefix: cli.EXIT_PASS)
    a, b = str(tmp_path / "flags"), str(tmp_path / "set")
    assert run([command, "--out", a] + flags) == cli.EXIT_PASS
    assert run([command, "--out", b] + [arg for s in settings for arg in ("--set", s)]) == cli.EXIT_PASS
    text = Path(a + ".config.ini").read_text()
    assert text == Path(b + ".config.ini").read_text()
    assert text.startswith(f"[{cli.FLAG_SECTION[command]}]\n")


def _mode_reads(command):
    """Each mode of a modal subcommand -> the keys it reads, as cli.MODES lists them ("grid" is every grid key)."""
    name, modes = cli.MODES[command]
    own = cli.FLAG_SECTION[command]
    expand = {"grid": [f"grid.{k}" for k in cli.GRID]}
    return {mode: {f"{own}.{name}"} | {key for word in reads.split() for key in expand.get(word, [f"{own}.{word}"])}
            for mode, reads in modes.items()}


@pytest.mark.parametrize("command, mode, key", [
    (command, mode, f"{sec}.{key}")
    for command, (_, modes) in cli.MODES.items() for mode in modes
    for sec, keys in cli.CONFIG_SCHEMA[command].items() for key in keys
])
def test_each_mode_accepts_exactly_the_keys_it_reads(tmp_path, capsys, monkeypatch, command, mode, key):
    # the keys are checked before any work, so the command itself is not run
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, prefix: cli.EXIT_PASS)
    name, own = cli.MODES[command][0], cli.FLAG_SECTION[command]
    value = mode if key == f"{own}.{name}" else "1"
    rc = run([command, "--set", f"{own}.{name}={mode}", "--set", f"{key}={value}", "--out", str(tmp_path / "o")])
    reads = _mode_reads(command)
    if key in reads[mode]:
        assert rc == cli.EXIT_PASS
        assert f"\n{key.split('.')[1]} = {value}\n" in (tmp_path / "o.config.ini").read_text()
    else:
        readers = "/".join(m for m in reads if key in reads[m])
        assert rc == cli.EXIT_CONFIG
        message = f"{key} is read only by the {readers} {name}, not by {mode}"
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, mode", [("solve", "colehopf"), ("maximal", "star"), ("ldp", "nagaev")])
def test_config_records_the_default_mode(tmp_path, monkeypatch, command, mode):
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, prefix: cli.EXIT_PASS)
    assert run([command, "--out", str(tmp_path / "o")]) == cli.EXIT_PASS
    name = cli.MODES[command][0]
    assert (tmp_path / "o.config.ini").read_text() == f"[{cli.FLAG_SECTION[command]}]\n{name} = {mode}\n"


def test_readme_lists_the_keys_of_each_mode():
    # README's command-line table names each mode's keys, the default mode first
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| subcommand | mode key | mode | keys |\n| --- | --- | --- | --- |\n")[1].split("\n\n")[0]
    table = {}
    for line in rows.splitlines():
        command, mode_key, modes, keys = [cell.strip() for cell in line.strip("|").split("|")]
        command, mode_key = command.strip("`"), mode_key.strip("`")
        name = cli.MODES[command][0] if command in cli.MODES else None
        assert mode_key == (f"{cli.FLAG_SECTION[command]}.{name}" if name else ""), line
        dotted = set()
        for sec, names in re.findall(r"`(\w+)\.(\*|\{[\w, ]+\})`", keys):
            dotted |= {f"{sec}.{k}" for k in (cli.GRID if names == "*" else names.strip("{}").split(", "))}
        for mode in re.findall(r"`(\w+)`", modes) or [None]:
            table.setdefault(command, {})[mode] = dotted
    assert sorted(table) == sorted(cli.CONFIG_SCHEMA)
    for command, modes in table.items():
        schema = {f"{sec}.{key}" for sec, keys in cli.CONFIG_SCHEMA[command].items() for key in keys}
        assert set().union(*modes.values()) == schema, command
        if command in cli.MODES:
            assert list(modes.items()) == list(_mode_reads(command).items()), command
        else:
            assert list(modes) == [None], command


def _readme_commands():
    """Every kpzlab line of README's sh blocks, backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("kpzlab ")]


def test_readme_commands_parse(tmp_path, monkeypatch):
    # each README command is one command to a POSIX shell, and its flags and
    # keys parse; the commands themselves are not run
    commands = _readme_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name, lambda cfg, prefix: cli.EXIT_PASS)
    for line in commands:
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        words = list(lexer)
        assert not [w for w in words if set(w) <= set("();<>|&")], line
        assert words[0] == "kpzlab" and run(words[1:]) == cli.EXIT_PASS, line
