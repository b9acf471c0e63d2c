import json
from pathlib import Path

import numpy as np
import pytest

from kpzlab import cli
from kpzlab.grid import read_spacetime


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


def test_ldp_mayer_subcommand(tmp_path):
    out = str(tmp_path / "my")
    rc = run([
        "ldp", "--out", out, "--set", "ldp.check=mayer", "--set", "ldp.trials=100",
        "--set", "ldp.seed=2",
    ])
    assert rc == cli.EXIT_PASS


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


@pytest.mark.parametrize("args, message", [
    (["--set", "ldp.check=bogus"], "unknown ldp check 'bogus'"),
    (["--set", "ldp.check=nagaev", "--Agrid", "1;x"], "bad number list '1;x'"),
    (["--set", "ldp.check=slepian", "--set", "ldp.trials=1"], "ldp.trials must be at least 2 for slepian, got 1"),
    (["--set", "ldp.check=btis", "--set", "ldp.trials=1"], "ldp.trials must be at least 2 for btis, got 1"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.n=0"], "ldp.n must be positive, got 0"),
    (["--set", "ldp.check=nagaev", "--set", "ldp.eps=0"], "ldp.eps must be positive, got 0.0"),
])
def test_ldp_bad_input_exit_2(tmp_path, capsys, args, message):
    assert run(["ldp", "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    # rejected before any work: only the resolved config is written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.config.ini"]


@pytest.mark.parametrize("command, args, message", [
    ("solve", ["--set", "grid.n=abc"], "bad value 'abc' for grid.n"),
    ("ldp", ["--set", "ldp.trials=x"], "bad value 'x' for ldp.trials"),
    ("verify", ["--criteria", "11"], "unknown criterion 11"),
    ("verify", ["--criteria", "1,x"], "bad criterion list '1,x'"),
])
def test_bad_value_exit_2(tmp_path, capsys, command, args, message):
    assert run([command, "--out", str(tmp_path / "o")] + args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"config error: {message}"


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


@pytest.mark.parametrize("check, keys, csv_header", [
    ("slepian", ["e_high", "e_low", "passed", "stderr"], None),
    ("supeta", TAIL_KEYS, "A,p_hat,wilson_lo,wilson_hi"),
    ("expeta", TAIL_KEYS, "A,p_hat,wilson_lo,wilson_hi"),
    ("quasinorm", TAIL_KEYS, "A,p_hat,wilson_lo,wilson_hi"),
    ("btis", ["passed", "sigma2"], "u,p_hat,bound"),
])
def test_ldp_small_checks(tmp_path, check, keys, csv_header):
    out = str(tmp_path / check)
    assert run(["ldp", "--check", check, "--out", out] + SMALL_LDP) == cli.EXIT_PASS
    rep = json.loads(Path(f"{out}.{check}.json").read_text())
    assert sorted(rep) == keys
    if csv_header is not None:
        assert Path(f"{out}.{check}.csv").read_text().splitlines()[0] == csv_header
