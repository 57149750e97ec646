"""Config schema, LSEF1 field files, run orchestration, and the CLI surface."""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lse.energy import Harmonic, Shifted, Tabulated
from lse.grid import Field, make_grid
from lse.io_cli import (
    ConfigError,
    FieldFormatError,
    build_potential,
    main,
    parse_config,
    read_field,
    run,
    write_field,
)
from lse.solver import ContinuationSchedule

from conftest import random_field

SRC = Path(__file__).resolve().parents[1] / "src"


def config_text(output_dir="out", **overrides) -> str:
    base = {
        "dim": 1,
        "half_width": 8.0,
        "points": 126,
        "potential": "harmonic:2.0",
        "p": 1.5,
        "lambda_start": 1.0,
        "lambda_ratio": 0.1,
        "lambda_min": 1e-4,
        "tol_grad": 1e-6,
        "max_outer": 500,
        "k_solutions": 1,
        "rng_seed": 42,
        "output_dir": output_dir,
        "emit": "fields,diagnostics,checks,plotdata",
    }
    base.update(overrides)
    return "".join(f"{key}={value}\n" for key, value in base.items())


class TestParseConfig:
    def test_happy_path(self):
        spec = parse_config(config_text())
        assert spec.dim == 1
        assert spec.half_width == 8.0
        assert spec.points == 126
        assert spec.potential == "harmonic:2.0"
        assert spec.p == 1.5
        assert spec.lambda_start == 1.0
        assert spec.lambda_ratio == 0.1
        assert spec.lambda_min == 1e-4
        assert spec.tol_grad == 1e-6
        assert spec.max_outer == 500
        assert spec.k_solutions == 1
        assert spec.rng_seed == 42
        assert spec.output_dir == "out"
        assert spec.emit == frozenset({"fields", "diagnostics", "checks", "plotdata"})

    def test_comments_and_whitespace(self):
        text = "# full line comment\n\n" + config_text().replace(
            "p=1.5", "  p = 1.5   # trailing note"
        )
        assert parse_config(text).p == 1.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'colour'"):
            parse_config(config_text() + "colour=blue\n")

    def test_missing_key(self):
        text = "\n".join(
            line for line in config_text().splitlines() if not line.startswith("rng_seed")
        )
        with pytest.raises(ConfigError, match="missing required key.*rng_seed"):
            parse_config(text)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'dim'"):
            parse_config(config_text() + "dim=2\n")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config(config_text() + "just some words\n")

    @pytest.mark.parametrize("p", ["2.0", "1.0", "0.5", "2.5"])
    def test_p_outside_open_interval(self, p):
        with pytest.raises(ConfigError, match=r"'p'.*open interval \(1, 2\)"):
            parse_config(config_text(p=p))

    def test_ratio_one_never_terminates(self):
        with pytest.raises(ConfigError, match="never terminates"):
            parse_config(config_text(lambda_ratio="1.0"))

    def test_lambda_min_above_start(self):
        with pytest.raises(ConfigError, match="lambda_min"):
            parse_config(config_text(lambda_start="0.5", lambda_min="0.9"))

    def test_overlong_schedule(self):
        # about 6.9e9 stages: rejected once the count passes the limit
        with pytest.raises(ConfigError, match="lambda_ratio.*stages"):
            parse_config(config_text(lambda_ratio="0.9999999", lambda_min="1e-300"))

    def test_schedule_one_stage_past_the_limit(self, tmp_path, capsys):
        # 101 stages, though 1 + floor(log(min / start) / log(ratio)) is 100
        cfg = tmp_path / "long.cfg"
        cfg.write_text(config_text(
            lambda_start="0.6709537902789366", lambda_ratio="0.13291616045806876",
            lambda_min="1.5292248459726906e-88",
        ))
        assert main(["solve", str(cfg), "--quiet"]) == 1
        line = last_stderr_line(capsys)
        assert line.startswith("FAIL config ") and "'lambda_ratio'" in line and "stages" in line

    def test_schedule_of_exactly_the_stage_limit(self):
        spec = parse_config(config_text(lambda_ratio="0.5", lambda_min=repr(0.5**99)))
        sched = ContinuationSchedule(spec.lambda_start, spec.lambda_ratio, spec.lambda_min)
        assert len(sched.lambdas()) == 100

    @pytest.mark.parametrize(
        "key,value",
        [
            ("half_width", "0"), ("half_width", "-1"), ("points", "2"), ("lambda_start", "0"),
            ("lambda_start", "1.5"), ("lambda_min", "0"), ("tol_grad", "0"), ("max_outer", "0"),
            ("k_solutions", "0"), ("rng_seed", "-1"),
        ],
    )
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(config_text(**{key: value}))

    def test_bad_emit_token(self):
        with pytest.raises(ConfigError, match="unknown target 'movies'"):
            parse_config(config_text(emit="fields,movies"))

    def test_empty_emit_allowed(self):
        assert parse_config(config_text(emit="")).emit == frozenset()

    def test_dim_choices(self):
        with pytest.raises(ConfigError, match="'dim'"):
            parse_config(config_text(dim=4))

    def test_nonfinite_float(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(config_text(half_width="inf"))

    @pytest.mark.parametrize(
        "desc",
        [
            "nonsense:1.0", "harmonic", "harmonic:-2.0", "shifted:harmonic:2.0", "tabulated",
            "harmonic:-2", "quartic:nan", "shifted:harmonic:2.0:inf", "harmonic:abc",
        ],
    )
    def test_bad_potential_descriptors(self, desc):
        with pytest.raises(ConfigError, match="'potential'"):
            parse_config(config_text(potential=desc))
        with pytest.raises(ConfigError, match="'potential'"):
            build_potential(desc)

    def test_shifted_descriptor_recurses(self):
        spec = parse_config(config_text(potential="shifted:harmonic:2.0:+1.0"))
        pot = build_potential(spec.potential)
        assert isinstance(pot, Shifted)
        assert isinstance(pot.base, Harmonic)
        assert pot.shift == 1.0

    def test_doubly_shifted_descriptor(self):
        pot = build_potential(
            parse_config(config_text(potential="shifted:shifted:quartic:1.0:2.0:-0.5")).potential
        )
        assert isinstance(pot, Shifted)
        assert pot.shift == -0.5
        assert isinstance(pot.base, Shifted)

    def test_tabulated_descriptor(self):
        pot = build_potential(parse_config(config_text(potential="tabulated:/some/file")).potential)
        assert isinstance(pot, Tabulated)
        assert pot.path == "/some/file"


class TestFieldFiles:
    @pytest.mark.parametrize("dim,points", [(1, 32), (2, 9)])
    def test_round_trip_bit_exact(self, tmp_path, dim, points):
        g = make_grid(dim, 3.0, points)
        u = random_field(g, np.random.default_rng(5))
        path = str(tmp_path / "u.lsef")
        write_field(path, g, u)
        g2, u2 = read_field(path)
        assert g2 == g
        assert u2.values.tobytes() == u.values.tobytes()

    def test_writes_are_byte_deterministic(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        u = random_field(g, np.random.default_rng(6))
        a, b = str(tmp_path / "a.lsef"), str(tmp_path / "b.lsef")
        write_field(a, g, u)
        write_field(b, g, u)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_no_temp_file_left_behind(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        write_field(str(tmp_path / "u.lsef"), g, random_field(g, np.random.default_rng(7)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.lsef"]

    def test_grid_mismatch_on_write(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        other = make_grid(1, 3.0, 17)
        u = random_field(other, np.random.default_rng(8))
        with pytest.raises(FieldFormatError, match="mismatch"):
            write_field(str(tmp_path / "u.lsef"), g, u)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lsef"
        path.write_bytes(b"LSEF2\n1 16 3.0\n" + b"\x00" * 128)
        with pytest.raises(FieldFormatError, match="bad magic"):
            read_field(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.lsef"
        path.write_bytes(b"LSEF1\n1 16\n" + b"\x00" * 128)
        with pytest.raises(FieldFormatError, match="malformed header"):
            read_field(str(path))

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "bad.lsef"
        path.write_bytes(b"LSEF1\none 16 3.0\n" + b"\x00" * 128)
        with pytest.raises(FieldFormatError, match="malformed header"):
            read_field(str(path))

    def test_unsupported_dimension(self, tmp_path):
        path = tmp_path / "bad.lsef"
        path.write_bytes(b"LSEF1\n7 16 3.0\n" + b"\x00" * 128)
        with pytest.raises(FieldFormatError, match="dimension mismatch"):
            read_field(str(path))

    def test_truncated_payload(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        path = tmp_path / "u.lsef"
        write_field(str(path), g, random_field(g, np.random.default_rng(9)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FieldFormatError, match="truncated"):
            read_field(str(path))

    def test_trailing_data(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        path = tmp_path / "u.lsef"
        write_field(str(path), g, random_field(g, np.random.default_rng(10)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FieldFormatError, match="trailing"):
            read_field(str(path))


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One full solve through the CLI, shared by the artifact tests."""
    root = tmp_path_factory.mktemp("clirun")
    out = root / "out"
    cfg = root / "run.cfg"
    cfg.write_text(config_text(output_dir=str(out)))
    rc = main(["solve", str(cfg), "--quiet"])
    assert rc == 0
    return {"cfg": cfg, "out": out}


def test_a_tabulated_potential_solves_to_the_analytic_artifacts(tmp_path):
    # V = 2|x|^2 read lazily from a field file, and folded into sectors, gives
    # the bytes of the analytic harmonic:2.0 run
    g = make_grid(2, 6.0, 24)
    path = tmp_path / "v.lsef"
    write_field(str(path), g, Harmonic(2.0).evaluate(g))
    outs = []
    for potential in ("harmonic:2.0", f"tabulated:{path}"):
        out = tmp_path / f"out{len(outs)}"
        cfg = tmp_path / f"run{len(outs)}.cfg"
        cfg.write_text(config_text(output_dir=str(out), dim=2, half_width=6.0, points=24, k_solutions=2, potential=potential))
        assert main(["solve", str(cfg), "--quiet"]) == 0
        outs.append(out)
    for name in ("u_1.lsef", "u_2.lsef", "diagnostics.csv", "checks.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def last_stderr_line(capsys) -> str:
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert err, "expected stderr output"
    return err[-1]


class TestRun:
    def test_artifacts_exist(self, cli_run):
        names = sorted(p.name for p in cli_run["out"].iterdir())
        assert names == ["checks.csv", "diagnostics.csv", "energy_vs_lambda.dat", "u_1.lsef"]

    def test_diagnostics_schema(self, cli_run):
        lines = (cli_run["out"] / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "j,lambda,energy,resid_precond,resid_raw,iters,mass,lambda_w1p_p,linf"
        assert len(lines) > 2  # one row per accepted continuation stage
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 1.0  # schedule starts at lambda_start
        last = lines[-1].split(",")
        assert float(last[1]) == 0.0  # and ends at the limit problem

    def test_checks_schema_and_gates(self, cli_run):
        lines = (cli_run["out"] / "checks.csv").read_text().splitlines()
        assert lines[0] == "j,check_name,margin,tolerance,pass"
        rows = [line.split(",") for line in lines[1:]]
        names = [row[1] for row in rows]
        assert names == ["nehari", "energy_identity", "scaling", "log_sobolev", "linf", "gradient_fd"]
        by_name = {row[1]: row for row in rows}
        for gate in ("nehari", "energy_identity", "linf"):
            assert by_name[gate][4] == "1"

    def test_plotdata_blocks(self, cli_run):
        lines = (cli_run["out"] / "energy_vs_lambda.dat").read_text().splitlines()
        assert lines[0] == "# solution 1"
        lam, energy = lines[1].split()
        assert float(lam) == 1.0
        assert float(energy) > 0.0

    def test_field_reads_back(self, cli_run):
        g, u = read_field(str(cli_run["out"] / "u_1.lsef"))
        assert g.points_per_dim == 126
        assert float(np.abs(u.values).max()) > 1.0  # nontrivial solution

    def test_byte_determinism_across_runs(self, cli_run, tmp_path):
        outa, outb = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(cli_run["cfg"]), "--output-dir", str(outa), "--quiet"]) == 0
        assert main(["solve", str(cli_run["cfg"]), "--output-dir", str(outb), "--quiet"]) == 0
        for name in ("u_1.lsef", "diagnostics.csv", "checks.csv", "energy_vs_lambda.dat"):
            assert (outa / name).read_bytes() == (outb / name).read_bytes(), name

    def test_gradient_check_runs_once_per_run(self, tmp_path, monkeypatch):
        # the check depends on the grid, V, p and rng_seed, not on a solution
        import lse.io_cli as mod

        calls = []
        check = mod.check_gradient_fd

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(mod, "check_gradient_fd", counted)
        out = tmp_path / "k2"
        assert run(parse_config(config_text(output_dir=str(out), k_solutions=2)), quiet=True) == 0
        assert len(calls) == 1
        rows = [line.split(",") for line in (out / "checks.csv").read_text().splitlines()[1:]]
        fd_rows = [row[1:] for row in rows if row[1] == "gradient_fd"]
        assert len(fd_rows) == 2 and fd_rows[0] == fd_rows[1]

    def test_emit_gating(self, tmp_path):
        out = tmp_path / "sparse"
        spec = parse_config(config_text(output_dir=str(out), emit="diagnostics"))
        assert run(spec, quiet=True) == 0
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv"]

    def test_fail_solve_on_iteration_budget(self, tmp_path, capsys):
        spec = parse_config(config_text(output_dir=str(tmp_path / "o"), max_outer=2))
        assert run(spec, quiet=True) == 1
        assert last_stderr_line(capsys).startswith("FAIL solve ")

    def test_fail_solve_on_shortfall(self, tmp_path, capsys, monkeypatch):
        import lse.io_cli as mod

        monkeypatch.setattr(mod, "find_k_solutions", lambda *a, **k: [])
        spec = parse_config(config_text(output_dir=str(tmp_path / "o")))
        assert run(spec, quiet=True) == 1
        assert last_stderr_line(capsys) == "FAIL solve found 0 of 1 requested solutions"

    def test_fail_config_on_bad_potential_values(self, tmp_path, capsys):
        # odd point count puts a lattice site at the origin where V vanishes
        spec = parse_config(config_text(output_dir=str(tmp_path / "o"), points=31))
        assert run(spec, quiet=True) == 1
        line = last_stderr_line(capsys)
        assert line.startswith("FAIL config potential not positive on the grid: min V = 0.0 ")
        assert "puts the origin on the grid" in line

    @pytest.mark.parametrize(
        "overrides",
        [{"potential": "shifted:harmonic:2.0:-0.5"}, {"half_width": "1e-300"}],
        ids=["negative", "underflow"],
    )
    def test_no_origin_hint_without_a_point_at_the_origin(self, tmp_path, capsys, overrides):
        spec = parse_config(config_text(output_dir=str(tmp_path / "o"), points=32, **overrides))
        assert run(spec, quiet=True) == 1
        line = last_stderr_line(capsys)
        assert line.startswith("FAIL config potential not positive on the grid: min V = ")
        assert "origin" not in line

    @pytest.mark.parametrize("potential, half_width", [("harmonic:2.0", "1e300"), ("quartic:1.0", "1e200")])
    def test_fail_config_on_a_potential_not_finite_on_the_grid(self, tmp_path, capsys, potential, half_width):
        spec = parse_config(config_text(output_dir=str(tmp_path / "o"), potential=potential, half_width=half_width))
        assert run(spec, quiet=True) == 1
        assert last_stderr_line(capsys).startswith("FAIL config potential not finite on the grid ")

    @pytest.mark.parametrize("potential, half_width", [("harmonic:2.0", "1e300"), ("quartic:1.0", "1e200")])
    def test_a_potential_not_finite_on_the_grid_prints_only_its_fail_line(self, tmp_path, potential, half_width):
        # the ``lse`` entry point in a fresh interpreter, under numpy's
        # default error state: the overflow is the FAIL line's, not a warning
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(output_dir=str(tmp_path / "o"), points=32, potential=potential, half_width=half_width))
        code = "import sys; from lse.io_cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "solve", str(cfg)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert re.fullmatch(r"FAIL config potential not finite on the grid \(1d n=32 L=1e\+[23]00\)\n", proc.stderr), proc.stderr

    def test_fail_config_keeps_the_tabulated_grid_mismatch(self, tmp_path, capsys):
        path = tmp_path / "v.lsef"
        g = make_grid(1, 8.0, 64)
        write_field(str(path), g, Field(grid=g, values=1.0 + g.radius_squared().reshape(-1)))
        spec = parse_config(config_text(output_dir=str(tmp_path / "o"), potential=f"tabulated:{path}"))
        assert run(spec, quiet=True) == 1
        assert last_stderr_line(capsys).startswith("FAIL config grid mismatch: tabulated potential sampled on ")

    @pytest.mark.parametrize("points, dim", [(97, 1), (195, 1), (9, 2), (5, 3)])
    def test_odd_points_put_the_origin_exactly_on_the_grid(self, tmp_path, capsys, points, dim):
        # 97 and 195 used to place the middle point at 1e-16 and pass
        spec = parse_config(config_text(output_dir=str(tmp_path / "o"), points=points, dim=dim))
        assert run(spec, quiet=True) == 1
        assert last_stderr_line(capsys).startswith("FAIL config ")

    def test_fail_io_on_unusable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        spec = parse_config(config_text(output_dir=str(blocker / "sub")))
        assert run(spec, quiet=True) == 1
        assert last_stderr_line(capsys).startswith("FAIL io ")


class TestMain:
    def test_info_prints_header(self, cli_run, capsys):
        assert main(["info", str(cli_run["out"] / "u_1.lsef")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "dim=1" in out
        assert "points=126" in out
        assert any(line.startswith("half_width=8.0") for line in out)
        assert "values=126" in out

    def test_info_on_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.lsef")]) == 1
        assert last_stderr_line(capsys).startswith("FAIL io ")

    def test_verify_own_artifact(self, cli_run, capsys):
        rc = main(["verify", str(cli_run["out"] / "u_1.lsef"), str(cli_run["cfg"])])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "check_name,margin,tolerance,pass"
        assert len(out) == 7
        rows = (cli_run["out"] / "checks.csv").read_text().splitlines()[1:]
        assert out[1:] == [row.split(",", 1)[1] for row in rows]

    def test_verify_grid_mismatch(self, cli_run, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text(config_text(points=62))
        rc = main(["verify", str(cli_run["out"] / "u_1.lsef"), str(other), "--quiet"])
        assert rc == 1
        line = last_stderr_line(capsys)
        assert line.startswith("FAIL config ")
        assert "grid mismatch" in line

    def test_verify_gate_failure_on_foreign_field(self, cli_run, tmp_path, capsys):
        g = make_grid(1, 8.0, 126)
        vals = np.zeros(g.npoints)
        vals[10] = 2.0e3  # violates the amplitude cap
        path = tmp_path / "spike.lsef"
        write_field(str(path), g, Field(grid=g, values=vals))
        rc = main(["verify", str(path), str(cli_run["cfg"]), "--quiet"])
        assert rc == 1
        assert last_stderr_line(capsys).startswith("FAIL verify ")

    def test_verify_zero_field_reports_verify_stage(self, cli_run, tmp_path, capsys):
        g = make_grid(1, 8.0, 126)
        path = tmp_path / "zero.lsef"
        write_field(str(path), g, Field(grid=g, values=np.zeros(g.npoints)))
        rc = main(["verify", str(path), str(cli_run["cfg"]), "--quiet"])
        assert rc == 1
        assert last_stderr_line(capsys).startswith("FAIL verify ")

    def test_solve_quiet_suppresses_summary(self, cli_run, tmp_path, capsys):
        rc = main(["solve", str(cli_run["cfg"]), "--output-dir", str(tmp_path / "q"), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_solve_summary_line(self, cli_run, tmp_path, capsys):
        rc = main(["solve", str(cli_run["cfg"]), "--output-dir", str(tmp_path / "loud")])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("solution 1: energy=") and "checks=pass" in line for line in out)

    def test_solve_missing_config(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.cfg")]) == 1
        assert last_stderr_line(capsys).startswith("FAIL io ")
