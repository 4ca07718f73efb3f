import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfgnet as mn
from mfgnet.cli import emit_config, main, parse_config, run
from mfgnet.errors import ParseError, ValidationError

from conftest import assert_json_equal, bundled_text


DESK_FAST = {
    "version": 1,
    "network": {
        "vertices": [{"id": 0, "position": [0.0, 0.0]}, {"id": 1, "position": [1.0, 0.0]}],
        "edges": [{"id": 0, "tail": 0, "head": 1, "length": 1.0}],
        "exit_vertex": 0,
    },
    "problem": {
        "t0": 0.5, "t_max": 4.0, "theta": 0.5,
        "cost": {"c1": 0.1, "c2": 0.0, "c3": 0.1},
        "m0": {"kind": "hat", "center": [0.5, 0.0], "width": 0.5},
    },
    "numerics": {"h_target": 0.05, "tol": 1e-4},
    "run": {"mode": "solve", "seed": 7, "agents": 3000, "dt_mc": 2e-3},
}


def fast_config(tmp_path, **run_overrides):
    doc = json.loads(json.dumps(DESK_FAST))
    doc["run"]["out_dir"] = str(tmp_path / "out")
    doc["run"].update(run_overrides)
    return doc


class TestParse:
    def test_bundled_example1(self):
        cfg = parse_config(bundled_text("example1.json"))
        assert cfg.spec.topology.n_vertices == 4
        assert cfg.spec.theta == 0.5
        assert cfg.spec.cost.t0 == 0.5
        assert cfg.spec.cost.t_max == 10.0
        assert cfg.geometry_label == "approximated-from-figure"

    def test_bundled_example2(self):
        cfg = parse_config(bundled_text("example2.json"))
        assert cfg.spec.topology.n_vertices == 17
        assert cfg.spec.topology.n_edges == 22
        assert cfg.spec.theta == 0.7
        assert cfg.spec.cost.t_max == 25.0

    def test_bundled_desk(self):
        cfg = parse_config(bundled_text("desk.json"))
        assert cfg.mode == "oracle"
        assert cfg.agents == 100_000

    def test_invalid_theta_names_field(self):
        doc = json.loads(bundled_text("example1.json"))
        doc["problem"]["theta"] = 1.2
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.field == "theta"

    def test_unknown_key_rejected(self):
        doc = json.loads(bundled_text("example1.json"))
        doc["problem"]["surprise"] = 1
        with pytest.raises(ValidationError, match="surprise"):
            parse_config(json.dumps(doc))

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(bundled_text("example1.json"))
        doc["extra_section"] = {}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_malformed_json_positions_error(self):
        with pytest.raises(ParseError, match=r"line \d+, column \d+"):
            parse_config("{\n  \"version\": 1,,\n}")

    def test_bad_network_becomes_validation_error(self):
        doc = json.loads(bundled_text("example1.json"))
        doc["network"]["edges"][0]["head"] = 0  # self loop at the exit
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.field == "network"

    def test_bad_mode_rejected(self, tmp_path):
        doc = fast_config(tmp_path, mode="dance")
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.field == "run.mode"

    def test_round_trip(self):
        for name in ("example1.json", "example2.json", "desk.json"):
            cfg = parse_config(bundled_text(name))
            emitted = emit_config(cfg)
            again = parse_config(json.dumps(emitted))
            assert_json_equal(emitted, emit_config(again))

    def test_tabulated_density_parses(self, tmp_path):
        doc = fast_config(tmp_path)
        doc["problem"]["m0"] = {"kind": "tabulated", "edges": [
            {"edge": 0, "arclength": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]}]}
        cfg = parse_config(json.dumps(doc))
        assert isinstance(cfg.spec.m0, mn.TabulatedDensity)


class TestRunSolve:
    def test_artifacts_written(self, tmp_path):
        cfg = parse_config(json.dumps(fast_config(tmp_path)))
        code = run(cfg, quiet=True)
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["t_star"] == pytest.approx(0.5)  # quorum met before schedule
        assert (out / "f_series.csv").exists()
        assert (out / "iterates.csv").exists()
        assert (out / "m0.csv").exists()
        assert (out / "m_final.csv").exists()
        assert (out / "u_final.csv").exists()
        f_lines = (out / "f_series.csv").read_text().strip().splitlines()
        assert f_lines[0] == "t,F"
        assert len(f_lines) == summary["n_time_steps"] + 2

    def test_snapshot_emission(self, tmp_path):
        cfg = parse_config(json.dumps(fast_config(tmp_path, snapshots=400)))
        assert run(cfg, quiet=True) == 0
        snapdir = tmp_path / "out" / "snapshots"
        assert snapdir.is_dir()
        assert len(list(snapdir.glob("m_*.csv"))) >= 2
        assert len(list(snapdir.glob("u_*.csv"))) >= 2

    def test_error_json_on_validation_failure(self, tmp_path, capsys):
        doc = fast_config(tmp_path)
        doc["numerics"]["h_target"] = 1.5  # coarser than the only edge
        cfg = parse_config(json.dumps(doc))
        code = run(cfg, quiet=True)
        assert code == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"]["type"] == "StepTooCoarse"


class TestRunOracle:
    def test_comparison_artifacts(self, tmp_path):
        cfg = parse_config(json.dumps(fast_config(tmp_path, mode="oracle")))
        code = run(cfg, quiet=True)
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        oracle = summary["oracle"]
        assert oracle["agents"] == 3000
        assert oracle["sup_distance"] < 0.1
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "t,f_pde,f_mc,band_lo,band_hi"
        assert len(lines) == summary["n_time_steps"] + 2


def test_non_convergence_exit_code(tmp_path):
    doc = fast_config(tmp_path)
    doc["numerics"]["max_iters"] = 1
    doc["numerics"]["t_init"] = 4.0  # far from the t0-clamped equilibrium
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, quiet=True) == 4
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["notes"]


def test_default_ladder_matches_reported_steps():
    from mfgnet.cli import DEFAULT_H_LADDER
    assert DEFAULT_H_LADDER == (0.1, 0.05, 0.025, 0.0125)


class TestRunRefineStudy:
    def test_table_rows(self, tmp_path):
        doc = fast_config(tmp_path, mode="refine-study")
        doc["numerics"]["h_ladder"] = [0.2, 0.1]
        cfg = parse_config(json.dumps(doc))
        assert run(cfg, quiet=True) == 0
        out = tmp_path / "out"
        lines = (out / "refine_study.csv").read_text().strip().splitlines()
        assert lines[0] == "h,E_h,T,iterations"
        assert len(lines) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert [row["h"] for row in summary["refine_study"]] == [0.2, 0.1]


class TestCliEntry:
    def test_help_runs(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent.json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigUnreadable"

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 2}')
        assert main(["--config", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"

    def test_flag_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(tmp_path)))
        out2 = tmp_path / "other"
        code = main(["--config", str(p), "--out", str(out2), "--h", "0.1",
                     "--tol", "1e-3", "--seed", "9", "--quiet"])
        assert code == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["h_target"] == 0.1
        assert summary["tolerance"] == 1e-3
        assert summary["seed"] == 9

    def test_subprocess_entry_point(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(tmp_path)))
        # the child imports the same package this test imported
        path = [str(Path(mn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "mfgnet", "--config", str(p), "--quiet"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("field, value, flags", [
        (None, None, ["--h", "nan"]),
        (None, None, ["--tol", "nan"]),
        ("problem.t_max", float("inf"), []),
        ("numerics.h_ladder", [0.1, float("nan")], ["--mode", "refine-study"]),
        ("run.dt_mc", -1, ["--mode", "oracle"]),
        ("run.dt_mc", float("nan"), ["--mode", "oracle"]),
        ("problem.cost.c1", float("nan"), []),
    ], ids=["h_nan", "tol_nan", "t_max_inf", "h_ladder_nan", "dt_mc_negative",
            "dt_mc_nan", "c1_nan"])
    def test_nonfinite_and_out_of_range_rejected_before_solving(
            self, tmp_path, capsys, field, value, flags):
        doc = fast_config(tmp_path)
        if field is not None:
            *sections, key = field.split(".")
            target = doc
            for name in sections:
                target = target[name]
            target[key] = value  # json.dumps writes NaN and Infinity literals
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--quiet", *flags]) == 2
        assert "error" in json.loads(capsys.readouterr().err)
        assert not (tmp_path / "out" / "f_series.csv").exists()

    def test_negative_tol_flag_exit_code(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(tmp_path)))
        assert main(["--config", str(p), "--tol", "-1", "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["field"] == "tol"

    def test_negative_snapshots_rejected(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(tmp_path)))
        assert main(["--config", str(p), "--snapshots", "-3", "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["field"] == "snapshots"
        p.write_text(json.dumps(fast_config(tmp_path, snapshots=-3)))
        assert main(["--config", str(p), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["field"] == "run.snapshots"


class TestDeterminism:
    def test_oracle_summaries_byte_identical(self, tmp_path):
        doc = fast_config(tmp_path, mode="oracle")
        for out in ("a", "b"):
            doc["run"]["out_dir"] = str(tmp_path / out)
            assert run(parse_config(json.dumps(doc)), quiet=True) == 0
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b
