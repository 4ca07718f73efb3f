import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mfgnet as mn
from mfgnet import cli
from mfgnet.cli import (
    _CSV_BLOCK_ROWS,
    _Table,
    _run_starts,
    _write_tables,
    main,
    parse_config,
    run,
)
from mfgnet.errors import ParseError, ValidationError

from conftest import bundled_text, edge_rows, edge_slots


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


DELETE = object()  # a parametrized value that removes the key


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

    @pytest.mark.parametrize("field, value", [
        ("version", 1.0), ("network.exit_vertex", 0.0), ("run.seed", 7.0),
        ("numerics.max_iters", 50.0)])
    def test_whole_floats_parse_as_integers(self, tmp_path, field, value):
        def integers(cfg):
            return (cfg.seed, cfg.spec.max_iters, cfg.spec.topology.exit_vertex)

        doc = fast_config(tmp_path)
        expected = integers(parse_config(json.dumps(doc)))
        *sections, key = field.split(".")
        target = doc
        for name in sections:
            target = target[name]
        target[key] = value
        got = integers(parse_config(json.dumps(doc)))
        assert got == expected
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("sections, key, value, message", [
        ((), "network", "x", "$.network: expected an object, got a string"),
        (("network",), "vertices", {}, "network.vertices: expected an array, got an object"),
        (("problem", "m0"), "kind", 3, "problem.m0.kind: expected a string, got a number"),
        (("network",), "geometry", {"a": 1}, "network.geometry: expected a string, got an object"),
    ], ids=["object", "array", "string", "geometry"])
    def test_wrong_container_names_json_types(self, tmp_path, sections, key, value, message):
        """A value of the wrong JSON type where an object, an array or a
        string belongs: the error names both types as JSON does."""
        doc = fast_config(tmp_path)
        target = doc
        for name in sections:
            target = target[name]
        target[key] = value
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.field == message.split(":")[0]
        assert str(err.value) == message

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
        # level 0's m is formatted once, and written under both names
        m0 = (tmp_path / "out" / "m0.csv").read_bytes()
        assert m0 == (snapdir / "m_00000000.csv").read_bytes()

    def test_written_fields_do_not_depend_on_snapshots(self, tmp_path):
        """example1 at h 0.05 writes m0, m_final and u_final with the same
        bytes without snapshots, with a few and with more than a hundred."""
        p = tmp_path / "cfg.json"
        p.write_text(bundled_text("example1.json"))
        written = []
        for flags in ([], ["--snapshots", "5000"], ["--snapshots", "100"]):
            out = tmp_path / f"out{len(written)}"
            assert main(["--config", str(p), "--h", "0.05", "--out", str(out), "--quiet",
                         *flags]) == 0
            written.append({name: (out / name).read_bytes()
                            for name in ("m0.csv", "m_final.csv", "u_final.csv")})
        assert written[0] == written[1] == written[2]

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


def _small_desk(out_dir, mode):
    """The bundled desk downsized as in acceptance criterion 9."""
    doc = json.loads(bundled_text("desk.json"))
    doc["numerics"]["h_target"] = 0.05
    doc["problem"]["t_max"] = 4.0
    doc["run"].update(agents=5000, mode=mode, out_dir=str(out_dir))
    return parse_config(json.dumps(doc))


@pytest.fixture(scope="module")
def small_desk_oracle(tmp_path_factory):
    """The downsized desk in oracle mode, with the levels of its fields and
    the value functions it forms counted."""
    import mfgnet.mfg

    out = tmp_path_factory.mktemp("small_desk_oracle")
    levels, formed = [], []
    map_fields, value = mfgnet.mfg.map_fields, mfgnet.mfg._value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mfgnet.mfg, "map_fields", lambda res, problem, asked, *on_phi: levels.extend(
            sorted(set(asked))) or map_fields(res, problem, asked, *on_phi))
        mp.setattr(mfgnet.mfg, "_value", lambda phi: formed.append(phi) or value(phi))
        assert run(_small_desk(out, "oracle"), quiet=True) == 0
    return out, (levels, len(formed))


class TestOracleFields:
    def test_solve_outputs_byte_identical(self, small_desk_oracle, tmp_path):
        """The particles' read levels do not touch the written fields."""
        oracle, _ = small_desk_oracle
        assert run(_small_desk(tmp_path, "solve"), quiet=True) == 0
        for name in ("u_final.csv", "m_final.csv", "f_series.csv", "m0.csv"):
            assert (oracle / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_um_only_at_start_and_equilibrium(self, small_desk_oracle):
        """The oracle reads phi alone: psi, u and m are formed at level 0 and
        the equilibrium level only."""
        oracle, (levels, formed) = small_desk_oracle
        summary = json.loads((oracle / "summary.json").read_text())
        assert levels == [0, summary["equilibrium_level"]]
        assert formed == 2

    def test_lanczos_oracle_evaluates_phi_at_every_read_level_in_one_call(
            self, tmp_path, monkeypatch):
        """On a LanczosStep grid (the downsized desk, with ``modal_pays``
        patched to refuse its eigh) the particles' drift is held at every
        level they read, from one ``phi_levels`` call after the fields'."""
        import mfgnet.mfg
        from mfgnet.lanczos import LanczosStep

        calls, phi_levels = [], LanczosStep.phi_levels
        monkeypatch.setattr(mfgnet.mfg, "modal_pays", lambda grid, time_grid: False)
        monkeypatch.setattr(LanczosStep, "phi_levels", lambda step, exit_series, levels: (
            calls.append(list(levels)) or phi_levels(step, exit_series, levels)))
        config = _small_desk(tmp_path, "oracle")
        assert run(config, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        dt, last = summary["dt"], summary["n_time_steps"]
        t_max, dt_mc = config.spec.cost.t_max, config.dt_mc
        read = sorted({min(int(k * dt_mc / dt), last) for k in range(math.ceil(t_max / dt_mc))})
        assert calls == [[0, summary["equilibrium_level"]], read]
        assert summary["oracle"]["sup_distance"] < 0.02


class TestWriteCsv:
    """Each row is ``",".join(map(repr, row))``, whether a column's values
    are formatted once per run or each on its own, across blocks."""

    def columns(self):
        n = 2 * _CSV_BLOCK_ROWS + 5  # three blocks of rows
        rng = np.random.default_rng(8)
        few = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, 1 / 3, 5e-324])
        lengths = rng.multinomial(n - 40, np.full(40, 1 / 40)) + 1
        runs = np.repeat(few[rng.integers(0, len(few), 40)], lengths)
        int_runs = np.repeat(rng.integers(-3, 4, 40), lengths)
        scattered = few[rng.integers(0, len(few), n)]
        distinct = rng.random(n)
        distinct[:5] = [-0.0, 0.0, np.nan, np.inf, 0.0]
        assert _run_starts(runs.view("u8")) is not None
        assert _run_starts(int_runs.view("u8")) is not None
        assert _run_starts(scattered.view("u8")) is None
        return runs, int_runs, scattered, distinct, np.arange(n)

    def test_rows_are_the_reprs(self, tmp_path):
        columns = self.columns()
        _write_tables([_Table(tmp_path / "a.csv", "a,b,c,d,e", columns)])
        rows = zip(*(c.tolist() for c in columns))
        expected = ["a,b,c,d,e", *(",".join(map(repr, row)) for row in rows)]
        assert (tmp_path / "a.csv").read_text() == "\n".join(expected) + "\n"

    def test_lead_file_begins_the_rows(self, tmp_path):
        columns = self.columns()
        _write_tables([_Table(tmp_path / "lead.csv", "a,b", columns[:2])])
        _write_tables([_Table(tmp_path / "joined.csv", "a,b,c,d,e", columns[2:],
                              lead=cli._line_blocks(tmp_path / "lead.csv"))])
        _write_tables([_Table(tmp_path / "whole.csv", "a,b,c,d,e", columns)])
        assert (tmp_path / "joined.csv").read_text() == (tmp_path / "whole.csv").read_text()

    @pytest.mark.parametrize("value, text", [(-0.0, "-0.0"), (np.nan, "nan")],
                             ids=["minus_zero", "nan"])
    def test_single_run_columns(self, tmp_path, value, text):
        """A value column that is one run, behind a lead (one replace per
        block) and beside another without one, over three blocks, writes
        the rows formed by hand."""
        n = 2 * _CSV_BLOCK_ROWS + 5
        lead = [f"{i},{i % 7}" for i in range(n)]
        (tmp_path / "lead.csv").write_text("i,j\n" + "\n".join(lead) + "\n")
        column = np.full(n, value)
        _write_tables([_Table(tmp_path / "a.csv", "i,j,v", (column,),
                              lead=cli._line_blocks(tmp_path / "lead.csv")),
                       _Table(tmp_path / "b.csv", "v,w", (column, np.arange(n)))])
        expected = "i,j,v\n" + "".join(f"{row},{text}\n" for row in lead)
        assert (tmp_path / "a.csv").read_bytes() == expected.encode()
        expected = "v,w\n" + "".join(f"{text},{i}\n" for i in range(n))
        assert (tmp_path / "b.csv").read_bytes() == expected.encode()


def test_field_csv_rows_match_edge_values(tmp_path, three_star):
    """Every byte of a field file equals a row-by-row loop over the edges
    and the values along each, whether the value column comes in runs or
    not, on a grid of more than two blocks of rows."""
    grid = mn.build_grid(three_star, 1.0 / _CSV_BLOCK_ROWS)
    assert sum(grid.n_cells + 1) > 2 * _CSV_BLOCK_ROWS
    rng = np.random.default_rng(3)
    in_runs = np.zeros(grid.n_flat)
    in_runs[three_star.n_vertices + 50: three_star.n_vertices + 90] = -0.0
    in_runs[three_star.n_vertices + 300: three_star.n_vertices + 320] = np.nan
    in_runs[three_star.n_vertices + 400:] = 1 / 3
    in_runs[1] = np.nan  # the centre vertex, in three edges' rows
    scattered = rng.random(grid.n_flat)
    scattered[rng.integers(0, grid.n_flat, 40)] = -0.0
    scattered[rng.integers(0, grid.n_flat, 40)] = np.nan
    layout = cli._field_layout(grid)
    pos = three_star.positions
    for data, runs in ((in_runs, True), (scattered, False)):
        column = data[layout[0]]
        assert (_run_starts(column.view("u8")) is not None) == runs
        field = mn.GridField(grid, data)
        cli._write_tables([cli._field_table(field, tmp_path / "field.csv", layout)])
        expected = ["edge_id,k,x_coord_1,x_coord_2,value"]
        for e in edge_rows(three_star):
            (ax, ay), (bx, by) = pos[e.tail].tolist(), pos[e.head].tolist()
            n = int(grid.n_cells[e.id])
            for k, v in enumerate(data[edge_slots(grid, e.id)].tolist()):
                x, y = ax + k / n * (bx - ax), ay + k / n * (by - ay)
                expected.append(f"{e.id},{k},{x!r},{y!r},{v!r}")
        assert (tmp_path / "field.csv").read_text() == "\n".join(expected) + "\n"


def _street_lattice(tmp_path, side=4):
    """A side x side street lattice of unit edges with a leaf of length 0.5
    to the exit, at h 0.1 and 1 200 steps, with snapshots every 400: its
    series has 1 201 rows, its field CSVs 270, more than one block each."""
    vertices = [{"id": i * side + j, "position": [float(j), float(i)]}
                for i in range(side) for j in range(side)]
    vertices.append({"id": side * side, "position": [-0.5, 0.0]})
    ends = [(i * side + j, i * side + j + 1) for i in range(side) for j in range(side - 1)]
    ends += [(i * side + j, (i + 1) * side + j) for i in range(side - 1) for j in range(side)]
    edges = [{"id": k, "tail": a, "head": b, "length": 1.0} for k, (a, b) in enumerate(ends)]
    edges.append({"id": len(edges), "tail": side * side, "head": 0, "length": 0.5})
    doc = json.loads(json.dumps(DESK_FAST))
    doc["network"] = {"vertices": vertices, "edges": edges, "exit_vertex": side * side}
    doc["problem"].update(t0=0.1, t_max=3.0, m0={"kind": "bumps", "centers": [[1.5, 1.5]],
                                                 "radii": [1.2]})
    doc["numerics"]["h_target"] = 0.1
    doc["run"].update(out_dir=str(tmp_path / "out"), snapshots=400)
    return parse_config(json.dumps(doc))


class ShareFailure(Exception):
    """Raised in one share of a CSV batch."""


class TestWriterShares:
    """``_write_tables`` cuts a batch's files into one share per usable CPU,
    a group of whole files, and forks a worker for each share after the
    first of at least _SHARE_VALUES values; here that size is patched
    small."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def count_forks(monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def test_artifacts_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch):
        """Every file of a small Lanczos solve with snapshots is the same
        bytes on 1, 2 and 3 CPUs. With a spare CPU, one worker evaluates
        psi's fields while the caller cuts the series and the u files into
        groups, then the m files once psi arrives: one group per CPU at
        most, each file written by one process, and each group's work lies
        within one file's of its share. The u files are nearly uniform (128
        reprs together, against the series' 2 402), so only a share of 50
        values cuts the series and u batch."""
        from mfgnet import heat, lanczos, workers

        monkeypatch.setattr(heat, "MODAL_COST_RATIO", 0.0)
        monkeypatch.setattr(lanczos, "KRYLOV_FIELD_RATIO", np.inf)
        monkeypatch.setattr(cli, "_SHARE_VALUES", 50)
        forks = self.count_forks(monkeypatch)
        shares, fields, run_forked = [], [], workers.run_forked
        beside = []  # the psi workers under way

        def recorded(local, tasks):
            if getattr(local, "func", None) is cli._write_group:  # a batch of CSV files
                shares.append(([job.args[0] for job in (local, *tasks)], bool(beside)))
                return run_forked(local, tasks)
            fields.append(len(tasks))
            beside.append(1)
            try:
                return run_forked(local, tasks)
            finally:
                beside.pop()

        monkeypatch.setattr(workers, "run_forked", recorded)
        combined, combine = [], lanczos._LanczosBasis.combine
        monkeypatch.setattr(lanczos._LanczosBasis, "combine",
                            lambda *a: combined.append(1) or combine(*a))
        written = []
        for n_cpus in (1, 2, 3):
            self.cpus(monkeypatch, n_cpus)
            for record in (forks, shares, fields):
                record.clear()
            out = tmp_path / f"cpus{n_cpus}"
            config = replace(_street_lattice(tmp_path), out_dir=str(out))
            assert run(config, quiet=True) == 0
            written.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                            if p.is_file()})
            assert fields == [1] * (n_cpus > 1)
            assert len(forks) == (n_cpus > 1) + sum(len(groups) - 1 for groups, _ in shares)
            # the series and u files beside psi's worker, then the m files
            assert [by_psi for _, by_psi in shares] == [True, False] * (n_cpus > 1)
            for (groups, _), names in zip(shares, ({"f", "i", "u"}, {"m"})):
                tables = [table for group in groups for table in group]
                assert len({table.path for table in tables}) == len(tables)
                assert {table.path.name[0] for table in tables} == names
                work = [sum(table.work for table in group) for group in groups]
                assert 1 < len(work) <= n_cpus
                for w in work:
                    assert abs(w - sum(work) / n_cpus) <= max(table.work for table in tables)
            if n_cpus > 1:
                assert len(shares[1][0]) == n_cpus  # the m batch
        # the series, the iterates, three fields and the summary, and m and u
        # at levels 0, 400, 800 and 1 200, the fields from the Lanczos bases
        assert len(written[0]) == 6 + 2 * 4 and combined
        assert written[0] == written[1] == written[2]

    def test_groups_balance_formatting_work(self, tmp_path, monkeypatch):
        """A column that comes in runs costs one repr per run, so a file of
        zeros weighs next to nothing when a batch is cut: on 2 CPUs it goes
        with one file of distinct values, and the other such file makes the
        second group."""
        from mfgnet import workers

        monkeypatch.setattr(cli, "_SHARE_VALUES", 500)
        self.cpus(monkeypatch, 2)
        shares, run_forked = [], workers.run_forked
        monkeypatch.setattr(workers, "run_forked", lambda local, tasks: shares.append(
            [job.args[0] for job in (local, *tasks)]) or run_forked(local, tasks))
        columns = [np.zeros(2000), np.arange(2000.0) / 7, np.arange(2000.0) / 3]
        tables = [cli._Table(tmp_path / f"{i}.csv", "x", (c,)) for i, c in enumerate(columns)]
        assert [table.work for table in tables] == [1, 2000, 2000]
        cli._write_tables(tables)
        assert len(shares) == 1
        assert [[table.path.name for table in share] for share in shares[0]] == [
            ["0.csv", "1.csv"], ["2.csv"]]
        assert (tmp_path / "0.csv").read_text() == "x\n" + "0.0\n" * 2000

    def test_failure_after_the_u_files_leaves_them(self, tmp_path, monkeypatch):
        """A run whose psi worker fails exits 3 with error.json, after the
        caller wrote the series and the u files: they stay, and no m file
        is written."""
        from mfgnet import heat, lanczos
        from mfgnet.errors import NumericalFailure

        monkeypatch.setattr(heat, "MODAL_COST_RATIO", 0.0)
        self.cpus(monkeypatch, 2)

        def failing(self, psi0, levels):
            raise NumericalFailure("psi failed")

        monkeypatch.setattr(lanczos.LanczosStep, "psi_levels", failing)
        config = _street_lattice(tmp_path)
        assert run(config, quiet=True) == 3
        out = Path(config.out_dir)
        names = {p.name for p in out.rglob("*.*")}
        assert {"f_series.csv", "iterates.csv", "u_final.csv", "error.json"} <= names
        assert "summary.json" not in names and not any(name[0] == "m" for name in names)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_oracle_failure_leaves_the_solve_files(self, tmp_path, monkeypatch, n_cpus):
        """On one CPU the oracle writes its series, u and m files before the
        particles run; with a spare CPU a forked worker writes them beside
        the particles. A particle step too large for the network
        (StepTooLarge, exit 2) fails long before that worker, slowed here,
        is done; the worker is reaped, not killed. Either way the files are
        whole beside error.json, byte-equal to a solve-mode run's, and no
        child is left."""
        import time

        self.cpus(monkeypatch, n_cpus)
        doc = fast_config(tmp_path, agents=50, dt_mc=1e6)
        doc["network"] = {
            "vertices": [{"id": i, "position": [float(i), 0.0]} for i in range(41)],
            "edges": [{"id": i, "tail": i, "head": i + 1, "length": 1.0} for i in range(40)],
            "exit_vertex": 0}
        doc["problem"]["m0"] = {"kind": "hat", "center": [30.0, 0.0], "width": 5.0}
        doc["numerics"]["h_target"] = 0.5
        outputs = []
        for mode in ("solve", "oracle"):
            if mode == "oracle":
                forks, write_group = self.count_forks(monkeypatch), cli._write_group
                monkeypatch.setattr(cli, "_write_group", lambda tables: (
                    time.sleep(0.5 * (n_cpus > 1)) or write_group(tables)))
            doc["run"].update(mode=mode, out_dir=str(tmp_path / mode))
            outputs.append(tmp_path / mode)
            assert run(parse_config(json.dumps(doc)), quiet=True) == (0 if mode == "solve" else 2)
        assert len(forks) == n_cpus - 1  # the writer; the particles' one block forks nothing
        err = json.loads((outputs[1] / "error.json").read_text())["error"]
        assert err["type"] == "StepTooLarge" and "dt" in err["message"]
        for name in ("f_series.csv", "iterates.csv", "u_final.csv", "m_final.csv", "m0.csv"):
            assert (outputs[1] / name).read_bytes() == (outputs[0] / name).read_bytes(), name
        assert not (outputs[1] / "summary.json").exists()
        assert not (outputs[1] / "comparison.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("large", [0, 2])
    def test_one_large_file_forks_nothing(self, tmp_path, monkeypatch, large):
        """A batch of one large file and small ones, as desk's series and
        fields, is written by the caller alone, wherever the large file
        stands."""
        monkeypatch.setattr(cli, "_SHARE_VALUES", 500)
        self.cpus(monkeypatch, 3)
        forks = self.count_forks(monkeypatch)
        columns = [(np.arange(40.0),), (np.arange(40.0),)]
        columns.insert(large, (np.arange(2000.0), np.arange(2000)))
        tables = [cli._Table(tmp_path / f"{i}.csv", "x", c) for i, c in enumerate(columns)]
        cli._write_tables(tables)
        assert not forks
        assert (tmp_path / f"{large}.csv").read_text() == "x\n" + "".join(
            f"{float(i)!r},{i}\n" for i in range(2000))

    def test_a_worker_writes_its_batch_alone(self, tmp_path, monkeypatch):
        """A batch of two large files, which the caller cuts between two
        processes on 3 CPUs, is written by a forked worker alone: there
        ``workers.spare_cpus`` is 0, so the worker forks nothing."""
        from mfgnet import workers

        monkeypatch.setattr(cli, "_SHARE_VALUES", 500)
        self.cpus(monkeypatch, 3)
        forks = self.count_forks(monkeypatch)
        tables = [cli._Table(tmp_path / f"{name}.csv", "x", (np.arange(1000.0),))
                  for name in "ab"]

        worker_forks = workers.shared(1)
        worker_forks[0] = -1.0

        def in_worker():
            forks.clear()  # the worker's copy
            cli._write_tables(tables)
            worker_forks[0] = len(forks)

        workers.run_forked(lambda: None, [in_worker])
        assert worker_forks[0] == 0.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        expected = "x\n" + "".join(f"{float(i)!r}\n" for i in range(1000))
        for name in "ab":
            assert (tmp_path / f"{name}.csv").read_text() == expected
        forks.clear()
        cli._write_tables(tables)
        assert len(forks) == 1

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_error_in_a_share_reaches_the_caller(self, tmp_path, monkeypatch, where):
        """A share's error is raised in the caller with its own type; no
        worker is left, and the directory holds only the batch's files."""
        monkeypatch.setattr(cli, "_SHARE_VALUES", 500)
        self.cpus(monkeypatch, 3)
        forks = self.count_forks(monkeypatch)
        caller, write = os.getpid(), cli._Table.write

        def failing(table):
            if (os.getpid() == caller) == (where == "caller"):
                raise ShareFailure(where)
            write(table)

        monkeypatch.setattr(cli._Table, "write", failing)
        tables = [cli._Table(tmp_path / f"{name}.csv", "x", (np.arange(1000.0),))
                  for name in "ab"]
        with pytest.raises(ShareFailure, match=where):
            cli._write_tables(tables)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir(tmp_path)) <= {"a.csv", "b.csv"}


class TestOutputDirectory:
    """A run into a directory that an earlier run wrote removes the files it
    owns by name and did not write, and touches nothing else."""

    def test_runs_do_not_mix(self, tmp_path):
        out = tmp_path / "out"
        (out / "snapshots").mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        (out / "snapshots" / "notes.csv").write_text("kept")
        failing = fast_config(tmp_path)
        failing["numerics"]["h_target"] = 1.5  # coarser than the only edge

        def snapshots():
            return sorted(p.name for p in (out / "snapshots").glob("[mu]_*.csv"))

        assert run(parse_config(json.dumps(failing)), quiet=True) == 2
        assert (out / "error.json").exists()
        for stride in (800, 1000):
            assert run(parse_config(json.dumps(fast_config(tmp_path, snapshots=stride))),
                       quiet=True) == 0
            assert not (out / "error.json").exists()
            n_steps = json.loads((out / "summary.json").read_text())["n_time_steps"]
            assert snapshots() == sorted(f"{f}_{n:08d}.csv" for f in "mu"
                                         for n in range(0, n_steps + 1, stride))
        assert run(parse_config(json.dumps(fast_config(tmp_path))), quiet=True) == 0
        assert snapshots() == []
        assert run(parse_config(json.dumps(failing)), quiet=True) == 2
        assert not (out / "summary.json").exists()
        assert (out / "m_final.csv").exists()  # a failure removes only the summary
        assert (out / "notes.txt").read_text() == (out / "snapshots" / "notes.csv").read_text()


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

    def test_config_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_bytes(b"\xff\xfe")
        assert main(["--config", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigUnreadable"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_dir_on_a_file_rejected_before_solving(self, tmp_path, capsys, monkeypatch,
                                                        below):
        """An output directory that names a file, or a path below one."""
        monkeypatch.setattr(cli, "discretize", lambda spec: pytest.fail("solved"))
        taken = tmp_path / "taken"
        taken.write_text("")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(tmp_path)))
        out = taken / "out" if below else taken
        assert main(["--config", str(p), "--out", str(out), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert err["field"] == "run.out_dir"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "taken"]

    @pytest.mark.parametrize("mode", ["solve", "oracle"])
    @pytest.mark.parametrize("taken", ["snapshots", "f_series.csv", "error.json"])
    def test_artifact_path_not_writable(self, tmp_path, capfd, monkeypatch, mode, taken):
        """An artifact path that cannot be written, a file where the
        snapshots directory goes or a directory where a CSV or error.json
        goes, exits 2 naming run.out_dir, on stderr and, but for error.json
        itself, in error.json, with no traceback and no child left: on 2
        CPUs the oracle's series come from its forked writer."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "out"
        out.mkdir()
        if taken == "snapshots":
            (out / taken).write_text("")
        else:
            (out / taken).mkdir()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(tmp_path, mode=mode, snapshots=1000)))
        assert main(["--config", str(p), "--quiet"]) == 2
        captured = capfd.readouterr()
        assert "Traceback" not in captured.out + captured.err
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ValidationError" and err["field"] == "run.out_dir"
        assert taken in err["message"]
        if taken == "error.json":
            assert (out / taken).is_dir()
        else:
            assert json.loads((out / "error.json").read_text())["error"] == err
        assert not (out / "summary.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cost_beyond_floats_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        """A cost whose range no float exponential spans exits 2 naming
        problem.cost, before anything is solved."""
        monkeypatch.setattr(cli, "fixed_point", lambda *a, **k: pytest.fail("solved"))
        doc = json.loads(bundled_text("desk.json"))
        doc["problem"]["cost"]["c1"] = 1000.0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--mode", "solve", "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert err["field"] == "problem.cost"

    def test_cost_beyond_exp_range_solves(self, tmp_path):
        """Desk with c1 = 100, whose cost reaches 950 where exp overflows a
        float, solves with no warning; u keeps the cost's own values."""
        doc = json.loads(bundled_text("desk.json"))
        doc["problem"]["cost"]["c1"] = 100.0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(p), "--mode", "solve", "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        f = np.loadtxt(out / "f_series.csv", delimiter=",", skiprows=1)[:, 1]
        assert 0.0 <= f.min() and f.max() <= 1.0
        exit_row = (out / "u_final.csv").read_text().splitlines()[1].split(",")
        assert exit_row[:2] == ["0", "0"]  # edge 0 starts at the exit
        # c1 (T - t0) at the start time T, where the waiting term is 0
        assert float(exit_row[4]) == pytest.approx(100.0 * (summary["t_star"] - 0.5), abs=1e-12)

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

    @pytest.mark.parametrize("case", ["desk_oracle", "example1_coarse"])
    def test_run_loads_no_numpy_ma(self, tmp_path, case):
        """Neither a particle oracle run nor a modal solve imports numpy.ma
        (the first np.unique or np.union1d call does), and the modal solve
        does not load the Lanczos module either."""
        if case == "desk_oracle":  # criterion 9's downsized desk
            doc = json.loads(bundled_text("desk.json"))
            doc["numerics"]["h_target"] = 0.05
            doc["problem"]["t_max"] = 4.0
            doc["run"]["agents"] = 5000
            flags, absent = [], ["numpy.ma"]
        else:
            doc = json.loads(bundled_text("example1.json"))
            flags, absent = ["--h", "0.1"], ["numpy.ma", "mfgnet.lanczos"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        argv = ["--config", str(p), "--quiet", "--out", str(tmp_path / "out"), *flags]
        script = ("import json, sys\nfrom mfgnet.cli import main\n"
                  f"code = main({argv!r})\n"
                  f"print(json.dumps([code, [m for m in {absent!r} if m in sys.modules]]))")
        path = [str(Path(mn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, []]

    @pytest.mark.parametrize("change, error, field", [
        ({"problem": {"t_max": 1e308, "cost": {"c1": 0.0, "c2": 0.0, "c3": 0.0}}},
         "StepTooFine", None),
        ({"run": {"dt_mc": 5e-309}}, "ValidationError", "run.mode"),
        ({"network": {"vertices": [{"id": 0, "position": [1e308, 0.0]},
                                   {"id": 1, "position": [-1e308, 0.0]}]},
          "problem": {"m0": {"kind": "abs"}}}, "ValidationError", "network"),
        ({"run": {"agents": 10**400}}, "ValidationError", "run.agents"),
        ({"network": {"vertices": [{"id": 0, "position": [0.0, 0.0]},
                                   {"id": 1, "position": [1e200, 0.0]}]},
          "problem": {"m0": {"kind": "abs"}}}, "ValidationError", "problem.m0"),
    ], ids=["t_max_1e308", "dt_mc_5e-309", "chord_overflow", "agents_1e400", "m0_overflow"])
    def test_overflowing_input_exits_2_under_warnings_as_errors(self, tmp_path, change,
                                                                error, field):
        """Desk with a value whose step count, chord, agent count or sampled
        density overflows a float exits 2 with a typed payload, warning-free,
        from ``python -W error``."""
        doc = json.loads(bundled_text("desk.json"))
        for section, values in change.items():
            doc[section].update(values)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        path = [str(Path(mn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "mfgnet", "--config", str(p), "--quiet",
             "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == error
        assert err.get("field") == field

    @pytest.mark.parametrize("field, value, flags", [
        (None, None, ["--h", "nan"]),
        (None, None, ["--tol", "nan"]),
        ("problem.t_max", float("inf"), []),
        ("numerics.h_ladder", [0.1, float("nan")], ["--mode", "refine-study"]),
        ("run.dt_mc", -1, ["--mode", "oracle"]),
        ("run.dt_mc", float("nan"), ["--mode", "oracle"]),
        ("problem.cost.c1", float("nan"), []),
        ("run.dt_mc", "abc", ["--mode", "oracle"]),
        ("run.seed", "x", []),
        ("run.agents", "x", ["--mode", "oracle"]),
        ("run.snapshots", "x", []),
        ("numerics.h_ladder", ["a"], ["--mode", "refine-study"]),
        ("network.vertices.1.id", "x", []),
        ("network.vertices.1.position", ["a", 0.0], []),
        ("network.vertices.1.position", 3.0, []),
        ("network.vertices.1", 5, []),
        ("network.edges.0.tail", DELETE, []),
        ("network.edges.0.head", "x", []),
        ("network.edges.0.length", "long", []),
        ("run.seed", 2.7, []),
        ("run.snapshots", 1.5, []),
        ("run.agents", 100.5, ["--mode", "oracle"]),
        ("numerics.max_iters", 2.5, []),
        ("network.exit_vertex", 0.5, []),
    ], ids=["h_nan", "tol_nan", "t_max_inf", "h_ladder_nan", "dt_mc_negative",
            "dt_mc_nan", "c1_nan", "dt_mc_string", "seed_string", "agents_string",
            "snapshots_string", "h_ladder_string", "vertex_id_string",
            "position_string", "position_scalar", "vertex_not_object", "edge_tail_missing", "edge_head_string",
            "edge_length_string", "seed_fractional", "snapshots_fractional",
            "agents_fractional", "max_iters_fractional", "exit_vertex_fractional"])
    def test_nonfinite_and_out_of_range_rejected_before_solving(
            self, tmp_path, capsys, field, value, flags):
        doc = fast_config(tmp_path)
        if field is not None:
            *sections, key = field.split(".")
            target = doc
            for name in sections:
                target = target[int(name)] if isinstance(target, list) else target[name]
            if isinstance(target, list):
                key = int(key)
            if value is DELETE:
                del target[key]
            else:
                target[key] = value  # json.dumps writes NaN and Infinity literals
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--quiet", *flags]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        if field and err["type"] == "ValidationError" and field.startswith(
                ("network.", "run.", "numerics.max")):
            # the error names the offending field, e.g. network.edges[].tail
            parts = [name for name in field.split(".") if not name.isdigit()]
            assert err["field"].replace("[]", "").split(".") == parts
        assert not (tmp_path / "out" / "f_series.csv").exists()

    @pytest.mark.parametrize("field, value, named", [
        ("problem.cost.c1", [0.1], "problem.cost.c1"),
        ("problem.cost.c2", None, "problem.cost.c2"),
        ("version", True, "$.version"),
        ("numerics.h_target", True, "numerics.h_target"),
        ("problem.t0", True, "problem.t0"),
        ("problem.cost.c1", True, "problem.cost.c1"),
        ("network.exit_vertex", True, "network.exit_vertex"),
        ("run.seed", True, "run.seed"),
        ("numerics.max_iters", True, "numerics.max_iters"),
        ("run.out_dir", None, "run.out_dir"),
        ("run.out_dir", 3, "run.out_dir"),
    ], ids=["c1_list", "c2_null", "version_true", "h_target_true", "t0_true", "c1_true",
            "exit_vertex_true", "seed_true", "max_iters_true", "out_dir_null", "out_dir_number"])
    def test_wrong_json_type_names_field(self, tmp_path, capsys, monkeypatch, field, value, named):
        """A list, null, true or false where a number or a path belongs."""
        monkeypatch.chdir(tmp_path)  # where a run given out_dir null would write
        doc = fast_config(tmp_path)
        *sections, key = field.split(".")
        target = doc
        for name in sections:
            target = target[name]
        target[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert err["field"] == named
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("run_doc, flags, fragment", [
        ({"dt_mc": 1e-3}, ["--h", "1e-4"], "10000 levels"),  # 3.2 GB of fields
        ({"dt_mc": 1e-9}, [], "64001 levels"),               # 80 GB of particle step times
        ({"agents": 10**10}, [], "run.agents = 10000000000"),  # 1.8 TB of agents
        ({"dt_mc": 1e-300}, [], "needs 8e+292 GB"),  # a step count of 301 digits
        ({"dt_mc": 5e-309}, [], "needs inf GB"),     # t_max / dt_mc overflows
    ], ids=["desk_h_1e-4", "desk_dt_mc_1e-9", "desk_agents_1e10", "desk_dt_mc_1e-300",
            "desk_dt_mc_5e-309"])
    def test_oracle_over_memory_limit_rejected(self, tmp_path, capsys, run_doc, flags,
                                               fragment):
        """Desk whose drift or agents would take GBs stops before solving."""
        doc = json.loads(bundled_text("desk.json"))
        doc["run"].update(out_dir=str(tmp_path / "out"), **run_doc)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--quiet", *flags]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert err["field"] == "run.mode"
        assert fragment in err["message"]
        assert not (tmp_path / "out" / "f_series.csv").exists()

    @pytest.mark.parametrize("h, needs", [
        ("1e-4", "4000000002 time levels"),  # 30 GiB for the level times alone
        ("1e-9", "6.14e+09 grid nodes"),     # 92 GiB for the node positions alone
    ])
    def test_too_fine_step_rejected_before_allocating(self, tmp_path, capsys, h, needs):
        """example1 at a spatial step whose grid cannot be held exits 2 with
        an error naming h_target, not with a traceback."""
        p = tmp_path / "cfg.json"
        p.write_text(bundled_text("example1.json"))
        assert main(["--config", str(p), "--h", h, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "StepTooFine"
        assert needs in err["message"]
        assert "numerics.h_target (--h)" in err["message"]

    @pytest.mark.parametrize("m0, field", [
        ({"kind": "bumps", "centers": [["a", 0]], "radii": [0.3]}, "problem.m0.centers"),
        ({"kind": "hat", "center": ["a", 0], "width": 0.5}, "problem.m0.center"),
        ({"kind": "tabulated", "edges": [{"edge": 0, "values": [0.0, 1.0, 0.0]}]},
         "problem.m0.edges[].arclength"),
        ({"kind": "tabulated", "edges": [{"edge": 0, "arclength": [0.0, 1.0],
                                          "values": [-1.0, -1.0]}]},
         "problem.m0.edges[].values"),
        ({"kind": "tabulated", "edges": [{"edge": 5, "arclength": [0.0, 1.0],
                                          "values": [1.0, 1.0]}]},
         "problem.m0.edges[].edge"),
        ({"kind": "bumps", "centers": [[0.5, 0.0]], "radii": [-1.0]}, "problem.m0.radii"),
        ({"kind": "hat", "center": [True, 0.0], "width": 0.5}, "problem.m0.center"),
        ({"kind": "hat", "center": ["0.5", 0.0], "width": 0.5}, "problem.m0.center"),
        ({"kind": "bumps", "centers": [[0.1, "0.2"]], "radii": [0.3]}, "problem.m0.centers"),
        ({"kind": "bumps", "centers": [[0.5, 0.0]], "radii": [True]}, "problem.m0.radii"),
        ({"kind": "tabulated", "edges": [{"edge": 0, "arclength": [0.0, 1.0],
                                          "values": [1.0, False]}]},
         "problem.m0.edges[].values"),
    ], ids=["bumps_center_string", "hat_center_string", "tabulated_arclength_missing",
            "tabulated_values_negative", "tabulated_edge_unknown", "bumps_radius_negative",
            "hat_center_bool", "hat_center_numeric_string", "bumps_center_numeric_string",
            "bumps_radius_bool", "tabulated_values_bool"])
    def test_bad_density_names_field(self, tmp_path, capsys, m0, field):
        doc = fast_config(tmp_path)
        doc["problem"]["m0"] = m0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert err["field"] == field

    def test_particle_step_too_large_exit_code(self, tmp_path, capsys):
        """A dt_mc so large that one step bounces an agent through more
        vertices than the per-step limit is a config error, not a crash."""
        n = 40
        doc = fast_config(tmp_path, mode="oracle", agents=50, dt_mc=1e6)
        doc["network"] = {
            "vertices": [{"id": i, "position": [float(i), 0.0]} for i in range(n + 1)],
            "edges": [{"id": i, "tail": i, "head": i + 1, "length": 1.0} for i in range(n)],
            "exit_vertex": 0}
        doc["problem"]["m0"] = {"kind": "hat", "center": [30.0, 0.0], "width": 5.0}
        doc["numerics"]["h_target"] = 0.5
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "StepTooLarge"
        assert "dt" in err["message"]

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
