"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line (run with -s to see them as they happen). The
reconstructed four-vertex example graph drives the equilibrium criteria; it
is solved once per spatial step on a shared session fixture.
"""

import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import mfgnet as mn
from mfgnet.heat import StepOperator, solve_backward_phi, solve_forward_psi
from mfgnet.mfg import cost, fixed_point

from conftest import bundled_text, every_level, level_states, random_tree_network

H_LADDER = (0.1, 0.05, 0.025, 0.0125)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}", flush=True)
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}", flush=True)


@pytest.fixture(scope="session")
def example1_ladder(example1_config):
    """Equilibria of the bundled example graph for every ladder step,
    with wall-clock time per solve."""
    results, timings = {}, {}
    for h in H_LADDER:
        spec = replace(example1_config.spec, h_target=h)
        t0 = time.time()
        results[h] = fixed_point(spec)
        timings[h] = time.time() - t0
    return results, timings


@pytest.fixture(scope="session")
def desk_oracle(tmp_path_factory, desk_config):
    """The fully specified single-edge instance run in oracle mode through
    the CLI pipeline, timed."""
    import dataclasses

    out = tmp_path_factory.mktemp("desk_oracle")
    config = dataclasses.replace(desk_config, out_dir=str(out))
    t0 = time.time()
    code = mn.run(config, quiet=True)
    elapsed = time.time() - t0
    summary = json.loads((out / "summary.json").read_text())
    return code, summary, elapsed, out


def test_criterion_1_heat_analytic_regression(single_edge):
    with criterion(1, "analytic heat regression, sup error <= 1e-3, "
                      "error ratio in [3.5, 4.5] under halving, < 5 s"):
        t0 = time.time()
        errors = {}
        for h in (0.01, 0.005):
            g = mn.build_grid(single_edge, h)
            n_steps = round(0.1 / (h * h / 4))
            tg = mn.TimeGrid(dt=0.1 / n_steps, n_steps=n_steps, t_max=0.1)
            x = g.positions[:, 0]
            sweep = solve_forward_psi(
                g, tg, mn.GridField(g, np.sin(np.pi * x)),
                mn.GridField(g, np.ones(g.n_flat)), extra_dirichlet=[(1, 0.0)])
            exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * x)
            errors[h] = float(np.abs(sweep.terminal.data - exact).max())
        elapsed = time.time() - t0
        assert errors[0.01] <= 1e-3
        assert 3.5 <= errors[0.01] / errors[0.005] <= 4.5
        assert elapsed < 5.0


def test_criterion_2_vertex_solve_exactness():
    with criterion(2, "discrete flux balance solved to 1e-12 relative "
                      "residual on 1000 randomized stencils"):
        rng = np.random.default_rng(2024)
        solved = 0
        while solved < 1000:
            if rng.random() < 0.7:
                # star with random degree and random steps
                deg = int(rng.integers(1, 8))
                vertices = [(0, (1.0, 0.0)), (1, (0.0, 0.0))]
                edges = [(0, 1, 0, float(rng.uniform(0.05, 1.0)))]
                for i in range(deg - 1):
                    vertices.append((i + 2, (np.cos(i), np.sin(i))))
                    edges.append((i + 1, 1, i + 2, float(rng.uniform(0.05, 1.0))))
                topo = mn.build_network(vertices, edges, 0)
            else:
                topo = random_tree_network(rng, int(rng.integers(0, 4)))
            g = mn.build_grid(topo, float(rng.uniform(0.02, 0.3)) * topo.lengths.min())
            f = mn.GridField(g, rng.uniform(-10, 10, g.n_flat))
            op = StepOperator(g, (topo.exit_vertex,), 0.25 * g.min_h**2)
            op.balance_vertices(f.data, op.scratch()[2])
            scale = max(np.abs(f.data).max(), 1.0)
            residual = op.kirchhoff_residual(f.data)
            assert (np.abs(residual) <= 1e-12 * op.total_weight * scale).all()
            solved += len(residual)
        assert solved >= 1000


def test_criterion_3_min_principle_and_positivity():
    with criterion(3, "randomized sweeps keep phi >= 1 - 1e-12 and "
                      "psi >= -1e-14 at every node and level (20 seeds)"):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            topo = random_tree_network(rng, int(rng.integers(0, 3)))
            h = float(rng.uniform(0.1, 0.2)) * topo.lengths.min()
            g = mn.build_grid(topo, h)
            t_max = float(rng.uniform(0.5, 1.2))
            tg = mn.build_time_grid(t_max, g.min_h, 0.25)
            t0 = float(rng.uniform(0.05, 0.4 * t_max))
            t_start = float(rng.uniform(t0, t_max))
            spec = mn.CostSpec(t0=t0, t_max=t_max,
                               c1=float(rng.uniform(0, 0.3)),
                               c2=float(rng.uniform(0, 0.1)),
                               c3=float(rng.uniform(0, 0.3)))
            c_T = lambda s: cost(s, t_start, spec)  # noqa: B023
            centers = rng.uniform(-2, 2, size=(2, 2))
            g_raw = mn.sample_function(
                g, lambda p: np.maximum(
                    1 - ((p[:, None, :] - centers[None]) ** 2).sum(-1), 0).sum(1) + 0.05)
            with warnings.catch_warnings():
                # random bumps are nonzero at the exit; projecting is intended
                warnings.simplefilter("ignore", UserWarning)
                m0 = mn.normalize_mass(g_raw)
            phi = solve_backward_phi(g, tg, c_T, snapshot_levels=every_level(tg))
            psi = solve_forward_psi(g, tg, m0, phi.initial, snapshot_levels=every_level(tg))
            assert level_states(phi).min() >= 1.0 - 1e-12
            assert level_states(psi).min() >= -1e-14


def test_criterion_4_mass_budget(example1_ladder):
    with criterion(4, "residual-mass diagnostic at h = 0.025 stays "
                      "within 5e-3, solved in under 2 minutes"):
        results, timings = example1_ladder
        res = results[0.025]
        assert res.converged
        assert res.residual_mass <= 5e-3
        assert timings[0.025] < 120.0


def test_criterion_5_fixed_point_ladder(example1_ladder):
    with criterion(5, "fixed point converges in <= 12 iterations with the "
                      "start time inside [5.0, 6.2] and ladder spread <= 0.15"):
        results, _ = example1_ladder
        ts = []
        for h in H_LADDER:
            res = results[h]
            assert res.converged, f"h={h} did not converge"
            assert res.iterations <= 12, f"h={h} took {res.iterations} iterations"
            assert 5.0 <= res.t_star <= 6.2, f"h={h} gave T={res.t_star}"
            ts.append(res.t_star)
        assert max(ts) - min(ts) <= 0.15


def test_criterion_6_monotone_flow_and_quorum(example1_ladder):
    with criterion(6, "arrival flow is nondecreasing and the quorum "
                      "crossing is strict in every converged run"):
        results, _ = example1_ladder
        for h, res in results.items():
            assert res.converged
            assert (np.diff(res.map.f_series) >= -1e-12).all()
            theta = 0.5
            t0, t_max = 0.5, 10.0
            if t0 < res.t_star < t_max:
                lvl = res.time_grid.level_of(res.t_star)
                assert res.map.f_series[lvl] > theta
                assert (res.map.f_series[:lvl] <= theta).all()


def test_criterion_7_oracle_agreement(desk_oracle):
    with criterion(7, "particle oracle reproduces the computed arrival "
                      "flow within 0.02 in under a minute"):
        code, summary, elapsed, out = desk_oracle
        assert code == 0
        assert summary["oracle"]["agents"] == 100_000
        assert summary["oracle"]["sup_distance"] <= 0.02
        assert (out / "comparison.csv").exists()
        assert elapsed < 60.0


def test_oracle_within_two_bands(desk_oracle):
    """Starts drawn from m0's piecewise-linear interpolant put desk's
    particle arrival flow within twice the 95% band half-width of the
    computed one."""
    _, summary, _, _ = desk_oracle
    oracle = summary["oracle"]
    assert oracle["sup_distance"] <= 2 * oracle["dkw_epsilon"]


def test_criterion_8_identities(example1_ladder):
    with criterion(8, "exp(u)*psi recovers m to 1e-14 and the exit flux "
                      "identity holds to 1e-10 relative at every level"):
        results, _ = example1_ladder
        res = results[0.025]
        for lvl in sorted(res.fields["m"]):
            u = res.fields["u"][lvl].data
            psi = res.fields["psi"][lvl].data
            m = res.fields["m"][lvl].data
            assert np.abs(np.exp(u) * psi - m).max() <= 1e-14
        # cost-weighted density-potential flux vs product-rule mass flux
        # at the exit; psi(exit) = 0 and phi(exit) = exp(c_T) are imposed
        h0 = res.grid.exit_h
        dpsi = res.map.psi_exit_adjacent / h0
        weights = np.exp(cost(res.times, res.map.t_input,
                              mn.CostSpec(0.5, 10.0, 0.1, 0.0, 0.1)))
        flux_psi = weights * dpsi
        flux_m = res.map.exit_series * dpsi
        scale = np.maximum(np.abs(flux_psi), 1e-300)
        assert (np.abs(flux_m - flux_psi) / scale).max() <= 1e-10


def test_criterion_9_deterministic_summaries(tmp_path, desk_config):
    with criterion(9, "identical config and seed give byte-identical "
                      "summary files"):
        import dataclasses

        doc = json.loads(bundled_text("desk.json"))
        doc["numerics"]["h_target"] = 0.05
        doc["problem"]["t_max"] = 4.0
        doc["run"]["agents"] = 5000
        blobs = []
        for sub in ("a", "b"):
            doc["run"]["out_dir"] = str(tmp_path / sub)
            config = mn.parse_config(json.dumps(doc))
            assert mn.run(config, quiet=True) == 0
            blobs.append((tmp_path / sub / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]
