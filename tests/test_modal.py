"""The modal candidate map against the time-stepping sweeps it replaces."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import mfgnet as mn
from mfgnet import heat
from mfgnet.heat import StencilWorkspace, modal_pays
from mfgnet.mfg import cost, discretize, fixed_point, psi_map

from conftest import bundled_text, random_tree_network
from test_mfg import desk_problem


def _bundled(name, h=None):
    spec = mn.parse_config(bundled_text(name)).spec
    return spec if h is None else replace(spec, h_target=h)


def _random_tree(seed):
    rng = np.random.default_rng(300 + seed)
    topo = random_tree_network(rng, seed % 3)
    costs = mn.CostSpec(t0=float(rng.uniform(0.1, 0.5)), t_max=2.0,
                        c1=float(rng.uniform(0, 0.5)), c2=float(rng.uniform(0, 0.2)),
                        c3=float(rng.uniform(0, 0.5)))
    center = rng.uniform(-2, 2, size=2)
    return mn.ProblemSpec(
        topology=topo, cost=costs, theta=float(rng.uniform(0.1, 0.6)),
        m0=lambda p: np.exp(-((p - center) ** 2).sum(axis=1)) * (1 + p[:, 0] ** 2),
        h_target=0.15 * min(e.length for e in topo.edges))


INSTANCES = {
    "example1_h0.1": lambda: _bundled("example1.json", 0.1),
    "example1_h0.05": lambda: _bundled("example1.json", 0.05),
    "example2_h0.1": lambda: _bundled("example2.json", 0.1),
    "desk": lambda: _bundled("desk.json"),
    **{f"tree{k}": (lambda k=k: _random_tree(k)) for k in range(8)},
}


@pytest.fixture(params=list(INSTANCES), scope="module")
def problem(request):
    with warnings.catch_warnings():
        # a random crowd may be nonzero at the exit; projecting it is intended
        warnings.simplefilter("ignore", UserWarning)
        return discretize(INSTANCES[request.param]())


def test_modal_map_matches_sweep(problem):
    spec = problem.spec
    assert modal_pays(problem.grid, problem.time_grid)
    t0, t_max = spec.cost.t0, spec.cost.t_max
    for t in (t0, 0.5 * (t0 + t_max), t_max):
        modal = psi_map(t, problem)
        sweep = psi_map(t, problem, track_min=True)
        assert modal.phi is None and sweep.phi is not None
        assert modal.t_star == sweep.t_star
        assert modal.crossing_level == sweep.crossing_level
        assert np.abs(modal.f_series - sweep.f_series).max() <= 1e-9

        exit_series = np.exp(cost(problem.time_grid.times, t, spec.cost))
        phi0 = problem.modal.phi_initial(exit_series)
        ref = sweep.phi.initial.data
        assert np.abs(phi0 - ref).max() <= 1e-9 * np.abs(ref).max()


def test_symmetrized_step_is_symmetric(problem):
    grid = problem.grid
    ws = StencilWorkspace(grid, (grid.topology.exit_vertex,))
    K, _ = ws.interior_matrix(ws.check_cfl(problem.time_grid.dt))
    d = ws.inv_h2 ** -0.25
    S = K * d[:, None] / d[None, :]
    assert np.abs(S - S.T).max() <= 1e-14


def test_fixed_point_same_with_sweep_forced(example1_config, monkeypatch):
    spec = replace(example1_config.spec, h_target=0.1)
    modal_problem = discretize(spec)
    modal = fixed_point(modal_problem)
    assert modal_problem.modal is not None

    monkeypatch.setattr(heat, "MODAL_COST_RATIO", 0.0)
    sweep_problem = discretize(spec)
    sweep = fixed_point(sweep_problem)
    assert sweep_problem.modal is None

    assert modal.iterates == sweep.iterates
    assert modal.t_star == sweep.t_star
    np.testing.assert_array_equal(modal.f_series, sweep.f_series)
    for name in ("phi", "psi", "u", "m"):
        assert modal.fields[name].keys() == sweep.fields[name].keys()
        for n in modal.fields[name]:
            np.testing.assert_array_equal(modal.fields[name][n].data,
                                          sweep.fields[name][n].data)


def test_operator_built_once_on_first_modal_map(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    problem = discretize(desk_problem())
    assert problem.modal is None
    psi_map(0.5, problem, snapshot_levels={3})
    assert problem.modal is None and not calls
    for t in (0.5, 3.0, 10.0):
        psi_map(t, problem)
    assert len(calls) == 1


def test_grid_over_cutoff_makes_no_eigh(monkeypatch):
    side = 6
    vertices = [(i * side + j, (float(j), float(i))) for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                edges.append((len(edges), i * side + j, i * side + j + 1, 1.0))
            if i + 1 < side:
                edges.append((len(edges), i * side + j, (i + 1) * side + j, 1.0))
    vertices.append((side * side, (0.5, 0.5)))
    edges.append((len(edges), side * side, 0, 0.5))
    topo = mn.build_network(vertices, edges, side * side)
    spec = mn.ProblemSpec(topology=topo, cost=mn.CostSpec(0.02, 0.1, 0.1, 0.0, 0.1),
                          theta=0.01, m0=lambda p: np.exp(-(p**2).sum(axis=1)),
                          h_target=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(spec)
    assert not modal_pays(problem.grid, problem.time_grid)

    def no_eigh(a):
        raise AssertionError("eigh called above the cutoff")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    res = psi_map(0.05, problem)
    assert res.phi is not None and problem.modal is None


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_psi_map_unit_tests_take_the_modal_path(h):
    """TestPsiMap runs psi_map on these grids without asking for fields, so
    its checks hold on the modal path."""
    problem = discretize(desk_problem(h=h))
    assert modal_pays(problem.grid, problem.time_grid)
    assert psi_map(5.0, problem).phi is None
