"""The modal and Lanczos evaluators against the time-stepping sweeps they
replace."""

import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mfgnet as mn
from mfgnet import heat, lanczos, mfg, workers
from mfgnet.errors import NumericalFailure
from mfgnet.heat import (
    ModalStep,
    StepOperator,
    modal_pays,
    psi_initial,
    solve_backward_phi,
    solve_forward_psi,
)
from mfgnet.lanczos import LanczosStep, krylov_reach_pays
from mfgnet.mfg import (
    _clip_rounding,
    cumulative_flow,
    discretize,
    fixed_point,
    map_fields,
    map_phi,
    psi_map,
)

from conftest import SweptEvaluator, bundled_text, random_tree_network
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
        h_target=0.15 * topo.lengths.min())


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


def _force_sweeps(mp) -> list:
    """Make every evaluation one run of the reference sweeps (the problem's
    evaluator is left unbuilt); the returned list records the direction of
    each sweep run, True for backward."""
    mp.setattr(mfg, "_evaluator", SweptEvaluator)
    return _record_sweeps(mp)


def _record_sweeps(mp) -> list:
    run_sweep, swept = heat._run_sweep, []
    mp.setattr(heat, "_run_sweep",
               lambda *a, **kw: swept.append(kw["backward"]) or run_sweep(*a, **kw))
    return swept


def _force_krylov(mp, field_ratio=np.inf):
    """Make a problem's evaluator a LanczosStep, whose fields take the bases
    at any level count unless ``field_ratio`` is given."""
    mp.setattr(heat, "MODAL_COST_RATIO", 0.0)
    mp.setattr(lanczos, "KRYLOV_FIELD_RATIO", field_ratio)


def _in_caller(mp):
    """Evaluate psi's fields in the caller: the caller's spies and
    tracemalloc cannot see a forked worker."""
    mp.setattr(workers, "spare_cpus", lambda: 0)


def _rel(a, b):
    return np.abs(np.asarray(a) - b).max() / max(np.abs(b).max(), 1e-300)


def test_modal_map_matches_sweep(problem, monkeypatch):
    spec = problem.spec
    assert modal_pays(problem.grid, problem.time_grid)
    t0, t_max = spec.cost.t0, spec.cost.t_max
    for t in (t0, 0.5 * (t0 + t_max), t_max):
        modal = psi_map(t, problem)
        modal_phi0 = map_phi(modal, problem, [0])[0]
        with monkeypatch.context() as mp:
            swept = _force_sweeps(mp)
            sweep = psi_map(t, problem)
            assert len(swept) == 2
            ref = map_phi(sweep, problem, [0])[0]
        assert isinstance(problem.evaluator, ModalStep)
        assert modal.t_star == sweep.t_star
        assert modal.crossing_level == sweep.crossing_level
        assert np.abs(modal.f_series - sweep.f_series).max() <= 1e-9

        # the map's psi0 is m0 over phi at level 0, to the last bit
        np.testing.assert_array_equal(
            modal.psi0, psi_initial(problem.m0, mn.GridField(problem.grid, modal_phi0)))
        assert np.abs(modal_phi0 - ref).max() <= 1e-9 * np.abs(ref).max()


def test_modal_capture_matches_sweep(problem, monkeypatch):
    """Both sweeps evaluated from the eigenbasis at the written levels, a
    few of them and one in every 11 (several to a block of B levels, as the
    oracle's read levels are), against the time-stepping sweeps, with psi's
    exit trace."""
    spec, n_steps = problem.spec, problem.time_grid.n_steps
    levels = {0, 1, 7, n_steps // 2, n_steps, *range(3, n_steps, 11)}
    t = 0.5 * (spec.cost.t0 + spec.cost.t_max)
    with monkeypatch.context() as mp:
        _force_sweeps(mp)
        sweep = psi_map(t, problem)
        sweep_fields = map_fields(sweep, problem, levels)
    modal = psi_map(t, problem)
    modal_fields = map_fields(modal, problem, levels)
    assert isinstance(problem.evaluator, ModalStep)

    assert modal.t_star == sweep.t_star
    assert _rel(modal.f_series, sweep.f_series) <= 1e-10
    for m, s in zip(modal_fields, sweep_fields):
        assert m.keys() == s.keys() == levels
        for n in levels:
            assert _rel(m[n].data, s[n].data) <= 1e-10
    assert _rel(modal.psi_exit_adjacent, sweep.psi_exit_adjacent) <= 1e-10
    np.testing.assert_array_equal(modal.exit_series, sweep.exit_series)


@pytest.mark.parametrize("name, h", [("example1.json", 0.05), ("desk.json", None)])
def test_phi_tail_sums_match_the_recursion(name, h):
    """phi at a few levels, level 0 included, asked together and each alone:
    the rows are equal to the last bit, whether a level is a checkpoint (a
    tail sum) or steps down from one (the scan)."""
    problem = discretize(_bundled(name, h))
    tg = problem.time_grid
    res = psi_map(0.6 * problem.spec.cost.t_max, problem)
    n = tg.n_steps
    levels = sorted({0, 1, 7, n // 3, tg.level_of(res.t_star), n - 1, n})
    step = problem.evaluator
    together = step.phi_levels(res.exit_series, levels)
    for row, level in zip(together, levels):
        np.testing.assert_array_equal(row, step.phi_levels(res.exit_series, [level])[0])


@pytest.mark.parametrize("name, h", [("example1.json", 0.05), ("desk.json", 0.05)])
def test_phi_reader_chunks_match_one_call(name, h):
    """One ``phi_reader`` asked for consecutive chunks of levels, as the
    particles' drift asks it, gives phi_levels' rows of one call over all
    of them, to the last bit, at every chunk length."""
    problem = discretize(_bundled(name, h))
    n = problem.time_grid.n_steps
    res = psi_map(0.6 * problem.spec.cost.t_max, problem)
    step = problem.evaluator
    assert isinstance(step, ModalStep)
    levels = np.arange(0, n + 1, 3)
    whole = step.phi_levels(res.exit_series, levels)
    read = step.phi_reader(res.exit_series)
    for size, upto in ((1, 200), (97, len(levels)), (512, len(levels))):
        parts = [read(levels[a: min(a + size, upto)]) for a in range(0, upto, size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole[:upto])


@pytest.mark.parametrize("n_steps", [400, 401])
def test_phi_recursion_reaches_level_0(n_steps):
    """phi at every third level down to level 0, against the backward sweep
    within 1e-10 of max |phi|: with a square number of steps, where N is a
    multiple of B, and with one more."""
    problem = discretize(_bundled("example1.json", 0.1))
    dt = problem.time_grid.dt
    tg = mn.TimeGrid(dt=dt, n_steps=n_steps, t_max=n_steps * dt)
    exit_series = np.exp(np.linspace(0.0, 2.0, n_steps + 1) ** 2)
    levels = list(range(0, n_steps + 1, 3))
    modal = ModalStep(problem.grid, tg, problem.m0).phi_levels(exit_series, levels)
    sweep = solve_backward_phi(problem.grid, tg, exit_series, snapshot_levels=levels)
    assert _rel(modal, np.array([sweep.snapshots[n].data for n in levels])) <= 1e-10


def test_symmetrized_step_is_symmetric(problem):
    grid = problem.grid
    op = StepOperator(grid, (grid.topology.exit_vertex,), problem.time_grid.dt)
    K, _ = op.interior_matrix()
    d = op.inv_h2 ** -0.25
    S = K * d[:, None] / d[None, :]
    assert np.abs(S - S.T).max() <= 1e-14


def test_fixed_point_same_with_sweep_forced(example1_config, monkeypatch):
    spec = replace(example1_config.spec, h_target=0.1)
    modal_problem = discretize(spec)
    modal = fixed_point(modal_problem)
    assert isinstance(modal_problem.evaluator, ModalStep)

    with monkeypatch.context() as mp:
        _force_sweeps(mp)
        sweep_problem = discretize(spec)
        sweep = fixed_point(sweep_problem)
    assert sweep_problem.evaluator is None

    assert modal.iterates == sweep.iterates
    assert modal.t_star == sweep.t_star
    assert modal.equilibrium_level == sweep.equilibrium_level
    assert _rel(modal.map.f_series, sweep.map.f_series) <= 1e-10
    for name in ("phi", "psi", "u", "m"):
        assert modal.fields[name].keys() == sweep.fields[name].keys()
        for n in modal.fields[name]:
            assert _rel(modal.fields[name][n].data, sweep.fields[name][n].data) <= 1e-10


def test_fixed_point_makes_no_sweep(example1_config, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept on a grid where the modal path pays")

    monkeypatch.setattr(heat, "_run_sweep", no_sweep)
    problem = discretize(replace(example1_config.spec, h_target=0.05))
    res = fixed_point(problem, snapshot_levels={5})
    assert res.converged and 5 in res.fields["m"]
    # the converged capture evaluated the last iteration's candidate
    last = psi_map(res.map.t_input, problem)
    np.testing.assert_array_equal(res.map.f_series, last.f_series)
    psi0, trace = problem.evaluator.map(res.map.exit_series)
    np.testing.assert_array_equal(psi0, res.fields["psi"][0].data)
    np.testing.assert_array_equal(res.map.psi_exit_adjacent, trace)


def test_operator_built_once_on_first_modal_map(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    problem = discretize(desk_problem())
    assert problem.evaluator is None
    map_fields(psi_map(0.5, problem), problem, {3})
    assert isinstance(problem.evaluator, ModalStep) and len(calls) == 1
    for t in (0.5, 3.0, 10.0):
        psi_map(t, problem)
    assert len(calls) == 1


def test_modal_capture_converts_only_written_levels(example1_config, monkeypatch):
    """A map and a solve-mode capture turn modal coordinates into flat
    states (each balanced at its vertices) only at the levels kept: 0, the
    equilibrium level and the last. psi's level 1 takes one more step in
    ``psi_levels`` and one in the map's exit trace."""
    problem = discretize(replace(example1_config.spec, h_target=0.05))
    t = 5.0
    psi_map(t, problem)  # builds the eigenbasis
    written = {0, problem.time_grid.level_of(t), problem.time_grid.n_steps}

    rows = []
    balance = StepOperator.balance_vertices

    def counted(self, out, contrib):
        rows.append(1 if out.ndim == 1 else len(out))
        balance(self, out, contrib)

    monkeypatch.setattr(StepOperator, "balance_vertices", counted)
    phi, psi = map_fields(psi_map(t, problem), problem, written)
    assert phi.keys() == psi.keys() == written
    assert sum(rows) <= 2 * len(written) + 2, rows


def test_long_edge_capture_makes_no_sweep(monkeypatch):
    """One long edge with n_int = 700: the eigenbasis pays for the maps
    (many steps), and the capture evaluates only the written levels from it,
    as the sweeps give them."""
    topo = mn.build_network([(0, (0.0, 0.0)), (1, (7.01, 0.0))], [(0, 0, 1, 7.01)], 0)
    spec = mn.ProblemSpec(topology=topo, cost=mn.CostSpec(0.02, 0.15, 0.1, 0.0, 0.1),
                          theta=0.01, m0=lambda p: np.maximum(1 - np.abs(p[:, 0] - 3.5), 0.0),
                          h_target=0.01, max_iters=3)
    problem = discretize(spec)
    assert problem.grid.n_flat - problem.grid.n_vertices == 700
    assert modal_pays(problem.grid, problem.time_grid)

    with monkeypatch.context() as mp:
        mp.setattr(heat, "_run_sweep", lambda *a, **kw: pytest.fail("swept the capture"))
        res = fixed_point(problem)
    assert isinstance(problem.evaluator, ModalStep)
    with monkeypatch.context() as mp:
        _force_sweeps(mp)
        phi, psi = map_fields(psi_map(res.map.t_input, problem), problem, res.fields["phi"])
    assert res.fields["phi"].keys() == {0, res.equilibrium_level}
    for n in res.fields["phi"]:
        assert _rel(res.fields["phi"][n].data, phi[n].data) <= 1e-10
        assert _rel(res.fields["psi"][n].data, psi[n].data) <= 1e-10


def _gaussian(p):
    return np.exp(-(p**2).sum(axis=1))


def _crowd(p):
    """A crowd within 0.5 of vertex 0: on the exit leaf and next to it."""
    return np.maximum(0.25 - (p**2).sum(axis=1), 0.0)


def _lattice(side, h, t_max, chords=(), m0=_gaussian):
    """A side x side street lattice of unit edges plus ``chords``, with a
    leaf of length 0.5 to the exit and the crowd ``m0``."""
    vertices = [(i * side + j, (float(j), float(i))) for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                edges.append((len(edges), i * side + j, i * side + j + 1, 1.0))
            if i + 1 < side:
                edges.append((len(edges), i * side + j, (i + 1) * side + j, 1.0))
    for a, b in chords:
        edges.append((len(edges), a, b, float(np.hypot(*np.subtract(vertices[a][1], vertices[b][1])))))
    vertices.append((side * side, (0.5, 0.5)))
    edges.append((len(edges), side * side, 0, 0.5))
    topo = mn.build_network(vertices, edges, side * side)
    return mn.ProblemSpec(topology=topo, cost=mn.CostSpec(0.02, t_max, 0.1, 0.0, 0.1),
                          theta=0.01, m0=m0, h_target=h)


KRYLOV_INSTANCES = {
    "lattice6": lambda: _lattice(6, 0.05, 0.1),
    "lattice6_crowd": lambda: _lattice(6, 0.05, 0.1, m0=_crowd),
    "lattice6_abs": lambda: _lattice(6, 0.05, 0.1, m0=lambda p: np.linalg.norm(p, axis=1)),
    "lattice4_chords": lambda: _lattice(4, 0.1, 1.0, chords=[(0, 5), (6, 15)]),
    **{f"tree{k}": (lambda k=k: _random_tree(k)) for k in range(4)},
}


@pytest.fixture(params=list(KRYLOV_INSTANCES), scope="module")
def krylov_problem(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return discretize(KRYLOV_INSTANCES[request.param]())


def _reference(problem, exit_series, levels):
    """phi at level 0 and ``levels`` and psi at ``levels``, psi0 and psi's
    exit trace, from the reference sweeps."""
    grid, tg = problem.grid, problem.time_grid
    phi = solve_backward_phi(grid, tg, exit_series, snapshot_levels=[0, *levels])
    psi = solve_forward_psi(grid, tg, problem.m0, phi.initial, snapshot_levels=levels)
    return {
        "map psi0": psi.initial.data,
        "map trace": psi.exit_adjacent,
        "phi_levels": np.array([phi.snapshots[n].data for n in [0, *levels]]),
        "psi_levels": np.array([psi.snapshots[n].data for n in levels]),
    }


def _evaluations(step, exit_series, psi0, levels):
    psi0_map, trace = step.map(exit_series)
    return {"map psi0": psi0_map, "map trace": trace,
            "phi_levels": step.phi_levels(exit_series, [0, *levels]),
            "psi_levels": step.psi_levels(psi0, levels)}


def test_evaluators_share_one_interface(monkeypatch):
    """ModalStep and LanczosStep, built directly on one problem, share the
    base's one candidate map and agree with the reference sweeps on all
    three evaluations and on the map's two halves: phi0 (on a LanczosStep
    only on the nodes S that a map reads) and the exit trace from level 1.
    Past its level rule a LanczosStep's fields are those sweeps' to the last
    bit, with rows in the order of the levels asked for."""
    assert ModalStep.map is LanczosStep.map is heat.Evaluator.map
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(KRYLOV_INSTANCES["lattice4_chords"]())
    grid, tg, costs = problem.grid, problem.time_grid, problem.spec.cost
    levels = [1, 7, tg.n_steps // 2, tg.n_steps]
    exit_series = np.exp(mfg.cost(tg.times, 0.5 * (costs.t0 + costs.t_max), costs))
    reference = _reference(problem, exit_series, levels)
    psi0 = reference["map psi0"]
    phi0, level_one = reference["phi_levels"][0], reference["psi_levels"][0]

    lanczos_step = LanczosStep(grid, tg, problem.m0)
    assert not lanczos_step._sweeps(len(levels))
    for step in (ModalStep(grid, tg, problem.m0), lanczos_step):
        name = type(step).__name__
        for field, value in _evaluations(step, exit_series, psi0, levels).items():
            assert _rel(value, reference[field]) <= 1e-9, (name, field)
        read = lanczos_step.reach if step is lanczos_step else slice(None)
        assert _rel(step.phi0(exit_series)[read], phi0[read]) <= 1e-9, name
        assert _rel(step.exit_trace(level_one), reference["map trace"][1:]) <= 1e-9, name

    monkeypatch.setattr(lanczos, "KRYLOV_FIELD_RATIO", 0.0)
    assert lanczos_step._sweeps(1)
    for name in ("phi_levels", "psi_levels"):
        value = _evaluations(lanczos_step, exit_series, psi0, levels)[name]
        np.testing.assert_array_equal(value, reference[name], err_msg=name)
    np.testing.assert_array_equal(lanczos_step.phi_levels(exit_series, levels[::-1]),
                                  reference["phi_levels"][:0:-1])


@pytest.mark.parametrize("n_steps", [2, 4, 45])
def test_lanczos_on_few_steps(n_steps, monkeypatch):
    """On a grid too large for the eigenbasis, with 2, 4 and 45 steps, the
    Lanczos maps give F within 1e-12 of the reference sweeps' and the fields
    from its bases are within 1e-9, at every level."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(KRYLOV_INSTANCES["lattice6"]())
    dt = problem.time_grid.dt
    problem = replace(problem, time_grid=mn.TimeGrid(dt=dt, n_steps=n_steps, t_max=n_steps * dt))
    assert not modal_pays(problem.grid, problem.time_grid)
    _assert_lanczos_matches_sweeps(problem, monkeypatch)


def _small_star():
    """A 3-edge star with 9 interior nodes, 64 steps."""
    topo = mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0)), (2, (2.0, 0.0)), (3, (1.0, 1.0))],
                            [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 1, 3, 1.0)], 0)
    spec = mn.ProblemSpec(topology=topo, cost=mn.CostSpec(0.1, 1.0, 0.5, 0.0, 0.2), theta=0.3,
                          m0=lambda p: np.maximum(0.8 - np.hypot(p[:, 0] - 1, p[:, 1]), 0.0),
                          h_target=0.25)
    return discretize(spec)


def test_lanczos_on_fewer_nodes_than_its_first_check(monkeypatch):
    """A grid with fewer interior nodes than the 16 vectors a basis builds
    before its first error check, evaluated by a LanczosStep."""
    problem = _small_star()
    assert problem.grid.n_flat - problem.grid.n_vertices < 16
    _assert_lanczos_matches_sweeps(problem, monkeypatch)


def test_lanczos_basis_stops_at_its_invariant_subspace():
    """On the small star both bases reach a beta at rounding level by m = 6
    (the Krylov space from the exit, by the star's symmetry, has 6
    dimensions), and stop there instead of growing to 16 on noise."""
    problem = _small_star()
    tg, costs = problem.time_grid, problem.spec.cost
    step = LanczosStep(problem.grid, tg, problem.m0)
    psi0, _ = step.map(np.exp(mfg.cost(tg.times, 0.5 * (costs.t0 + costs.t_max), costs)))
    density = lanczos._LanczosBasis(step.operator, step._level_one(psi0), step.n_steps)
    for basis in (step.pins, density):
        assert basis.m <= 6
        assert basis.beta[-1] <= lanczos._INVARIANT_BETA
        assert len(basis.alpha) == basis.m


def test_lanczos_blocks_with_a_short_last_block(monkeypatch):
    """Bases whose m is not a multiple of the block size end in a short
    block; the maps and fields from them match the reference sweeps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(KRYLOV_INSTANCES["lattice4_chords"]())
    step = LanczosStep(problem.grid, problem.time_grid, problem.m0)
    assert step.pins.m % lanczos._BLOCK != 0
    _assert_lanczos_matches_sweeps(problem, monkeypatch)


def test_density_basis_checks_its_bound_near_the_maps_size(monkeypatch):
    """On a street lattice the density's basis first checks its bound 8
    vectors short of the maps' basis size, and checks it at most twice
    (six times when it started at 16 as the maps' basis does); it still
    stops only at its bound, and psi matches the reference sweep."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(_lattice(6, 0.05, 2.0))
    _force_krylov(monkeypatch)
    res = psi_map(1.0, problem)
    step, n = problem.evaluator, problem.time_grid.n_steps
    checks, bound = [], lanczos._LanczosBasis._bound
    monkeypatch.setattr(lanczos._LanczosBasis, "_bound",
                        lambda basis, m: checks.append((m, bound(basis, m))) or checks[-1][1])
    psi = step.psi_levels(res.psi0, [1, n // 2, n])
    assert checks[0][0] == step.pins.m - 8 and len(checks) <= 2
    assert [b <= heat.KRYLOV_TOL for _, b in checks] == [False] * (len(checks) - 1) + [True]
    reference = _reference(problem, res.exit_series, [1, n // 2, n])["psi_levels"]
    assert _rel(psi, reference) <= 1e-9


def _assert_lanczos_matches_sweeps(problem, monkeypatch):
    grid, tg, costs = problem.grid, problem.time_grid, problem.spec.cost
    levels = list(range(1, tg.n_steps + 1))
    exit_series = np.exp(mfg.cost(tg.times, 0.5 * (costs.t0 + costs.t_max), costs))
    reference = _reference(problem, exit_series, levels)
    step = LanczosStep(grid, tg, problem.m0)
    f_ref = cumulative_flow(reference["map trace"], exit_series, grid, tg)
    # every level from the bases, whatever the level rule
    monkeypatch.setattr(lanczos, "KRYLOV_FIELD_RATIO", np.inf)
    got = _evaluations(step, exit_series, reference["map psi0"], levels)
    trace = got["map trace"]
    _clip_rounding(trace, got["map psi0"])
    assert np.abs(cumulative_flow(trace, exit_series, grid, tg) - f_ref).max() <= 1e-12
    np.testing.assert_array_equal(got["map psi0"], psi_initial(
        problem.m0, mn.GridField(grid, step.phi_levels(exit_series, [0])[0])))
    for name in ("map psi0", "phi_levels", "psi_levels"):
        assert _rel(got[name], reference[name]) <= 1e-9, name


def test_rows_do_not_depend_on_the_other_levels(monkeypatch):
    """Each evaluator's phi and psi at a level, asked with many other levels
    and asked alone, are equal to the last bit: ModalStep's, and
    LanczosStep's from its bases and swept (past level 0, which a map asks
    alone and which always takes the bases)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(KRYLOV_INSTANCES["lattice4_chords"]())
    grid, tg, costs = problem.grid, problem.time_grid, problem.spec.cost
    n = tg.n_steps
    levels = sorted({1, 2, 7, n // 3, n // 2, n - 1, n, *range(5, n, 13)})
    exit_series = np.exp(mfg.cost(tg.times, 0.5 * (costs.t0 + costs.t_max), costs))
    for step, ratio in ((ModalStep(grid, tg, problem.m0), None),
                        (LanczosStep(grid, tg, problem.m0), np.inf),
                        (LanczosStep(grid, tg, problem.m0), 0.0)):
        if ratio is not None:
            monkeypatch.setattr(lanczos, "KRYLOV_FIELD_RATIO", ratio)
        psi0 = step.map(exit_series)[0]
        phi_asked = levels if ratio == 0.0 else [0, *levels]
        for name, method, start, asked in (("phi", step.phi_levels, exit_series, phi_asked),
                                           ("psi", step.psi_levels, psi0, levels)):
            together = method(start, asked)
            for row, level in zip(together, asked):
                np.testing.assert_array_equal(
                    row, method(start, [level])[0],
                    err_msg=f"{type(step).__name__} {ratio} {name} {level}")


def test_krylov_map_matches_sweep(krylov_problem, monkeypatch):
    problem, spec = krylov_problem, krylov_problem.spec
    t0, t_max = spec.cost.t0, spec.cost.t_max
    for t in (t0, 0.5 * (t0 + t_max), t_max):
        with monkeypatch.context() as mp:
            _force_krylov(mp)
            krylov = psi_map(t, problem)
            krylov_phi0 = map_phi(krylov, problem, [0])[0]
            krylov_psi0 = problem.evaluator.map(krylov.exit_series)[0]
        with monkeypatch.context() as mp:
            swept = _force_sweeps(mp)
            sweep = psi_map(t, problem)
            assert len(swept) == 2
            sweep_phi0 = map_phi(sweep, problem, [0])[0]
        assert isinstance(problem.evaluator, LanczosStep)
        assert krylov.t_star == sweep.t_star
        assert krylov.crossing_level == sweep.crossing_level
        assert np.abs(krylov.f_series - sweep.f_series).max() <= 1e-12
        assert (np.diff(krylov.f_series) >= 0).all()

        # the map's psi0, from phi0 on the crowd's reach alone, is m0 over
        # phi at level 0 to the last bit
        np.testing.assert_array_equal(krylov.psi0, krylov_psi0)
        np.testing.assert_array_equal(
            krylov_psi0, psi_initial(problem.m0, mn.GridField(problem.grid, krylov_phi0)))
        assert _rel(krylov_phi0, sweep_phi0) <= 1e-10


@pytest.mark.parametrize("name, recorded", [("lattice6_crowd", True), ("lattice6_abs", False)])
def test_krylov_map_replays_only_past_the_reach_rule(name, recorded, monkeypatch):
    """A crowd whose reach S passes ``krylov_reach_pays`` has the maps'
    basis kept on S by the build, and a map with the basis built runs no
    recurrence step; for a crowd on every node, each map replays the basis
    for its two reads on S."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(KRYLOV_INSTANCES[name]())
    _force_krylov(monkeypatch)
    psi_map(0.05, problem)  # builds the basis
    basis = problem.evaluator.pins
    assert (basis.on_nodes is not None) == recorded
    assert krylov_reach_pays(len(np.flatnonzero(problem.m0.data)), problem.grid.n_flat) == recorded

    steps = []
    recurrence = lanczos._LanczosBasis._recurrence

    def counted(self):
        for w in recurrence(self):
            steps.append(self)
            yield w

    monkeypatch.setattr(lanczos._LanczosBasis, "_recurrence", counted)
    for t in (0.02, 0.05, 0.1):
        psi_map(t, problem)
    assert len(steps) == (0 if recorded else 3 * 2 * basis.m)
    assert all(s is basis for s in steps)


def test_krylov_row_source_leaves_the_map_unchanged(monkeypatch):
    """The basis rows on the crowd's reach, kept by the build or replayed
    for each read, give the same psi0, exit trace and F to the last bit."""
    _force_krylov(monkeypatch)
    maps = []
    for share in (0.0, 1.0):
        monkeypatch.setattr(lanczos, "KRYLOV_REACH_SHARE", share)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            problem = discretize(KRYLOV_INSTANCES["lattice6_crowd"]())
        maps.append(psi_map(0.05, problem))
        assert (problem.evaluator.pins.on_nodes is not None) == (share == 1.0)
    replayed, kept = maps
    np.testing.assert_array_equal(replayed.psi0, kept.psi0)
    np.testing.assert_array_equal(replayed.psi_exit_adjacent, kept.psi_exit_adjacent)
    np.testing.assert_array_equal(replayed.f_series, kept.f_series)


def test_krylov_capture_matches_sweep(krylov_problem, monkeypatch):
    """Fields at the requested levels and psi's exit trace on every level,
    evaluated from Lanczos bases, against the time-stepping sweeps."""
    problem, spec = krylov_problem, krylov_problem.spec
    n_steps = problem.time_grid.n_steps
    levels = {0, 1, 7, n_steps // 2, n_steps}
    t = 0.5 * (spec.cost.t0 + spec.cost.t_max)
    with monkeypatch.context() as mp:
        _force_krylov(mp)
        krylov = psi_map(t, problem)
        krylov_fields = map_fields(krylov, problem, levels)
    with monkeypatch.context() as mp:
        _force_sweeps(mp)
        sweep = psi_map(t, problem)
        sweep_fields = map_fields(sweep, problem, levels)
    assert isinstance(problem.evaluator, LanczosStep)

    assert krylov.t_star == sweep.t_star
    assert np.abs(krylov.f_series - sweep.f_series).max() <= 1e-12
    assert (np.diff(krylov.f_series) >= 0).all()
    for k, s in zip(krylov_fields, sweep_fields):
        assert k.keys() == s.keys() == levels
        for n in levels:
            assert _rel(k[n].data, s[n].data) <= 1e-9
    assert _rel(krylov.psi_exit_adjacent, sweep.psi_exit_adjacent) <= 1e-9
    np.testing.assert_array_equal(krylov.exit_series, sweep.exit_series)


def test_sweep_path_builds_one_operator(monkeypatch):
    """Where a LanczosStep sweeps its fields, the problem's evaluator builds
    one exit-pinned StepOperator for all of its maps and fields: the fields'
    two sweeps run on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(_lattice(4, 0.1, 1.0, chords=[(0, 5), (6, 15)]))
    _force_krylov(monkeypatch, field_ratio=0.0)
    _in_caller(monkeypatch)
    swept = _record_sweeps(monkeypatch)
    built = []
    init = StepOperator.__init__
    monkeypatch.setattr(StepOperator, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    res = fixed_point(problem, snapshot_levels={5})
    assert res.iterations > 1 and swept == [True, False]
    assert len(built) == 1 and isinstance(problem.evaluator, LanczosStep)


def test_fixed_point_krylov_same_as_sweep(monkeypatch):
    spec = _lattice(4, 0.1, 1.0, chords=[(0, 5), (6, 15)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        krylov_problem, sweep_problem = discretize(spec), discretize(spec)
    with monkeypatch.context() as mp:
        _force_krylov(mp)
        mp.setattr(heat, "_run_sweep", lambda *a, **kw: pytest.fail("swept on the Lanczos path"))
        krylov = fixed_point(krylov_problem, snapshot_levels={5})
    with monkeypatch.context() as mp:
        _force_sweeps(mp)
        sweep = fixed_point(sweep_problem, snapshot_levels={5})
    assert isinstance(krylov_problem.evaluator, LanczosStep)
    assert sweep_problem.evaluator is None

    assert krylov.iterates == sweep.iterates
    assert krylov.t_star == sweep.t_star
    assert krylov.equilibrium_level == sweep.equilibrium_level
    assert np.abs(krylov.map.f_series - sweep.map.f_series).max() <= 1e-12
    assert _rel(krylov.map.psi_exit_adjacent, sweep.map.psi_exit_adjacent) <= 1e-9
    for name in ("phi", "psi", "u", "m"):
        assert krylov.fields[name].keys() == sweep.fields[name].keys()
        for n in krylov.fields[name]:
            assert _rel(krylov.fields[name][n].data, sweep.fields[name][n].data) <= 1e-9


def test_krylov_capture_sweeps_many_levels(monkeypatch):
    """On a grid where the maps take the Lanczos path, a capture that writes
    a few levels takes it too, and one that writes many levels sweeps, as
    the reference sweeps do to the last bit: the level rule counts the
    levels written against the maps' basis."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(_lattice(6, 0.05, 2.0))
    tg = problem.time_grid
    assert not modal_pays(problem.grid, tg)
    many = set(range(0, tg.n_steps + 1, tg.n_steps // 40))

    _in_caller(monkeypatch)
    swept = _record_sweeps(monkeypatch)
    few = fixed_point(problem)
    step = problem.evaluator
    assert swept == [] and isinstance(step, LanczosStep)
    assert not step._sweeps(len(few.fields["phi"]) - 1) and step._sweeps(len(many - {0}))
    res = fixed_point(problem, snapshot_levels=many)
    assert swept == [True, False]  # the capture's two sweeps, the maps none
    assert res.iterates == few.iterates
    assert res.fields["phi"].keys() == many | {0, res.equilibrium_level}
    asked = sorted(res.fields["phi"])
    reference = _reference(problem, res.map.exit_series, asked[1:])
    np.testing.assert_array_equal([res.fields["phi"][n].data for n in asked],
                                  reference["phi_levels"])


def test_krylov_holds_no_basis(monkeypatch):
    """A Lanczos map, its basis build and a capture each stay far below the
    memory of the m x n_int basis they use."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(_lattice(6, 0.05, 0.5))
    _force_krylov(monkeypatch)
    _in_caller(monkeypatch)
    tracemalloc.start()
    try:
        for levels in ((), (), {0, 100, 400}):
            tracemalloc.reset_peak()
            map_fields(psi_map(0.3, problem), problem, levels)
            peak = tracemalloc.get_traced_memory()[1]
            basis = problem.evaluator.pins.m * problem.evaluator.operator.n_interior * 8
            assert peak < basis, (levels, peak, basis)
    finally:
        tracemalloc.stop()


def test_error_in_psi_worker_reaches_the_caller(monkeypatch):
    """With a spare CPU, a LanczosStep's psi fields are evaluated by a forked
    worker while the caller forms phi and u and runs ``on_value``. An error
    raised there reaches the caller with its own type, after ``on_value``
    ran, and no worker is left."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(_lattice(4, 0.1, 1.0, chords=[(0, 5), (6, 15)]))
    _force_krylov(monkeypatch)
    monkeypatch.setattr(workers, "spare_cpus", lambda: 1)
    caller = os.getpid()

    def failing(self, psi0, levels):
        raise NumericalFailure("in the caller" if os.getpid() == caller else "in the worker")

    monkeypatch.setattr(LanczosStep, "psi_levels", failing)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    values = []
    with pytest.raises(NumericalFailure, match="in the worker"):
        fixed_point(problem, snapshot_levels={5},
                    on_value=lambda result: values.append((result, len(forks))))
    assert isinstance(problem.evaluator, LanczosStep)
    [(result, beside)] = values
    assert beside == 1 and result.fields["u"].keys() == {0, 5, result.equilibrium_level}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_modal_fields_fork_nothing(example1_config, monkeypatch):
    """On example1, whose grids take the modal path, the field phase forks
    no worker, however many CPUs are spare."""
    problem = discretize(replace(example1_config.spec, h_target=0.05))
    monkeypatch.setattr(workers, "spare_cpus", lambda: 3)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    values = []
    res = fixed_point(problem, snapshot_levels={100, 200},
                      on_value=lambda result: values.append(len(forks)))
    assert isinstance(problem.evaluator, ModalStep) and values == [0]
    assert res.fields["psi"].keys() == {0, 100, 200, res.equilibrium_level} and not forks


def test_negative_rounding_in_a_fast_trace():
    psi0 = np.array([0.0, 3.0, -0.5])
    trace = np.array([0.0, -1e-14, 2e-9, 1.0])
    _clip_rounding(trace, psi0)
    np.testing.assert_array_equal(trace, [0.0, 0.0, 2e-9, 1.0])
    with pytest.raises(NumericalFailure):
        _clip_rounding(np.array([0.0, -1e-9, 2.0]), psi0)


def test_grid_over_cutoff_makes_no_eigh(monkeypatch):
    """Over the eigh cutoff the maps and fields take the Lanczos bases, with
    no eigh and no sweep, however few the steps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(_lattice(6, 0.05, 0.1))
    assert not modal_pays(problem.grid, problem.time_grid)

    def no_eigh(a):
        raise AssertionError("eigh called above the cutoff")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    swept = _record_sweeps(monkeypatch)
    assert problem.time_grid.n_steps == 160
    map_fields(psi_map(0.05, problem), problem, {3})
    assert isinstance(problem.evaluator, LanczosStep) and swept == []


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_psi_map_unit_tests_take_the_modal_path(h):
    """TestPsiMap runs psi_map on these grids, so its checks hold on the
    modal path."""
    problem = discretize(desk_problem(h=h))
    assert modal_pays(problem.grid, problem.time_grid)
    psi_map(5.0, problem)
    assert isinstance(problem.evaluator, ModalStep)


def _cycling_spec(max_iters=50):
    """A unit edge whose lateness cost makes the map jump between 0.1 and
    1.7625, a 2-cycle, on a grid where the modal path pays."""
    topo = mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 0, 1, 1.0)], 0)
    return mn.ProblemSpec(topology=topo, cost=mn.CostSpec(0.1, 2.0, 0.1, 5.0, 0.0),
                          theta=0.3, m0=lambda p: np.maximum(1 - np.abs(2 * p[:, 0] - 1), 0.0),
                          h_target=0.1, max_iters=max_iters)


def _record_maps(mp) -> list:
    """Record every result of ``psi_map`` as ``fixed_point`` calls it."""
    real, maps = mfg.psi_map, []
    mp.setattr(mfg, "psi_map", lambda t, problem: maps.append(real(t, problem)) or maps[-1])
    return maps


@pytest.mark.parametrize("path", ["modal", "krylov", "krylov_reach", "sweep"])
def test_converged_fixed_point_maps_each_candidate_once(path, example1_config, monkeypatch):
    """A converged loop makes no map beyond its iterations: the fields and
    F come from the last iteration's map, on the modal path and on the
    Lanczos one (with and without its basis recorded on the crowd's reach,
    and with its fields swept)."""
    if path == "modal":
        spec = replace(example1_config.spec, h_target=0.1)
    else:
        spec = _lattice(4, 0.1, 1.0, chords=[(0, 5), (6, 15)],
                        m0=_crowd if path == "krylov_reach" else _gaussian)
        _force_krylov(monkeypatch, field_ratio=0.0 if path == "sweep" else np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problem = discretize(spec)
    maps = _record_maps(monkeypatch)
    res = fixed_point(problem, snapshot_levels={5})
    assert res.converged and len(maps) == res.iterations
    assert isinstance(problem.evaluator, ModalStep if path == "modal" else LanczosStep)
    assert (path != "modal" and problem.evaluator.pins.on_nodes is not None) == (
        path == "krylov_reach")
    assert maps[-1].t_input == res.map.t_input
    np.testing.assert_array_equal(res.map.f_series, maps[-1].f_series)
    np.testing.assert_array_equal(res.map.psi_exit_adjacent, maps[-1].psi_exit_adjacent)
    levels = sorted(res.fields["phi"])
    np.testing.assert_array_equal([res.fields["phi"][n].data for n in levels],
                                  map_phi(maps[-1], problem, levels))


@pytest.mark.parametrize("max_iters", [50, 2], ids=["cycle", "max_iters"])
def test_unmapped_capture_candidate_is_mapped_once(max_iters, monkeypatch):
    """A 2-cycle's midpoint, or the last iterate after max_iters, was never
    mapped: the capture maps it, once."""
    maps = _record_maps(monkeypatch)
    res = fixed_point(_cycling_spec(max_iters), snapshot_levels={5})
    assert not res.converged
    assert res.cycle_detected == (max_iters == 50)
    assert len(maps) == res.iterations + 1
    assert maps[-1].t_input == res.map.t_input
    assert res.map.t_input not in [m.t_input for m in maps[:-1]]
    np.testing.assert_array_equal(res.map.f_series, maps[-1].f_series)
