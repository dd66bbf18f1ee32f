from dataclasses import replace

import numpy as np
import pytest

from gridres.baselines import TrainedPolicy, build_trainer
from gridres.config import resolve_dict
from gridres.grid import CostBreakdown, DispatchResult
from gridres.harness import build_dataset, build_env, run_days, seed_stream
from gridres.maddpg import TrainSettings
from gridres.powerflow import (
    MAX_ITER,
    V_BAND,
    Branch,
    FeasibilityReport,
    FeederTopology,
    TopologyError,
    _feeder_tree,
    check_dispatch,
    dispatch_injections,
    load_ieee33,
    solve_bfs,
)
from test_harness_helpers import table_config


def power_summation_sweep(topology, p_mw, q_mvar=None, tol=1e-10, max_iter=200,
                          slack=None):
    """Independent oracle: sweep formulated on complex power flows.

    Accumulates downstream complex power (including series losses computed
    from |S|^2 / |V|^2) instead of currents, then drops voltages using
    V_child = V_parent - Z * conj(S / V_parent).
    """
    slack = topology.slack_bus if slack is None else slack
    q_mvar = q_mvar or {}
    children = {b: [] for b in topology.buses}
    parent_z = {}
    # Orient the tree by repeatedly attaching branches touching known buses.
    known = {slack}
    remaining = list(topology.branches)
    while remaining:
        progressed = False
        for br in list(remaining):
            if br.from_bus in known and br.to_bus not in known:
                up, down = br.from_bus, br.to_bus
            elif br.to_bus in known and br.from_bus not in known:
                up, down = br.to_bus, br.from_bus
            else:
                continue
            children[up].append(down)
            parent_z[down] = (up, complex(br.r_ohm, br.x_ohm) / topology.z_base)
            known.add(down)
            remaining.remove(br)
            progressed = True
        if not progressed:
            raise ValueError("not a tree")

    s_bus = {b: complex(p_mw.get(b, 0.0), q_mvar.get(b, 0.0)) / topology.base_mva
             for b in topology.buses}
    v = {b: complex(1.0, 0.0) for b in topology.buses}

    def subtree_power(bus):
        s = s_bus[bus] if bus != slack else 0.0
        for child in children[bus]:
            s_child = subtree_power(child)
            _, z = parent_z[child]
            loss = z * abs(s_child) ** 2 / abs(v[child]) ** 2
            flows[child] = s_child
            s += s_child + loss
        return s

    for _ in range(max_iter):
        flows = {}
        subtree_power(slack)
        max_dv = 0.0
        stack = [slack]
        while stack:
            bus = stack.pop()
            for child in children[bus]:
                _, z = parent_z[child]
                # Branch current referenced to the receiving bus voltage.
                new_v = v[bus] - z * np.conj(flows[child] / v[child])
                max_dv = max(max_dv, abs(new_v - v[child]))
                v[child] = new_v
                stack.append(child)
        if max_dv < tol:
            break
    return {b: abs(v[b]) for b in topology.buses}


def reference_solve_bfs(topology, p_mw, q_mvar=None, tol=1e-8, slack_bus=None):
    """The solve with the real path matrix cast to complex in every product
    and per-bus dicts in and out; returns (v_mag, branch_loss_mw,
    total_loss_mw, converged, iterations)."""
    slack = topology.slack_bus if slack_bus is None else slack_bus
    tree = _feeder_tree(topology, slack)
    nodes, z = tree.nodes, tree.z
    index = {bus: k for k, bus in enumerate(nodes)}
    path = np.ascontiguousarray(tree.bcbv.real)
    q_mvar = q_mvar or {}
    s = np.array([complex(p_mw.get(bus, 0.0), q_mvar.get(bus, 0.0))
                  for bus in nodes]) / topology.base_mva

    v = np.ones(len(nodes), dtype=complex)
    i_br = np.zeros(len(nodes), dtype=complex)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        i_br = path.T @ np.conj(s / v)  # BIBC: branch current from injections
        new_v = 1.0 - path @ (z * i_br)  # BCBV: bus voltage from branch currents
        max_dv = np.max(np.abs(new_v - v), initial=0.0)
        v = new_v
        if max_dv < tol:
            converged = True
            break

    loss = np.abs(i_br) ** 2 * z.real * topology.base_mva
    losses = {key: float(l) for key, l in zip(tree.branch_keys, loss)}
    v_mag = np.abs(v).tolist()
    return ({b: 1.0 if b == slack else v_mag[index[b]] for b in topology.buses},
            losses, sum(losses.values()), converged, iterations)


def reference_check_dispatch(topology, config, result):
    """check_dispatch over reference_solve_bfs, reading the dicts."""
    slack = topology.slack_bus
    if not result.connected:
        online = [(p, spec.bus) for spec, p in zip(config.generators, result.p_gen)
                  if p > 0.0]
        if online:
            slack = max(online)[1]
        elif config.generators:
            slack = max((g.p_max, g.bus) for g in config.generators)[1]
        else:
            slack = config.ess[0].bus
    inj = dispatch_injections(topology, config, result)
    inj[slack] = 0.0  # slack bus absorbs its own injection plus losses
    v_mag, _, total_loss_mw, converged, _ = reference_solve_bfs(
        topology, inj, slack_bus=slack)
    lo, hi = V_BAND
    violations = tuple((bus, v) for bus, v in sorted(v_mag.items())
                       if not lo <= v <= hi)
    mags = list(v_mag.values())
    return FeasibilityReport(
        converged=converged,
        slack_bus=slack,
        violations=violations if converged else tuple(),
        v_min=min(mags),
        v_max=max(mags),
        loss_mw=total_loss_mw,
    )


def bus_voltages(sol):
    return dict(zip(sol.buses, sol.v_bus.tolist()))


def branch_losses(sol):
    return dict(zip(sol.branch_keys, sol.loss.tolist()))


def solution_fields(sol):
    return (bus_voltages(sol), branch_losses(sol), sol.total_loss_mw,
            sol.converged, sol.iterations)


def two_bus(r=0.01, x=0.01):
    # Impedance given in pu directly: pick base so z_base == 1.
    return FeederTopology(buses=(1, 2), branches=(Branch(1, 2, r, x),),
                          base_kv=1.0, base_mva=1.0, slack_bus=1)


class TestSolveBfs:
    def test_zero_injections_flat_profile(self):
        topo = load_ieee33()
        sol = solve_bfs(topo, {})
        assert sol.converged
        assert all(v == pytest.approx(1.0, abs=1e-12)
                   for v in bus_voltages(sol).values())
        assert sol.total_loss_mw == pytest.approx(0.0, abs=1e-12)

    def test_single_branch_matches_scalar_fixed_point(self):
        topo = two_bus()
        sol = solve_bfs(topo, {2: 0.1}, tol=1e-12)
        z = complex(0.01, 0.01)
        v = complex(1.0, 0.0)
        for _ in range(200):
            v = 1.0 - z * np.conj(complex(0.1, 0.0) / v)
        assert bus_voltages(sol)[2] == pytest.approx(abs(v), abs=1e-8)

    def test_ieee33_base_case_matches_independent_oracle(self):
        topo = load_ieee33()
        sol = solve_bfs(topo, topo.nominal_load_mw, topo.nominal_load_mvar,
                        tol=1e-10)
        oracle = power_summation_sweep(topo, topo.nominal_load_mw,
                                       topo.nominal_load_mvar)
        assert sol.converged
        v_mag = bus_voltages(sol)
        for bus in topo.buses:
            assert v_mag[bus] == pytest.approx(oracle[bus], abs=1e-4)
        # Known shape of the base case: the weakest bus is at the main
        # feeder's end and sits a little above 0.90 pu.
        v_min_bus = min(v_mag, key=v_mag.get)
        assert v_min_bus == 18
        assert 0.90 < v_mag[18] < 0.92

    def test_losses_nonnegative_and_injections_balance(self):
        topo = load_ieee33()
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = {b: rng.uniform(0, 0.2) for b in topo.buses if b != 1}
            sol = solve_bfs(topo, p, tol=1e-12)
            assert sol.converged
            losses = branch_losses(sol)
            assert all(l >= 0 for l in losses.values())
            # Slack supplies loads plus losses: current flows out of bus 1,
            # so the branches leaving it carry a positive loss.
            root_loss = sum(l for (up, _), l in losses.items() if up == 1)
            assert root_loss > 0

    def test_branch_order_invariance(self):
        topo = load_ieee33()
        rng = np.random.default_rng(1)
        shuffled = list(topo.branches)
        rng.shuffle(shuffled)
        topo2 = FeederTopology(buses=topo.buses, branches=tuple(shuffled),
                               nominal_load_mw=topo.nominal_load_mw,
                               nominal_load_mvar=topo.nominal_load_mvar)
        a = solve_bfs(topo, topo.nominal_load_mw, topo.nominal_load_mvar)
        b = solve_bfs(topo2, topo.nominal_load_mw, topo.nominal_load_mvar)
        assert bus_voltages(a) == bus_voltages(b)

    def test_voltage_drops_along_loaded_path(self):
        topo = load_ieee33()
        p = {b: 0.1 for b in topo.buses if b != 1}
        v_mag = bus_voltages(solve_bfs(topo, p))
        main = list(range(1, 19))  # buses 1..18 form the trunk
        for up, down in zip(main, main[1:]):
            assert v_mag[down] < v_mag[up]

    def test_cached_tree_per_feeder_and_slack(self):
        """Solves reuse each (feeder, slack) tree: slack A, B, then A again,
        and a feeder with one branch's impedance changed, each give the
        bytes of a solve on a fresh, uncached copy of its feeder."""
        base = load_ieee33()
        branches = list(base.branches)
        branches[5] = replace(branches[5], r_ohm=2.0 * branches[5].r_ohm)
        other = replace(base, branches=tuple(branches))
        p = {b: 0.05 for b in base.buses}
        for topo, slack in ((base, 1), (base, 18), (base, 1), (other, 1),
                            (other, 18), (base, 18)):
            got = solve_bfs(topo, p, slack_bus=slack)
            want = solve_bfs(replace(topo), p, slack_bus=slack)
            assert repr(solution_fields(got)) == repr(solution_fields(want)), (
                topo is other, slack)
        assert bus_voltages(solve_bfs(other, p))[33] != \
            bus_voltages(solve_bfs(base, p))[33]

    def test_cycle_rejected(self):
        topo = FeederTopology(
            buses=(1, 2, 3),
            branches=(Branch(1, 2, 0.1, 0.1), Branch(2, 3, 0.1, 0.1),
                      Branch(3, 1, 0.1, 0.1)),
        )
        with pytest.raises(TopologyError):
            solve_bfs(topo, {})


class TestSameBitsAsReference:
    """The solve and the audit give, field for field, the bits of the
    dict-based reference above (repr of a float is exact)."""

    def test_solves_with_reactive_power_and_moved_slack(self):
        topo = load_ieee33()
        rng = np.random.default_rng(3)
        cases = [(topo.nominal_load_mw, topo.nominal_load_mvar, slack)
                 for slack in (1, 6, 25, 33)]
        for _ in range(20):
            p = {b: rng.uniform(-0.3, 0.4) for b in topo.buses}
            q = {b: rng.uniform(-0.1, 0.2) for b in topo.buses if rng.random() < 0.7}
            cases.append((p, q, int(rng.choice(topo.buses))))
        for p, q, slack in cases:
            got = solve_bfs(topo, p, q, slack_bus=slack)
            want = reference_solve_bfs(topo, p, q, slack_bus=slack)
            assert repr(solution_fields(got)) == repr(want), slack
        assert any(topo.nominal_load_mvar.values())

    def test_solve_at_max_iter_without_converging(self):
        topo = load_ieee33()
        got = solve_bfs(topo, topo.nominal_load_mw, topo.nominal_load_mvar,
                        slack_bus=18)
        want = reference_solve_bfs(topo, topo.nominal_load_mw,
                                   topo.nominal_load_mvar, slack_bus=18)
        assert not got.converged and got.iterations == MAX_ITER
        assert repr(solution_fields(got)) == repr(want)

    def test_connected_and_islanded_slots(self):
        topo = load_ieee33()
        config = table_config()
        online = [0.0] * len(config.generators)
        online[1] = 0.8
        results = [make_result(config, load_scale=scale, connected=connected,
                               gens=gens)
                   for scale in (0.0, 0.05, 0.3, 1.0, 10.0)
                   for connected, gens in ((True, None), (False, online),
                                           (False, None))]
        for result in results:
            got = check_dispatch(topo, config, result)
            assert repr(got) == repr(reference_check_dispatch(topo, config, result))
        assert {r.connected for r in results} == {True, False}

    def test_greedy_slots_of_a_test_day(self):
        cfg = resolve_dict()
        dataset = build_dataset(cfg, seed_stream(1, "data"))
        env = build_env(cfg, dataset)
        trainer = build_trainer(env, TrainSettings.from_dict(cfg["train"]),
                                "maddpg", seed_stream(1, "init"))
        _, episodes = run_days(env, TrainedPolicy(trainer), dataset.test_days[:1],
                               seed_stream(1, "env"))
        topo = load_ieee33()
        reports = [check_dispatch(topo, env.config, result)
                   for result in episodes[0].results]
        assert len(reports) == 96
        assert any(r.violations for r in reports)
        for result, got in zip(episodes[0].results, reports):
            assert repr(got) == repr(reference_check_dispatch(topo, env.config, result))

    def test_tree_matrices_are_read_only(self):
        tree = _feeder_tree(load_ieee33(), 1)
        for a in (tree.bibc, tree.bcbv, tree.z):
            assert a.dtype == complex and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert tree.bibc.flags.c_contiguous and tree.bcbv.flags.c_contiguous


def make_result(config, alpha=0.0, load_scale=1.0, connected=True, gens=None):
    loads = tuple(load_scale * s.p_max for s in config.loads)
    p_gen = tuple(gens if gens is not None else [0.0] * len(config.generators))
    return DispatchResult(
        p_ess=(0.0,) * len(config.ess), p_gen=p_gen, p_grid=0.0, alpha=alpha,
        p_load=loads, p_pv=(0.0,) * len(config.pv), pv_curtailed=0.0,
        connected=connected, balance_residual=0.0, cost_total=0.0,
        cost_breakdown=CostBreakdown(0, 0, 0, 0))


class TestCheckDispatch:
    def test_zero_dispatch_feasible(self):
        topo = load_ieee33()
        config = table_config()
        report = check_dispatch(topo, config, make_result(config, load_scale=0.0))
        assert report.converged
        assert report.violations == ()

    def test_inflated_load_violates(self):
        topo = load_ieee33()
        config = table_config()
        # Ten-fold nominal loading is far beyond what the feeder can deliver.
        report = check_dispatch(topo, config, make_result(config, load_scale=10.0))
        assert (not report.converged) or len(report.violations) > 0

    def test_islanded_slack_on_largest_online_generator(self):
        topo = load_ieee33()
        config = table_config()
        gens = [0.0] * len(config.generators)
        gens[1] = 0.8
        report = check_dispatch(
            topo, config,
            make_result(config, load_scale=0.05, connected=False, gens=gens))
        assert report.slack_bus == config.generators[1].bus


class TestInjections:
    def test_injections_cover_all_devices(self):
        topo = load_ieee33()
        config = table_config()
        result = make_result(config, load_scale=0.5)
        inj = dispatch_injections(topo, config, result)
        assert sum(inj.values()) == pytest.approx(0.5 * sum(s.p_max for s in config.loads))

    def test_each_plant_injects_its_curtailed_output_at_its_bus(self):
        topo = load_ieee33()
        config = table_config()
        p_pv = tuple(0.5 * s.p_max for s in config.pv)  # plants of 1 and 2 MW
        result = make_result(config, load_scale=0.0)._replace(
            p_pv=p_pv, pv_curtailed=0.25 * sum(p_pv))
        inj = dispatch_injections(topo, config, result)
        for spec, p in zip(config.pv, p_pv):
            assert inj[spec.bus] == pytest.approx(-0.75 * p)
