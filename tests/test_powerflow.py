from dataclasses import replace

import numpy as np
import pytest

from gridres.grid import CostBreakdown, DispatchResult
from gridres.powerflow import (
    Branch,
    FeederTopology,
    TopologyError,
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


def two_bus(r=0.01, x=0.01):
    # Impedance given in pu directly: pick base so z_base == 1.
    return FeederTopology(buses=(1, 2), branches=(Branch(1, 2, r, x),),
                          base_kv=1.0, base_mva=1.0, slack_bus=1)


class TestSolveBfs:
    def test_zero_injections_flat_profile(self):
        topo = load_ieee33()
        sol = solve_bfs(topo, {})
        assert sol.converged
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in sol.v_mag.values())
        assert sol.total_loss_mw == pytest.approx(0.0, abs=1e-12)

    def test_single_branch_matches_scalar_fixed_point(self):
        topo = two_bus()
        sol = solve_bfs(topo, {2: 0.1}, tol=1e-12)
        z = complex(0.01, 0.01)
        v = complex(1.0, 0.0)
        for _ in range(200):
            v = 1.0 - z * np.conj(complex(0.1, 0.0) / v)
        assert sol.v_mag[2] == pytest.approx(abs(v), abs=1e-8)

    def test_ieee33_base_case_matches_independent_oracle(self):
        topo = load_ieee33()
        sol = solve_bfs(topo, topo.nominal_load_mw, topo.nominal_load_mvar,
                        tol=1e-10)
        oracle = power_summation_sweep(topo, topo.nominal_load_mw,
                                       topo.nominal_load_mvar)
        assert sol.converged
        for bus in topo.buses:
            assert sol.v_mag[bus] == pytest.approx(oracle[bus], abs=1e-4)
        # Known shape of the base case: the weakest bus is at the main
        # feeder's end and sits a little above 0.90 pu.
        v_min_bus = min(sol.v_mag, key=sol.v_mag.get)
        assert v_min_bus == 18
        assert 0.90 < sol.v_mag[18] < 0.92

    def test_losses_nonnegative_and_injections_balance(self):
        topo = load_ieee33()
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = {b: rng.uniform(0, 0.2) for b in topo.buses if b != 1}
            sol = solve_bfs(topo, p, tol=1e-12)
            assert sol.converged
            assert all(l >= 0 for l in sol.branch_loss_mw.values())
            # Slack supplies loads plus losses: current flows out of bus 1,
            # so the branches leaving it carry a positive loss.
            root_loss = sum(
                l for (up, _), l in sol.branch_loss_mw.items() if up == 1)
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
        for bus in topo.buses:
            assert a.v_mag[bus] == b.v_mag[bus]

    def test_voltage_drops_along_loaded_path(self):
        topo = load_ieee33()
        p = {b: 0.1 for b in topo.buses if b != 1}
        sol = solve_bfs(topo, p)
        main = list(range(1, 19))  # buses 1..18 form the trunk
        for up, down in zip(main, main[1:]):
            assert sol.v_mag[down] < sol.v_mag[up]

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
            assert repr(got) == repr(want), (topo is other, slack)
        assert (solve_bfs(other, p).v_mag[33] != solve_bfs(base, p).v_mag[33])

    def test_cycle_rejected(self):
        topo = FeederTopology(
            buses=(1, 2, 3),
            branches=(Branch(1, 2, 0.1, 0.1), Branch(2, 3, 0.1, 0.1),
                      Branch(3, 1, 0.1, 0.1)),
        )
        with pytest.raises(TopologyError):
            solve_bfs(topo, {})


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
        result = replace(make_result(config, load_scale=0.0), p_pv=p_pv,
                         pv_curtailed=0.25 * sum(p_pv))
        inj = dispatch_injections(topo, config, result)
        for spec, p in zip(config.pv, p_pv):
            assert inj[spec.bus] == pytest.approx(-0.75 * p)
