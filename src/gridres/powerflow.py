"""Radial distribution power flow by backward/forward sweep.

The backward pass accumulates branch currents from the leaves toward the
slack bus, the forward pass propagates voltage drops outward; the two
alternate until the largest voltage change falls below tolerance. Feeders
must be trees; reactive injections are supported but the microgrid model
runs at unity power factor.

Power-flow runs are post-hoc verification of dispatches, never part of the
training loop, and reports are advisory: they flag voltage-band violations
without altering the dispatch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .grid import DispatchResult, MicrogridConfig


class TopologyError(ValueError):
    """Feeder graph is not a tree rooted at the slack bus."""


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r_ohm: float
    x_ohm: float


@dataclass(frozen=True)
class FeederTopology:
    """Bus/branch description of a radial feeder plus nominal bus loads."""

    buses: tuple[int, ...]
    branches: tuple[Branch, ...]
    base_kv: float = 12.66
    base_mva: float = 10.0
    slack_bus: int = 1
    nominal_load_mw: dict[int, float] = field(default_factory=dict)
    nominal_load_mvar: dict[int, float] = field(default_factory=dict)

    @property
    def z_base(self) -> float:
        return self.base_kv ** 2 / self.base_mva


@dataclass(frozen=True)
class PowerFlowSolution:
    v_mag: dict[int, float]  # pu
    branch_current: dict[tuple[int, int], float]  # pu magnitude
    branch_loss_mw: dict[tuple[int, int], float]
    total_loss_mw: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class FeasibilityReport:
    converged: bool
    slack_bus: int
    violations: tuple[tuple[int, float], ...]  # (bus, voltage pu)
    v_min: float
    v_max: float
    loss_mw: float

    @property
    def feasible(self) -> bool:
        return self.converged and not self.violations


def load_ieee33() -> FeederTopology:
    """The packaged 33-bus feeder with its standard nominal loads."""
    branches = []
    with resources.files("gridres.data").joinpath("ieee33_branches.csv").open() as fh:
        for row in csv.DictReader(_strip_comments(fh)):
            branches.append(Branch(int(row["from_bus"]), int(row["to_bus"]),
                                   float(row["r_ohm"]), float(row["x_ohm"])))
    load_mw: dict[int, float] = {}
    load_mvar: dict[int, float] = {}
    with resources.files("gridres.data").joinpath("ieee33_loads.csv").open() as fh:
        for row in csv.DictReader(_strip_comments(fh)):
            load_mw[int(row["bus"])] = float(row["p_kw"]) / 1000.0
            load_mvar[int(row["bus"])] = float(row["q_kvar"]) / 1000.0
    buses = tuple(range(1, 34))
    return FeederTopology(buses=buses, branches=tuple(branches),
                          nominal_load_mw=load_mw, nominal_load_mvar=load_mvar)


def _strip_comments(fh):
    return (line for line in fh if not line.lstrip().startswith("#"))


def _tree_order(topology: FeederTopology, slack: int):
    """BFS orientation from the slack; rejects cycles and unreachable buses.

    Neighbours are visited in sorted bus order so the result does not depend
    on how the input branches were enumerated.
    """
    adjacency: dict[int, list[tuple[int, Branch]]] = {b: [] for b in topology.buses}
    for br in topology.branches:
        adjacency[br.from_bus].append((br.to_bus, br))
        adjacency[br.to_bus].append((br.from_bus, br))
    for bus in adjacency:
        adjacency[bus].sort(key=lambda item: item[0])

    if len(topology.branches) != len(topology.buses) - 1:
        raise TopologyError(
            f"{len(topology.branches)} branches for {len(topology.buses)} buses; "
            "a radial feeder needs exactly n_buses - 1")

    parent: dict[int, tuple[int, Branch]] = {}
    order = [slack]
    seen = {slack}
    queue = [slack]
    while queue:
        bus = queue.pop(0)
        for nxt, br in adjacency[bus]:
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (bus, br)
            order.append(nxt)
            queue.append(nxt)
    if len(seen) != len(topology.buses):
        raise TopologyError("feeder graph is cyclic or disconnected")
    return order, parent


def solve_bfs(topology: FeederTopology, p_mw: dict[int, float],
              q_mvar: dict[int, float] | None = None, tol: float = 1e-8,
              max_iter: int = 100, slack_bus: int | None = None) -> PowerFlowSolution:
    """Backward/forward sweep. Injections are net consumption per bus in MW
    (generation negative). Non-convergence is reported, never raised."""
    slack = topology.slack_bus if slack_bus is None else slack_bus
    if slack not in topology.buses:
        raise TopologyError(f"slack bus {slack} not in feeder")
    order, parent = _tree_order(topology, slack)
    q_mvar = q_mvar or {}

    s_pu = {bus: complex(p_mw.get(bus, 0.0), q_mvar.get(bus, 0.0)) / topology.base_mva
            for bus in topology.buses}
    z_pu = {bus: complex(br.r_ohm, br.x_ohm) / topology.z_base
            for bus, (_, br) in parent.items()}

    v = {bus: complex(1.0, 0.0) for bus in topology.buses}
    i_branch: dict[int, complex] = {}
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # Backward: accumulate currents from leaves to root.
        i_branch = {bus: np.conj(s_pu[bus] / v[bus]) for bus in topology.buses
                    if bus != slack}
        for bus in reversed(order):
            if bus == slack:
                continue
            up = parent[bus][0]
            if up != slack:
                i_branch[up] += i_branch[bus]
        # Forward: propagate voltage drops from the root.
        max_dv = 0.0
        for bus in order:
            if bus == slack:
                continue
            up = parent[bus][0]
            new_v = v[up] - z_pu[bus] * i_branch[bus]
            max_dv = max(max_dv, abs(new_v - v[bus]))
            v[bus] = new_v
        if max_dv < tol:
            converged = True
            break

    losses: dict[tuple[int, int], float] = {}
    currents: dict[tuple[int, int], float] = {}
    total_loss = 0.0
    for bus, (up, br) in parent.items():
        key = (up, bus)
        i_mag = abs(i_branch.get(bus, 0.0))
        currents[key] = i_mag
        loss = (i_mag ** 2) * z_pu[bus].real * topology.base_mva
        losses[key] = loss
        total_loss += loss
    return PowerFlowSolution(
        v_mag={b: abs(v[b]) for b in topology.buses},
        branch_current=currents,
        branch_loss_mw=losses,
        total_loss_mw=total_loss,
        converged=converged,
        iterations=iterations,
    )


def dispatch_injections(topology: FeederTopology, config: MicrogridConfig,
                        result: DispatchResult) -> dict[int, float]:
    """Map a resolved slot onto net bus consumption in MW.

    Served load counts positive; PV (after pro-rata curtailment), generators
    and ESS discharge count negative; ESS charging positive.
    """
    inj = {bus: 0.0 for bus in topology.buses}
    for spec, p in zip(config.loads, result.p_load):
        inj[spec.bus] += (1.0 - result.alpha) * p
    pv_scale = 1.0
    if result.pv_available > 0.0:
        pv_scale = 1.0 - result.pv_curtailed / result.pv_available
    share = result.pv_available / len(config.pv) if config.pv else 0.0
    for spec in config.pv:
        inj[spec.bus] -= share * pv_scale
    for spec, p in zip(config.generators, result.p_gen):
        inj[spec.bus] -= p
    for spec, p in zip(config.ess, result.p_ess):
        inj[spec.bus] += p
    return inj


def check_dispatch(topology: FeederTopology, config: MicrogridConfig,
                   result: DispatchResult, v_band: tuple[float, float] = (0.90, 1.05),
                   tol: float = 1e-8) -> FeasibilityReport:
    """Advisory deliverability check of one resolved slot.

    When islanded the slack moves to the bus of the largest online generator
    (falling back to the largest-capacity generator, then the ESS fleet's
    first bus) since the grid tie is open.
    """
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
    sol = solve_bfs(topology, inj, tol=tol, slack_bus=slack)
    lo, hi = v_band
    violations = tuple((bus, v) for bus, v in sorted(sol.v_mag.items())
                       if not lo <= v <= hi)
    mags = list(sol.v_mag.values())
    return FeasibilityReport(
        converged=sol.converged,
        slack_bus=slack,
        violations=violations if sol.converged else tuple(),
        v_min=min(mags),
        v_max=max(mags),
        loss_mw=sol.total_loss_mw,
    )
