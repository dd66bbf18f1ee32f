"""Radial distribution power flow by the direct BIBC/BCBV method.

After Teng (IEEE Trans. Power Delivery 18(3), 2003): with the 0/1 path
matrix ``P`` over the non-slack buses (row i marks the branches between the
slack and bus i), each iteration maps injection currents to branch currents
by ``P.T`` (BIBC) and branch voltage drops to bus voltages by ``P`` (BCBV),
until the largest voltage change falls below tolerance. Feeders must be
trees; reactive injections are supported but the microgrid model runs at
unity power factor.

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

V_BAND = (0.90, 1.05)  # pu voltage band of the advisory check
MAX_ITER = 100  # iterations before a solve is reported unconverged
IEEE33_BUSES = tuple(range(1, 34))  # buses of the packaged feeder


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
    # _FeederTree per slack bus, built on first use; the fields it depends
    # on (buses, branches, bases) are immutable.
    _trees: dict[int, "_FeederTree"] = field(default_factory=dict, init=False,
                                             repr=False, compare=False)

    @property
    def z_base(self) -> float:
        return self.base_kv ** 2 / self.base_mva


@dataclass(frozen=True)
class _FeederTree:
    """A feeder's solve arrays for one slack bus. Non-slack bus k and the
    branch feeding it share index k (BFS order)."""

    nodes: list[int]
    branch_keys: list[tuple[int, int]]  # (upstream bus, bus) per node
    bibc: np.ndarray  # complex path matrix transposed; C order keeps numpy's cast's bits
    bcbv: np.ndarray  # complex path matrix
    z: np.ndarray  # per-unit branch impedances
    bus_at: np.ndarray  # per feeder bus, its node index (len(nodes) for the slack)


@dataclass(frozen=True)
class PowerFlowSolution:
    """Voltages (pu) per bus and losses (MW) per branch."""

    buses: tuple[int, ...]
    v_bus: np.ndarray  # in ``buses`` order
    branch_keys: list[tuple[int, int]]
    loss: np.ndarray  # in ``branch_keys`` order
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
    return FeederTopology(buses=IEEE33_BUSES, branches=tuple(branches),
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
    for bus in order:  # the list grows as the search reaches new buses
        for nxt, br in adjacency[bus]:
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (bus, br)
            order.append(nxt)
    if len(seen) != len(topology.buses):
        raise TopologyError("feeder graph is cyclic or disconnected")
    return order, parent


def _feeder_tree(topology: FeederTopology, slack: int) -> _FeederTree:
    """The path matrix and impedances for ``slack``, built once per feeder
    and slack bus."""
    tree = topology._trees.get(slack)
    if tree is not None:
        return tree
    if slack not in topology.buses:
        raise TopologyError(f"slack bus {slack} not in feeder")
    order, parent = _tree_order(topology, slack)
    nodes = order[1:]
    index = {bus: k for k, bus in enumerate(nodes)}
    path = np.zeros((len(nodes), len(nodes)))
    z = np.empty(len(nodes), dtype=complex)
    for k, bus in enumerate(nodes):
        up, br = parent[bus]
        if up != slack:
            path[k] = path[index[up]]
        path[k, k] = 1.0
        z[k] = complex(br.r_ohm, br.x_ohm) / topology.z_base
    bibc = np.ascontiguousarray(path.T, dtype=complex)
    bcbv = path.astype(complex)
    bus_at = np.array([index.get(bus, len(nodes)) for bus in topology.buses])
    bibc.flags.writeable = bcbv.flags.writeable = z.flags.writeable = False  # shared by every solve
    tree = _FeederTree(nodes, [(parent[bus][0], bus) for bus in nodes],
                       bibc, bcbv, z, bus_at)
    topology._trees[slack] = tree
    return tree


def solve_bfs(topology: FeederTopology, p_mw: dict[int, float],
              q_mvar: dict[int, float] | None = None, tol: float = 1e-8,
              slack_bus: int | None = None) -> PowerFlowSolution:
    """Direct BIBC/BCBV power flow. Injections are net consumption per bus in MW
    (generation negative). Non-convergence is reported, never raised."""
    slack = topology.slack_bus if slack_bus is None else slack_bus
    tree = _feeder_tree(topology, slack)
    nodes, z = tree.nodes, tree.z
    s = np.zeros(len(nodes), dtype=complex)
    s.real = [p_mw.get(bus, 0.0) for bus in nodes]
    if q_mvar:
        s.imag = [q_mvar.get(bus, 0.0) for bus in nodes]
    s /= topology.base_mva

    v = np.ones(len(nodes), dtype=complex)
    for iterations in range(1, MAX_ITER + 1):
        i_br = tree.bibc @ np.conj(s / v)  # BIBC: branch current from injections
        new_v = 1.0 - tree.bcbv @ (z * i_br)  # BCBV: bus voltage from branch currents
        max_dv = np.abs(new_v - v).max(initial=0.0)
        v = new_v
        if max_dv < tol:
            break

    loss = np.abs(i_br) ** 2 * z.real * topology.base_mva
    return PowerFlowSolution(
        buses=topology.buses,
        v_bus=np.append(np.abs(v), 1.0)[tree.bus_at],  # the slack holds 1 pu
        branch_keys=tree.branch_keys,
        loss=loss,
        total_loss_mw=sum(loss.tolist()),  # left to right, not pairwise
        converged=bool(max_dv < tol),
        iterations=iterations,
    )


def dispatch_injections(topology: FeederTopology, config: MicrogridConfig,
                        result: DispatchResult) -> dict[int, float]:
    """Map a resolved slot onto net bus consumption in MW.

    Served load counts positive; each PV plant's output (after pro-rata
    curtailment), generators and ESS discharge count negative; ESS charging
    positive.
    """
    inj = {bus: 0.0 for bus in topology.buses}
    for spec, p in zip(config.loads, result.p_load):
        inj[spec.bus] += (1.0 - result.alpha) * p
    pv_sum = sum(result.p_pv)
    pv_scale = 1.0 - result.pv_curtailed / pv_sum if pv_sum > 0.0 else 1.0
    for spec, p in zip(config.pv, result.p_pv):
        inj[spec.bus] -= p * pv_scale
    for spec, p in zip(config.generators, result.p_gen):
        inj[spec.bus] -= p
    for spec, p in zip(config.ess, result.p_ess):
        inj[spec.bus] += p
    return inj


def check_dispatch(topology: FeederTopology, config: MicrogridConfig,
                   result: DispatchResult) -> FeasibilityReport:
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
    sol = solve_bfs(topology, inj, slack_bus=slack)
    lo, hi = V_BAND
    mags = sol.v_bus.tolist()
    violations = tuple(sorted((b, v) for b, v in zip(sol.buses, mags) if not lo <= v <= hi))
    return FeasibilityReport(
        converged=sol.converged,
        slack_bus=slack,
        violations=violations if sol.converged else tuple(),
        v_min=min(mags),
        v_max=max(mags),
        loss_mw=sol.total_loss_mw,
    )
