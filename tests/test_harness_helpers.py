"""Shared fixtures-by-import for the test suite."""

import numpy as np

from gridres.config import build_microgrid, default_dict
from gridres.grid import SLOT_HOURS, CostBreakdown, LoadSpec, MicrogridConfig
from gridres.maddpg import Trainer, TrainSettings


def table_config():
    """The full study fleet: 5 ESS, 5 generators, 6 PV, 20 loads."""
    return build_microgrid(default_dict())


def reference_price(costs, p_ess, p_gen, p_grid, alpha, p_load) -> CostBreakdown:
    """A slot's cost in $ by term, as four sums over the resolved powers:
    storage wear on discharge, generation, grid exchange and shed load. The
    reference ``resolve_slot``'s pricing must match bit for bit."""
    return CostBreakdown(
        ess=sum(costs.lambda_ess * -p for p in p_ess if p < 0.0) * SLOT_HOURS,
        gen=sum(costs.lambda_gen * p for p in p_gen if p) * SLOT_HOURS,
        grid=costs.lambda_grid * abs(p_grid) * SLOT_HOURS,
        shed=sum(alpha * costs.lambda_load * p for p in p_load) * SLOT_HOURS
        if alpha else 0.0,
    )


def fleet_config(ess):
    """The given ESS units plus one 1 MW load: a fleet whose windows have
    one row, for tests of the storage side alone."""
    return MicrogridConfig(ess=tuple(ess), generators=(), pv=(),
                           loads=(LoadSpec(id="L1", p_max=1.0),))


def fleet_mask(ess):
    """Commands for raw outputs and SoCs, shaped (samples, units), through
    Trainer.apply_mask: the masking path every learner acts with."""
    trainer = Trainer(fleet_config(ess), "maddpg",
                      TrainSettings(hidden=4), np.random.default_rng(0))
    return lambda pis, socs: trainer.apply_mask(pis, socs)[0]
