"""Shared fixtures-by-import for the test suite."""

import numpy as np

from gridres.config import build_microgrid, default_dict
from gridres.maddpg import Trainer, TrainSettings, maddpg_groups


def table_config():
    """The full study fleet: 5 ESS, 5 generators, 6 PV, 20 loads."""
    return build_microgrid(default_dict())


def fleet_mask(ess, dt):
    """Commands for raw outputs and SoCs, shaped (samples, units), through
    Trainer.apply_mask: the masking path every learner acts with."""
    trainer = Trainer(ess, dt, maddpg_groups(len(ess)), 1, np.ones(1),
                      TrainSettings(hidden=4), np.random.default_rng(0))
    return lambda pis, socs: trainer.apply_mask(pis, socs)[0]
