"""Shared helpers: synthetic datasets, randomized sim setups, WBC file location."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from dca_lab.agents import Category
from dca_lab.data_ingest import AntigenRecord
from dca_lab.engine import SimConfig
from dca_lab.signal_model import SignalMapping, WeightMatrix
from wbc_like import write_wbc_like_file  # noqa: F401  (tests import it from here)

REPO_ROOT = Path(__file__).resolve().parent.parent

# CI runs every property test on a fixed sequence of examples, so a run
# under ``-W error`` passes or fails the same way each time. GitHub
# Actions sets CI; locally the examples stay random.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

#: Where the real UCI file is looked for (env var wins). The 699-row
#: breast-cancer-wisconsin.data distribution is not redistributed with this
#: repository; place a copy at data/breast-cancer-wisconsin.data to enable
#: the dataset-dependent acceptance criteria.
WBC_ENV_VAR = "DCA_WBC_DATA"
WBC_DEFAULT_PATH = REPO_ROOT / "data" / "breast-cancer-wisconsin.data"


def wbc_data_path() -> Path | None:
    env = os.environ.get(WBC_ENV_VAR)
    if env:
        path = Path(env)
        if path.is_file():
            return path
    if WBC_DEFAULT_PATH.is_file():
        return WBC_DEFAULT_PATH
    return None


def require_wbc_file() -> Path:
    path = wbc_data_path()
    if path is None:
        pytest.skip(
            "real UCI breast-cancer-wisconsin.data not found; place it at "
            f"{WBC_DEFAULT_PATH} or point ${WBC_ENV_VAR} at it to run this criterion"
        )
    return path


def make_records(rng: random.Random, n_records: int, n_attrs: int) -> list[AntigenRecord]:
    """Synthetic AntigenRecords with uniform [0,1] attributes and random labels."""
    records = []
    for aid in range(n_records):
        attrs = tuple(rng.random() for _ in range(n_attrs))
        label = Category.ANOMALOUS if rng.random() < 0.5 else Category.NORMAL
        records.append(
            AntigenRecord(
                antigen_id=aid,
                source_sample_id=10_000 + aid,
                attributes=attrs,
                true_label=label,
            )
        )
    return records


def random_mapping(rng: random.Random, n_attrs: int) -> SignalMapping:
    def subset():
        size = rng.randint(1, n_attrs)
        return tuple(rng.sample(range(n_attrs), size))

    return SignalMapping(
        pamp_sources=subset(),
        danger_sources=subset(),
        safe_sources=subset(),
        safe_is_complement=rng.random() < 0.5,
    )


def random_weights(rng: random.Random) -> WeightMatrix:
    def row():
        return (rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))

    return WeightMatrix(pamp=row(), danger=row(), safe=row())


def random_sim_setup(rng: random.Random) -> tuple[SimConfig, list[AntigenRecord]]:
    """One randomized (config, records) pair within the desk-scale envelope."""
    n_attrs = rng.randint(2, 9)
    n_records = rng.randint(1, 50)
    population = rng.randint(1, 20)
    k = rng.randint(1, population)
    t_min = rng.uniform(20.0, 200.0)
    t_max = t_min * rng.uniform(1.0, 3.0)
    config = SimConfig(
        population_size=population,
        dcs_per_antigen=k,
        threshold_range=(t_min, t_max),
        weight_matrix=random_weights(rng) if rng.random() < 0.5 else SimConfig().weight_matrix,
        signal_mapping=random_mapping(rng, n_attrs),
        seed=rng.randrange(2**64),
    )
    return config, make_records(rng, n_records, n_attrs)


def oracle_kwargs(config: SimConfig) -> dict:
    """Flatten a SimConfig into the plain tuples the reference loop accepts."""
    return {
        "population_size": config.population_size,
        "dcs_per_antigen": config.dcs_per_antigen,
        "threshold_range": tuple(config.threshold_range),
        "weight_matrix": (
            tuple(config.weight_matrix.pamp),
            tuple(config.weight_matrix.danger),
            tuple(config.weight_matrix.safe),
        ),
        "signal_mapping": (
            tuple(config.signal_mapping.pamp_sources),
            tuple(config.signal_mapping.danger_sources),
            tuple(config.signal_mapping.safe_sources),
            config.signal_mapping.safe_is_complement,
        ),
        "seed": config.seed,
    }
