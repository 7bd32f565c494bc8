"""Workload definitions: the configurations and simulation plan of each run.

Every workload is a pure function of the seed.  The library receives only
the ``SystemConfig`` objects and the ``SimSettings`` built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log
from typing import Tuple

import numpy as np

from relaybuf.model import SystemConfig


@dataclass(frozen=True)
class Workload:
    configs: Tuple[SystemConfig, ...]
    horizon: int          # slots per replication of every simulated policy
    replications: int
    sim_seeds: Tuple[int, ...]
    trace_samples: int    # sweep-trace entries per config checked against the reference
    seed: int
    # rounds a run makes at least, even past --seconds: with three, a
    # configuration's median over the rounds leaves out one slowed round
    min_rounds: int = 1


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _law(u) -> SystemConfig:
    """Map a point of [0, 1)^5 to a config under the acceptance suite's law.

    rs and rr are uniform on 1..6, nr uniform on max(rs, rr) + 1 .. 120, ps
    and pr uniform on [0.05, 0.95]: the law of ``tests/conftest.sample_config``.
    """
    rs, rr = 1 + int(6 * u[0]), 1 + int(6 * u[1])
    lo = max(rs, rr) + 1
    return SystemConfig(rs=rs, rr=rr, nr=lo + int((120 - lo + 1) * u[2]),
                        ps=float(0.05 + (0.95 - 0.05) * u[3]),
                        pr=float(0.05 + (0.95 - 0.05) * u[4]))


def _class_size(cfg) -> int:
    """Closed-form size of the recurrent class, (l + 1)(n + 1), at most nr + 1."""
    n, l = divmod(cfg.nr, gcd(cfg.rs, cfg.rr))
    return min((l + 1) * (n + 1), cfg.nr + 1)


def _drift(cfg) -> float:
    """|log| of the mean source burst over the mean relay burst."""
    return abs(log(cfg.ps * cfg.rs / (cfg.pr * cfg.rr)))


# The suite draws from one fixed pool of POOL_SIZE draws from the law.  When
# every member was run through the pipeline once, an operation raised on one
# of them, pool()[1879]: rvia_solve raises NoConvergence after 10**6 sweeps
# (see CHANGES.md).  RVIA_FAILS is that member, and it ends every suite, so
# every run counts its failure (the simulation, which needs RVIA's
# threshold, is not attempted); the draw takes from the rest of the pool,
# so the failed share does not depend on the seed.
POOL_SEED = 1408_3458
POOL_SIZE = 3000
RVIA_FAILS = SystemConfig(2, 2, 107, 0.4853693219686297, 0.5469778121170199)


def pool() -> Tuple[SystemConfig, ...]:
    rng = np.random.default_rng(POOL_SEED)
    return tuple(_law(u) for u in rng.random((POOL_SIZE, 5)))


SUITE_SIZE = 120
DRIFT_BANDS = 10


def suite_configs(seed: int) -> Tuple[SystemConfig, ...]:
    """SUITE_SIZE configs from the pool, stratified on cost.

    Solver cost is driven by the class size |C| and by the drift between the
    two links: strongly drifted chains make the sweep rebuild most
    thresholds, balanced ones make the MDP solvers iterate longest.  So the
    pool is cut into DRIFT_BANDS equal bands of drift, each band into
    SUITE_SIZE / DRIFT_BANDS equal cells of |C|, and the seed takes one member of
    every cell at random.  Every member is equally likely to be taken, so
    each config follows the law of the pool, but the total work varies far
    less from seed to seed than with independent draws.
    """
    rng = _stream(seed, 0)
    members = [c for c in pool() if c != RVIA_FAILS]
    by_drift = sorted(range(len(members)), key=lambda k: _drift(members[k]))
    out = []
    for band in np.array_split(by_drift, DRIFT_BANDS):
        by_size = sorted(band, key=lambda k: _class_size(members[k]))
        for cell in np.array_split(by_size, SUITE_SIZE // DRIFT_BANDS):
            out.append(members[cell[rng.integers(len(cell))]])
    return tuple(out)


# Symmetric suite members, the same for every seed: their policy-iteration
# cost swings several-fold with p.  The last two have traces flat to
# roundoff, where the sweep and the closed form pick different thresholds.
SYMMETRIC = (
    SystemConfig(1, 1, 200, 0.4, 0.4),
    SystemConfig(2, 2, 300, 0.5, 0.5),
    SystemConfig(3, 3, 150, 0.7, 0.7),
)

# Large classes.  The first three (|C| of about 200) rebuild most thresholds
# because the rank-one safety gates reject the updates; (5,3,201,.8,.2) is
# drifted so far that elimination degrades to folding.  (4,2,400,.3,.7) has
# a trace flat to roundoff over hundreds of thresholds, and (1,1,300,.25,.3)
# keeps every update at |C| = 301 and gives RVIA its longest iteration, so
# that rvia_s is not a few short calls.
LARGE_C = (
    SystemConfig(4, 2, 400, 0.5, 0.5),
    SystemConfig(3, 2, 200, 0.6, 0.4),
    SystemConfig(5, 3, 201, 0.8, 0.2),
    SystemConfig(4, 2, 400, 0.3, 0.7),
    SystemConfig(1, 1, 300, 0.25, 0.3),
)

# Buffers of 240-400, large enough that each solver path still costs tenths
# of a second, under long simulations of all five policies.  The slow-mixing
# symmetric (1,1,300,.2,.2) gives RVIA most of its half second.
LONG_SIM = (
    SystemConfig(1, 1, 300, 0.2, 0.2),
    SystemConfig(2, 3, 240, 0.6, 0.45),
    SystemConfig(4, 2, 400, 0.3, 0.7),
)


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; raises KeyError for unknown names."""
    if name == "suite":
        configs = suite_configs(seed) + SYMMETRIC + (RVIA_FAILS,)
        horizon, reps, samples, rounds = 20_000, 3, 3, 1
    elif name == "large_c":
        configs, horizon, reps, samples, rounds = LARGE_C, 20_000, 2, 12, 3
    elif name == "long_sim":
        configs, horizon, reps, samples, rounds = LONG_SIM, 2_000_000, 2, 12, 3
    else:
        raise KeyError(name)
    sim_seeds = tuple(int(s) for s in _stream(seed, 2).integers(0, 2**62, len(configs)))
    return Workload(configs=configs, horizon=horizon, replications=reps,
                    sim_seeds=sim_seeds, trace_samples=samples, seed=seed,
                    min_rounds=rounds)
