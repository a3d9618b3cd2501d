"""Seeded inputs for every workload: the paper's 3-tier network.

Every scenario is the same closed network — web tier with 4 servers, app
tier with 2, a single database server, think time 1 s — whose per-station
service demand is a ``{levels, values}`` table that falls as concurrency
grows (the paper's observation 1: demands shrink under load as caches and
connection pools warm up).  Each scenario multiplies that table by its own
demand scale, drawn from a generator seeded with ``(seed, stream, index)``,
so the same seed always yields the same traffic and distinct streams never
share a scale.

The program only ever sees the wire payloads built here (or the
``Scenario`` objects decoded from them through the public codec).
"""

from __future__ import annotations

import numpy as np

#: Concurrency levels of the demand tables (the last covers every N used).
LEVELS = (1, 10, 50, 200, 1000, 10000)

#: Per-station demand in seconds at each level of :data:`LEVELS`.
BASE_DEMANDS = {
    "web": (0.030, 0.026, 0.022, 0.019, 0.017, 0.016),
    "app": (0.060, 0.052, 0.045, 0.040, 0.036, 0.035),
    "db": (0.050, 0.047, 0.043, 0.040, 0.038, 0.037),
}

SERVERS = {"web": 4, "app": 2, "db": 1}

THINK_TIME = 1.0

#: Range of the per-scenario demand scale.
SCALE_RANGE = (0.8, 1.25)

#: Stream tags keep the scale sequences of different uses apart.
STREAMS = {
    "serve-cold": 1,
    "serve-warm": 2,
    "sweep-local": 3,
    "sweep-fleet": 4,
    "sample": 8,
    "warmup": 9,
}


def scenario_payload(scale: float, max_population: int) -> dict:
    """Wire form of one scenario: demand tables scaled by ``scale``."""
    stations = []
    for name, values in BASE_DEMANDS.items():
        entry = {
            "name": name,
            "demand": {"levels": list(LEVELS), "values": [v * scale for v in values]},
        }
        if SERVERS[name] != 1:
            entry["servers"] = SERVERS[name]
        stations.append(entry)
    return {
        "stations": stations,
        "think_time": THINK_TIME,
        "max_population": int(max_population),
    }


def rng(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """Generator for one (seed, stream, round) triple."""
    return np.random.default_rng([int(seed), STREAMS[stream], int(index)])


def scales(gen: np.random.Generator, index: int, count: int) -> list[float]:
    """``count`` distinct demand scales for round ``index``, drawn from ``gen``.

    Rounds draw from disjoint slices of the scale range, so no two rounds
    of one run can repeat a scenario: a cold request stays cold and a
    fleet worker's cache never hits.
    """
    lo, hi = SCALE_RANGE
    # Round i owns the i-th of 4096 interleaved sub-grids of the range:
    # scale = lo + (k * 4096 + i + u) * step with u in [0, 1), in a
    # seeded order.
    step = (hi - lo) / (4096 * count)
    cells = np.arange(count) * 4096 + (index % 4096) + gen.random(count)
    return [float(lo + c * step) for c in gen.permutation(cells)]
