"""Model descriptions of closed queueing networks.

The paper models each tier (load injector, web/application server,
database server) as a set of queueing stations — a multi-core CPU
(multi-server queue), a disk and the network transmit/receive paths
(single-server queues) — closed by a terminal "think time" delay
(Fig. 2).  :class:`Station` and :class:`ClosedNetwork` are the shared
input vocabulary of every solver in :mod:`repro.core` and of the
discrete-event simulator in :mod:`repro.simulation`.

Demands may be given per-station either as a scalar (classic MVA) or as
a callable ``n -> demand`` (MVASD / load-dependent analysis); the
solvers pick the representation they need via
:meth:`Station.demand_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Station", "ClosedNetwork"]

DemandLike = float | Callable[[float], float]


@dataclass(frozen=True)
class Station:
    """A single queueing station of a closed network.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"db.disk"``.
    demand:
        Service demand ``D_k = V_k * S_k`` in seconds.  Either a scalar
        (demand independent of concurrency) or a callable mapping the
        population level ``n`` to a demand (the MVASD ``SS_k^n`` array
        abstraction).
    servers:
        Number of servers ``C_k`` at the station (CPU cores); 1 for
        disks and network paths.
    visits:
        Visit count ``V_k`` relative to one system-level interaction.
        MVA formulations in the paper carry ``V_k`` separately from the
        per-visit service time ``S_k``; since only the product
        ``D_k = V_k S_k`` enters the equations we keep ``demand`` as the
        primary quantity and expose ``service_time`` derived from it.
    kind:
        ``"queue"`` for FCFS queueing stations, ``"delay"`` for pure
        delay (infinite-server) stations.
    """

    name: str
    demand: DemandLike
    servers: int = 1
    visits: float = 1.0
    kind: str = "queue"

    def __post_init__(self) -> None:
        if self.servers < 1 or int(self.servers) != self.servers:
            raise ValueError(f"servers must be a positive integer, got {self.servers}")
        # `not 0 < v < inf`, not `v <= 0`: NaN compares False either way.
        if not 0 < self.visits < np.inf:
            raise ValueError(f"visits must be positive and finite, got {self.visits}")
        if self.kind not in ("queue", "delay"):
            raise ValueError(f"kind must be 'queue' or 'delay', got {self.kind!r}")
        if not callable(self.demand) and self.demand < 0:
            raise ValueError(f"demand must be non-negative, got {self.demand}")

    @property
    def is_load_varying(self) -> bool:
        """True when the demand changes with concurrency (callable form)."""
        return callable(self.demand)

    def demand_at(self, n: float) -> float:
        """Service demand at population level ``n`` (``SS_k^n`` in the paper)."""
        if callable(self.demand):
            value = float(self.demand(n))
        else:
            value = float(self.demand)
        if value < 0:
            raise ValueError(
                f"station {self.name!r}: demand({n}) = {value} is negative"
            )
        return value

    def service_time_at(self, n: float) -> float:
        """Per-visit mean service time ``S_k = D_k / V_k`` at population ``n``."""
        return self.demand_at(n) / self.visits

    def with_demand(self, demand: DemandLike) -> "Station":
        """Return a copy of this station with a different demand."""
        return Station(
            name=self.name,
            demand=demand,
            servers=self.servers,
            visits=self.visits,
            kind=self.kind,
        )


@dataclass(frozen=True)
class ClosedNetwork:
    """A single-class closed queueing network with terminal think time.

    This is the product-form model of Fig. 2: ``stations`` hold the
    hardware resources of every tier and ``think_time`` the terminal
    user delay ``Z``.
    """

    stations: tuple[Station, ...]
    think_time: float = 0.0
    name: str = "closed-network"

    def __init__(
        self,
        stations: Iterable[Station],
        think_time: float = 0.0,
        name: str = "closed-network",
    ) -> None:
        stations = tuple(stations)
        if not stations:
            raise ValueError("a closed network needs at least one station")
        seen: set[str] = set()
        for st in stations:
            if st.name in seen:
                raise ValueError(f"duplicate station name {st.name!r}")
            seen.add(st.name)
        if not 0 <= think_time < np.inf:
            raise ValueError(f"think_time must be finite and non-negative, got {think_time}")
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "think_time", float(think_time))
        object.__setattr__(self, "name", name)

    # -- structural helpers -------------------------------------------------

    def __len__(self) -> int:
        return len(self.stations)

    def __iter__(self):
        return iter(self.stations)

    def __getitem__(self, key: int | str) -> Station:
        if isinstance(key, str):
            for st in self.stations:
                if st.name == key:
                    return st
            raise KeyError(key)
        return self.stations[key]

    @property
    def station_names(self) -> tuple[str, ...]:
        return tuple(st.name for st in self.stations)

    @property
    def queueing_stations(self) -> tuple[Station, ...]:
        return tuple(st for st in self.stations if st.kind == "queue")

    @property
    def has_varying_demands(self) -> bool:
        return any(st.is_load_varying for st in self.stations)

    def servers(self) -> np.ndarray:
        """Vector of server counts ``C_k``."""
        return np.array([st.servers for st in self.stations], dtype=int)

    def visits(self) -> np.ndarray:
        """Vector of visit counts ``V_k``."""
        return np.array([st.visits for st in self.stations], dtype=float)

    def demands_at(self, n: float) -> np.ndarray:
        """Vector of demands ``SS_k^n`` evaluated at population ``n``."""
        return np.array([st.demand_at(n) for st in self.stations], dtype=float)

    # -- derived analysis ----------------------------------------------------

    def bottleneck(self, n: float | None = None) -> Station:
        """The station with the largest *per-server* demand ``D_k / C_k``.

        For multi-server stations the saturation throughput is
        ``C_k / D_k``, so the bottleneck comparison must divide by the
        server count.  ``n`` selects the population at which varying
        demands are evaluated (defaults to 1).
        """
        level = 1.0 if n is None else float(n)
        per_server = [
            st.demand_at(level) / st.servers if st.kind == "queue" else 0.0
            for st in self.stations
        ]
        return self.stations[int(np.argmax(per_server))]

    def max_throughput(self, n: float | None = None) -> float:
        """Upper bound ``X <= min_k C_k / D_k`` over queueing stations."""
        level = 1.0 if n is None else float(n)
        bounds = [
            st.servers / st.demand_at(level)
            for st in self.stations
            if st.kind == "queue" and st.demand_at(level) > 0
        ]
        return min(bounds) if bounds else float("inf")

    def with_demands(self, demands: Sequence[DemandLike]) -> "ClosedNetwork":
        """Return a copy with per-station demands replaced (same order)."""
        if len(demands) != len(self.stations):
            raise ValueError(
                f"expected {len(self.stations)} demands, got {len(demands)}"
            )
        return ClosedNetwork(
            (st.with_demand(d) for st, d in zip(self.stations, demands)),
            think_time=self.think_time,
            name=self.name,
        )

    def with_think_time(self, think_time: float) -> "ClosedNetwork":
        return ClosedNetwork(self.stations, think_time=think_time, name=self.name)
