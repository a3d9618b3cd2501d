"""Incremental-solve trajectory store — the MVA-shaped cache tier.

Every MVA-family recursion builds population ``n`` strictly from levels
``< n``, so one solve at ``N = 280`` *contains* the answer to every
``N' <= 280`` what-if query, and a deeper query can resume the recursion
from the cached terminal state instead of restarting at 1
(``resume_from=`` in :mod:`repro.core`).  The plain
:class:`~repro.solvers.cache.SolverCache` cannot exploit either fact:
its keys include ``max_population``, so ``N = 120`` and ``N = 119`` of
the same scenario are unrelated entries.

This store adds the missing structure.  Entries are bucketed by a
*family* key — the fingerprint of the scenario truncated to one
customer, plus method and canonical options — so every population of
one scenario lands in one bucket holding the deepest trajectory seen so
far.  A query is then served one of two ways:

* **prefix** (``N' <= N``): verified by comparing the request
  fingerprint against the stored scenario truncated to ``N'`` (memoized
  per entry), then answered with a pure slice —
  :meth:`~repro.core.results.MVAResult.prefix` — that is bit-identical
  to a direct solve;
* **extend** (``N' > N``): verified by truncating the *request* to the
  stored depth, then answered by resuming the recursion from the cached
  state — again bit-identical, but costing only the ``N - N'`` missing
  levels.

Fingerprint verification makes bucket collisions harmless: two demand
curves that coincide at one customer but diverge later share a family
yet can never serve each other.  Only the level-separable solvers are
eligible (exact MVA, Schweitzer AMVA, MVASD on the population axis, and
load-dependent MVA — a flow-equivalent rate table *is* a trajectory, so
growing ``N`` on a composed scenario extends the table instead of
recomputing it); everything else falls through to a plain cache miss.  The store follows
the same non-fatal contract as the other cache tiers: any internal
failure counts an error and degrades to "no answer".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Mapping

from ..core.results import MVAResult

__all__ = ["TrajectoryStore", "resumable_method"]

#: Methods whose recursion is level-separable and therefore resumable.
_RESUMABLE = {"exact-mva", "schweitzer-amva", "mvasd", "ld-mva"}

DEFAULT_MAX_FAMILIES = 64


def resumable_method(method: str, options: Mapping[str, Any]) -> bool:
    """Can this (method, options) request be served from a trajectory?

    MVASD's throughput axis seeds each level's fixed point with the
    previous level's float throughput, which a sliced prefix cannot
    reproduce for the level after the cut — so only the population axis
    qualifies.
    """
    if method not in _RESUMABLE:
        return False
    if method == "mvasd" and options.get("demand_axis", "population") != "population":
        return False
    return True


class _Family:
    """The deepest trajectory seen for one (scenario-family, method, options)."""

    __slots__ = ("scenario", "fingerprint", "result", "_prefix_fps")

    def __init__(self, scenario, fingerprint: str, result: MVAResult) -> None:
        self.scenario = scenario
        self.fingerprint = fingerprint
        self.result = result
        self._prefix_fps: dict[int, str] = {result.max_population: fingerprint}

    def prefix_fingerprint(self, n: int) -> str:
        """Fingerprint of the stored scenario truncated to ``n`` (memoized)."""
        fp = self._prefix_fps.get(n)
        if fp is None:
            fp = self.scenario.with_overrides(max_population=n).fingerprint()
            self._prefix_fps[n] = fp
        return fp


class TrajectoryStore:
    """Bounded per-family store of the deepest solved trajectories.

    Used by the facade around the regular cache lookup: consulted on a
    miss (:meth:`serve`), fed after a fresh solve or a persistent-tier
    hit (:meth:`offer`).  All methods are thread-safe and never raise.
    """

    def __init__(self, max_families: int = DEFAULT_MAX_FAMILIES) -> None:
        if max_families < 1:
            raise ValueError(f"max_families must be >= 1, got {max_families}")
        self.max_families = int(max_families)
        self._families: OrderedDict[tuple, _Family] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._extends = 0
        self._misses = 0
        self._errors = 0
        self._evictions = 0

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def _family_key(scenario, method: str, options: Mapping[str, Any]):
        """Bucket key: one-customer fingerprint + method + options.

        Truncating to one customer erases ``max_population`` from the
        fingerprint while keeping topology, think time, class mix and
        the level-1 demand row — scenarios differing only in ``N`` (the
        what-if sweep case) collide on purpose; anything else that
        collides is sorted out by exact prefix-fingerprint checks.
        """
        from .cache import canonical_options  # deferred: cache imports us

        opts = canonical_options(options, method)
        if opts is None:
            return None
        base = scenario.with_overrides(max_population=1).fingerprint()
        return (method, opts, base)

    # -- the store API --------------------------------------------------------

    def serve(self, scenario, method: str, options: Mapping[str, Any]):
        """Answer a solve request from a stored trajectory, if possible.

        Returns ``("prefix", result)`` for a pure slice,
        ``("extend", result)`` after resuming the recursion to a deeper
        ``N`` (the caller should re-:meth:`offer` and persist it), or
        ``None``.  Never raises.
        """
        try:
            if not resumable_method(method, options):
                return None
            key = self._family_key(scenario, method, options)
            if key is None:
                return None
            with self._lock:
                family = self._families.get(key)
                if family is not None:
                    self._families.move_to_end(key)
            if family is None:
                with self._lock:
                    self._misses += 1
                return None

            n_req = scenario.max_population
            n_have = family.result.max_population
            if n_req <= n_have:
                if family.prefix_fingerprint(n_req) != scenario.fingerprint():
                    with self._lock:
                        self._misses += 1
                    return None
                with self._lock:
                    self._hits += 1
                return ("prefix", family.result.prefix(n_req))

            # Deeper than what we have: check the request *is* an
            # extension of the stored scenario, then resume.
            req_prefix_fp = scenario.with_overrides(
                max_population=n_have
            ).fingerprint()
            if req_prefix_fp != family.fingerprint:
                with self._lock:
                    self._misses += 1
                return None
            result = self._extend(scenario, method, options, family.result)
            with self._lock:
                self._extends += 1
            return ("extend", result)
        except Exception:
            with self._lock:
                self._errors += 1
            return None

    def offer(self, scenario, method: str, options: Mapping[str, Any], result) -> None:
        """Feed a freshly solved (or persistent-tier) result to the store.

        Keeps, per family, only the deepest trajectory: a shallower
        offer never displaces a deeper entry whose prefix it is (that
        would throw away paid-for levels), but a *conflicting* offer —
        same family bucket, different demands — replaces the entry, so
        a stale bucket cannot pin a mismatched trajectory forever.
        Never raises.
        """
        try:
            if not isinstance(result, MVAResult):
                return
            if not resumable_method(method, options):
                return
            n = result.max_population
            if (
                int(result.populations[0]) != 1
                or len(result.populations) != n
                or n != scenario.max_population
            ):
                return  # not a dense full trajectory for this scenario
            key = self._family_key(scenario, method, options)
            if key is None:
                return
            fp = scenario.fingerprint()
            with self._lock:
                family = self._families.get(key)
                if family is not None:
                    if n < family.result.max_population:
                        if family.prefix_fingerprint(n) == fp:
                            self._families.move_to_end(key)
                            return  # already covered by a deeper entry
                    elif n == family.result.max_population and family.fingerprint == fp:
                        self._families.move_to_end(key)
                        return  # identical entry
                self._families[key] = _Family(scenario, fp, result)
                self._families.move_to_end(key)
                while len(self._families) > self.max_families:
                    self._families.popitem(last=False)
                    self._evictions += 1
        except Exception:
            with self._lock:
                self._errors += 1

    def _extend(self, scenario, method: str, options: Mapping[str, Any], prev):
        """Resume the recursion from ``prev`` up to the scenario's ``N``.

        Mirrors the builtin solver adapters, adding ``resume_from=``.
        """
        from ..core.amva import schweitzer_amva
        from ..core.ld_mva import exact_load_dependent_mva
        from ..core.mva import exact_mva
        from ..core.mvasd import mvasd

        net = scenario.resolved_network()
        n = scenario.max_population
        if method == "ld-mva":
            return exact_load_dependent_mva(
                net,
                n,
                demands=scenario.fixed_demands("ld-mva"),
                rates=options.get("rates"),
                rate_tables=scenario.rate_tables,
                resume_from=prev,
            )
        if method == "exact-mva":
            return exact_mva(
                net, n, demands=scenario.fixed_demands("exact-mva"), resume_from=prev
            )
        if method == "schweitzer-amva":
            return schweitzer_amva(
                net,
                n,
                demands=scenario.fixed_demands("schweitzer-amva"),
                resume_from=prev,
            )
        if method == "mvasd":
            return mvasd(
                net,
                n,
                demand_functions=scenario.demand_fns("mvasd"),
                single_server=options.get("single_server", False),
                demand_axis="population",
                resume_from=prev,
            )
        raise ValueError(f"not a resumable method: {method!r}")

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._families.clear()
            self._hits = self._extends = self._misses = 0
            self._errors = self._evictions = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self._hits,
                "extends": self._extends,
                "misses": self._misses,
                "errors": self._errors,
                "evictions": self._evictions,
                "families": len(self._families),
                "max_families": self.max_families,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"TrajectoryStore(families={s['families']}/{s['max_families']}, "
            f"hits={s['hits']}, extends={s['extends']})"
        )
