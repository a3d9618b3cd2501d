"""Queueing-network solvers: the paper's MVA family.

Public surface:

* :class:`~repro.core.network.Station`, :class:`~repro.core.network.ClosedNetwork`
  — model inputs.
* :func:`~repro.core.mva.exact_mva` — Algorithm 1 (single-server exact MVA).
* :func:`~repro.core.multiserver.exact_multiserver_mva` — Algorithm 2.
* :func:`~repro.core.mvasd.mvasd` — Algorithm 3 (the paper's contribution).
* :func:`~repro.core.amva.schweitzer_amva`,
  :func:`~repro.core.amva.approximate_multiserver_mva` — approximate baselines.
* :func:`~repro.core.ld_mva.exact_load_dependent_mva` — textbook exact
  load-dependent recursion (validation/ablation).
* :func:`~repro.core.multiclass.exact_multiclass_mva` — multi-class extension.
* :mod:`~repro.core.laws`, :mod:`~repro.core.bounds` — operational laws and
  asymptotic envelopes.
"""

from . import bounds, laws
from .amva import approximate_multiserver_mva, schweitzer_amva, seidmann_transform
from .bounds import AsymptoticBounds, asymptotic_bounds, balanced_job_bounds
from .convolution import convolution_mva
from .interval_mva import PredictionBand, band_from_estimates, interval_mva
from .ld_mva import exact_load_dependent_mva, multiserver_rates
from .linearizer import linearizer_amva, linearizer_multiserver_mva
from .mom import method_of_moments, mom_state_count
from .multiclass import MultiClassResult, exact_multiclass_mva
from .multiclass_amva import MultiClassTrajectory, bard_schweitzer, multiclass_mvasd
from .multiserver import exact_multiserver_mva
from .mva import exact_mva
from .mvasd import mvasd
from .network import ClosedNetwork, Station
from .open_network import OpenResult, analyze_open, erlang_b, erlang_c
from .results import MVAResult

__all__ = [
    "AsymptoticBounds",
    "ClosedNetwork",
    "MVAResult",
    "MultiClassResult",
    "MultiClassTrajectory",
    "OpenResult",
    "PredictionBand",
    "Station",
    "analyze_open",
    "approximate_multiserver_mva",
    "asymptotic_bounds",
    "balanced_job_bounds",
    "band_from_estimates",
    "bard_schweitzer",
    "bounds",
    "convolution_mva",
    "erlang_b",
    "erlang_c",
    "exact_load_dependent_mva",
    "interval_mva",
    "exact_multiclass_mva",
    "exact_multiserver_mva",
    "exact_mva",
    "laws",
    "linearizer_amva",
    "linearizer_multiserver_mva",
    "method_of_moments",
    "mom_state_count",
    "multiclass_mvasd",
    "multiserver_rates",
    "mvasd",
    "schweitzer_amva",
    "seidmann_transform",
]
