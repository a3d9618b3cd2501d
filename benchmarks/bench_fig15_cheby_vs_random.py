"""Fig. 15 — Chebyshev vs random sampling of the DB disk demand.

Splines through randomly-placed test points show extra undulations
compared to Chebyshev-placed ones at the same budget; Chebyshev node
placement exists precisely to suppress them.
"""

import numpy as np

from repro.analysis import format_series
from repro.loadtest import run_sweep
from repro.workflow import design_points


def _curve_quality(model, dense_model):
    probe = np.linspace(1, 300, 240)
    vals = model(probe)
    ref = dense_model(probe)
    rmse = float(np.sqrt(((vals - ref) ** 2).mean()) / ref.mean() * 100)
    slope_signs = np.sign(np.diff(vals))
    slope_signs = slope_signs[slope_signs != 0]
    reversals = int((np.diff(slope_signs) != 0).sum())
    return rmse, reversals


def test_fig15_chebyshev_vs_random_sampling(benchmark, jps_app, jps_sweep, emit):
    n_points = 7
    station = "db.disk"
    dense = jps_sweep.demand_table().models[station]

    def run_designs():
        out = {}
        for strategy, seed in (("chebyshev", 0), ("random", 3), ("random", 9)):
            pts = design_points(n_points, 1, 300, strategy=strategy, seed=seed)
            sweep = run_sweep(
                jps_app, levels=[int(p) for p in pts], duration=120.0, seed=70 + seed
            )
            label = strategy if strategy == "chebyshev" else f"random#{seed}"
            out[label] = (pts, sweep.demand_table().models[station])
        return out

    results = benchmark.pedantic(run_designs, rounds=1, iterations=1)

    grid = np.linspace(1, 300, 13).round()
    series = {"dense ref": np.round(dense(grid) * 1000, 3)}
    quality = {}
    for label, (pts, model) in results.items():
        series[label] = np.round(model(grid) * 1000, 3)
        quality[label] = _curve_quality(model, dense)

    text = format_series(
        "Users",
        grid.astype(int),
        series,
        title=f"Fig. 15 — db.disk demand splines: Chebyshev vs random ({n_points} tests each, ms/page)",
    )
    text += "\n\nDesigns: " + "; ".join(
        f"{label}: {list(map(int, pts))}" for label, (pts, _) in results.items()
    )
    text += "\nNormalized RMSE vs dense / slope reversals: " + ", ".join(
        f"{label}: {q[0]:.1f}% / {q[1]}" for label, q in quality.items()
    )
    emit(text)

    cheb_rmse, cheb_rev = quality["chebyshev"]
    random_qualities = [q for label, q in quality.items() if label != "chebyshev"]
    # Chebyshev design strictly more faithful than the worst random design
    # and never wigglier than any of them (measurement noise plus the real
    # saturation bump allow a couple of genuine slope reversals).
    assert cheb_rmse < max(q[0] for q in random_qualities)
    assert cheb_rev <= min(q[1] for q in random_qualities)
