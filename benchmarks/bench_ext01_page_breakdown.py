"""Extension 1 — per-page response-time breakdown (Grinder-style report).

The paper's load tests exercise 7-page (VINS) and 14-page (JPetStore)
workflows and The Grinder reports per-page statistics; the MVA models
only ever see the per-page average.  The page-level simulator produces
the full breakdown while preserving the aggregate the models predict.
"""

from repro.analysis import format_table
from repro.core import mvasd
from repro.simulation import simulate_workflow


def test_ext01_per_page_breakdown(benchmark, jps_app, jps_sweep, emit):
    users = 140
    result = benchmark.pedantic(
        lambda: simulate_workflow(
            jps_app.network,
            users,
            jps_app.workflow_weights(),
            duration=250.0,
            warmup=25.0,
            seed=12,
        ),
        rounds=1,
        iterations=1,
    )

    rows = [
        (p.name, p.weight, p.completions, p.mean_response_time * 1000, p.p95_response_time * 1000)
        for p in result.pages
    ]
    text = format_table(
        ("Page", "weight", "views", "mean RT (ms)", "p95 RT (ms)"),
        rows,
        title=f"Extension 1 — JPetStore per-page breakdown at {users} users",
    )

    table = jps_sweep.demand_table()
    model = mvasd(jps_app.network, users, demand_functions=table.functions())
    text += (
        f"\n\nAggregate: {result.aggregate.throughput:.2f} pages/s measured vs "
        f"{model.throughput[-1]:.2f} predicted (MVASD sees only the page average); "
        f"one full workflow pass takes {result.workflow_time:.1f}s."
    )
    emit(text)

    # heaviest page slowest, lightest fastest
    heavy = result.page("checkout").mean_response_time
    light = result.page("signout").mean_response_time
    assert heavy > light
    # aggregate preserved vs MVASD within a few percent
    assert abs(result.aggregate.throughput - model.throughput[-1]) / model.throughput[-1] < 0.08
