"""Fig. 17 — the three-step prediction workflow, end to end.

Step 1: Chebyshev design of the test points.  Step 2: load tests +
service-demand extraction.  Step 3: spline interpolation + MVASD.
Run against VINS and validated against the independent dense campaign.
"""

from repro.analysis import format_table
from repro.workflow import predict_performance


def test_fig17_end_to_end_workflow(benchmark, vins_app, vins_sweep, emit):
    report = benchmark.pedantic(
        lambda: predict_performance(
            vins_app,
            n_design_points=5,
            max_population=1500,
            concurrency_range=(1, 1500),
            duration=150.0,
            seed=99,
        ),
        rounds=1,
        iterations=1,
    )

    val = report.validate(vins_sweep, stations_for_utilization=["db.disk"])
    rows = [
        ("Step 1: design points", ", ".join(map(str, report.design.tolist()))),
        (
            "Step 2: measured demands @ top design point",
            f"db.disk {report.demand_table.models['db.disk'](float(report.design[-1]))*1000:.2f} ms",
        ),
        ("Step 3: prediction", report.prediction.summary()),
        ("Validation: throughput deviation", f"{val['throughput']:.2f}%"),
        ("Validation: cycle-time deviation", f"{val['cycle_time']:.2f}%"),
        ("Validation: db.disk utilization deviation", f"{val['utilization:db.disk']:.2f}%"),
    ]
    text = format_table(
        ("Workflow stage", "Outcome"),
        rows,
        title="Fig. 17 — design -> measure -> predict workflow on VINS",
    )
    emit(text)

    assert val["throughput"] < 6.0
    assert val["cycle_time"] < 8.0
