"""Designing a load-test campaign with Chebyshev nodes (Section 8).

Given a test budget (licenses, time), where should the few load tests
go?  This example sizes a JPetStore campaign:

* prints the eq. 19 error-bound table to pick the node count;
* generates Chebyshev, uniform and random designs at that budget;
* runs each design, fits demand splines, predicts with MVASD and scores
  every strategy against a dense reference campaign.

Run:  python examples/chebyshev_test_design.py
"""

from repro import jpetstore_application, mvasd, run_sweep
from repro.analysis import format_table, mean_percent_deviation
from repro.interpolate import exponential_error_bound
from repro.workflow import design_points

BUDGET = 5  # load tests we can afford
RANGE = (1, 300)


def main() -> None:
    app = jpetstore_application()

    print("Step 0 — how many tests do we need? (eq. 19 bound, exp-like demands)")
    rows = [
        (n, f"{exponential_error_bound(n, 0.5):.2e}", f"{exponential_error_bound(n, 1.0):.2e}")
        for n in range(2, 9)
    ]
    print(format_table(("nodes", "bound mu=0.5", "bound mu=1.0"), rows))
    print(f"-> past 5 nodes the bound is under 0.2%; we use budget = {BUDGET}.\n")

    print("Dense reference campaign (what an unlimited budget would measure) ...")
    reference = run_sweep(app, duration=150.0, seed=77)

    rows = []
    for strategy in ("chebyshev", "uniform", "random"):
        pts = design_points(BUDGET, *RANGE, strategy=strategy, seed=5)
        sweep = run_sweep(app, levels=[int(p) for p in pts], duration=150.0, seed=88)
        table = sweep.demand_table()
        prediction = mvasd(app.network, 280, demand_functions=table.functions())
        lv = reference.levels.astype(float)
        dev_x = mean_percent_deviation(
            prediction.interpolate_throughput(lv), reference.throughput
        )
        dev_ct = mean_percent_deviation(
            prediction.interpolate_cycle_time(lv), reference.cycle_time
        )
        rows.append((strategy, str(pts.tolist()), dev_x, dev_ct))

    print()
    print(
        format_table(
            ("Strategy", f"{BUDGET} test points", "X dev (%)", "R+Z dev (%)"),
            rows,
            title="Design-strategy shoot-out (validated against the dense campaign)",
        )
    )
    print(
        "\nChebyshev placement concentrates tests near the range ends where "
        "spline extrapolation is most fragile — the paper's recommendation "
        "for budget-constrained campaigns."
    )


if __name__ == "__main__":
    main()
