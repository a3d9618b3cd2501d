"""Extension 3 — software bottlenecks the paper scopes out.

The paper assumes connection pools are "tuned prior to performance
analysis".  This bench quantifies that assumption: with a database
connection pool of shrinking capacity, measured throughput detaches from
the (hardware-only) MVASD prediction while the hardware monitors show
idle resources — the signature that would tell a practitioner the model
scope was violated.
"""

from repro.analysis import format_table
from repro.core import mvasd
from repro.simulation import ConnectionPool, simulate_closed_network

CAPACITIES = (None, 64, 16, 8, 4)
USERS = 140


def test_ext03_connection_pool_bottleneck(benchmark, jps_app, jps_sweep, emit):
    db_stations = ("db.cpu", "db.disk", "db.net_tx", "db.net_rx")

    def run_all():
        out = {}
        for cap in CAPACITIES:
            pools = (
                [ConnectionPool("db-conns", cap, db_stations)] if cap else []
            )
            out[cap] = simulate_closed_network(
                jps_app.network, USERS, duration=200.0, warmup=20.0, seed=5, pools=pools
            )
        return out

    sims = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = jps_sweep.demand_table()
    predicted = mvasd(jps_app.network, USERS, demand_functions=table.functions())
    pred_x = float(predicted.throughput[-1])

    rows = []
    for cap, sim in sims.items():
        wait = sim.pool("db-conns").mean_wait * 1000 if cap else 0.0
        rows.append(
            (
                "unlimited" if cap is None else cap,
                sim.throughput,
                sim.response_time,
                sim.utilization_of("db.cpu") * 100,
                wait,
                (pred_x - sim.throughput) / sim.throughput * 100,
            )
        )
    text = format_table(
        (
            "DB pool size",
            "X (pages/s)",
            "R (s)",
            "db.cpu util %",
            "pool wait (ms)",
            "MVASD overprediction %",
        ),
        rows,
        title=f"Extension 3 — untuned DB connection pool at {USERS} users (MVASD predicts {pred_x:.1f}/s)",
    )
    text += (
        "\n\nHardware-only models stay accurate while the pool is generous "
        "and overpredict sharply once it binds — with the CPU visibly idle."
    )
    emit(text)

    unlimited = sims[None].throughput
    tight = sims[4].throughput
    assert tight < unlimited * 0.75
    assert sims[4].utilization_of("db.cpu") < sims[None].utilization_of("db.cpu") * 0.75
    assert abs(pred_x - unlimited) / unlimited < 0.1
    assert (pred_x - tight) / tight > 0.3
