"""Capacity planning for VINS — what-if analysis with MVASD.

The payoff of an analytical model over raw load testing: once the
demand curves are fitted from a few tests, hardware variations are a
re-solve, not a re-test.  This example:

* fits MVASD demand curves from the standard VINS campaign;
* checks an SLA ("cycle time under 4 s") against the current hardware
  and finds the maximum supported concurrency;
* evaluates two upgrades without any new load tests — a faster database
  disk array (halved db.disk demand) and doubling CPU cores — and shows
  only the one that touches the bottleneck helps.

Run:  python examples/vins_capacity_planning.py
"""

from repro import mvasd, run_sweep, vins_application
from repro.analysis import format_table

SLA_CYCLE_TIME = 4.0  # seconds
TARGET_USERS = 600


def max_users_within_sla(result, sla: float) -> int:
    """Largest population whose predicted cycle time meets the SLA."""
    ok = result.cycle_time <= sla
    return int(result.populations[ok][-1]) if ok.any() else 0


def solve_variant(app, demand_fns, scale: dict[str, float] | None = None):
    """Re-solve MVASD with selected stations' demand curves scaled."""
    fns = dict(demand_fns)
    for station, factor in (scale or {}).items():
        base = fns[station]
        fns[station] = lambda n, _b=base, _f=factor: _b(n) * _f
    return mvasd(app.network, 1500, demand_functions=fns)


def main() -> None:
    app = vins_application()
    print(f"Fitting demand curves from the {app.name} load-test campaign ...")
    sweep = run_sweep(app, duration=150.0, seed=31)
    fns = sweep.demand_table().functions()

    variants = {
        "current hardware": solve_variant(app, fns),
        "2x faster DB disk array": solve_variant(app, fns, {"db.disk": 0.5}),
        "32-core CPUs (no disk change)": None,  # needs a different network
    }
    # Doubling cores changes C_k, not demands: rebuild the network.
    app32 = vins_application(cpu_cores=32)
    variants["32-core CPUs (no disk change)"] = mvasd(
        app32.network, 1500, demand_functions=fns
    )

    rows = []
    for name, result in variants.items():
        at_target = result.at(TARGET_USERS)
        rows.append(
            (
                name,
                result.throughput.max(),
                at_target["cycle_time"],
                "yes" if at_target["cycle_time"] <= SLA_CYCLE_TIME else "NO",
                max_users_within_sla(result, SLA_CYCLE_TIME),
            )
        )
    print()
    print(
        format_table(
            (
                "Configuration",
                "X_max (pages/s)",
                f"R+Z @ {TARGET_USERS} users (s)",
                f"SLA {SLA_CYCLE_TIME:.0f}s met",
                "max users in SLA",
            ),
            rows,
            title=f"VINS capacity plan — SLA: cycle time <= {SLA_CYCLE_TIME:.0f}s",
        )
    )

    base = variants["current hardware"]
    disk = variants["2x faster DB disk array"]
    cpu = variants["32-core CPUs (no disk change)"]
    print(
        "\nReading: VINS is database-DISK bound "
        f"(bottleneck: {app.bottleneck(600)}).\n"
        f"  - Halving the DB disk demand lifts X_max from {base.throughput.max():.0f} "
        f"to {disk.throughput.max():.0f} pages/s — and no further, because the "
        "bottleneck migrates to the load-injector disk (the paper monitors "
        "the injector for exactly this reason).\n"
        f"  - Doubling CPU cores moves X_max only to {cpu.throughput.max():.0f} pages/s — "
        "money spent off the bottleneck buys nothing (utilization law)."
    )


if __name__ == "__main__":
    main()
