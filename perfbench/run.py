"""The repository's benchmark: one command, three seeded workloads.

Run one workload::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced for a quarter of the time,
traced for half and untraced again for the last quarter, prints a
per-layer table ordered by self time and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is always
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names, units and directions come from
``BENCHMARK.json``.

Run everything (each workload of ``BENCHMARK.json`` untraced, then
traced) and print one summary::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload serve-cold`` runs a fourth workload, the scalar-kernel cold
path, which ``BENCHMARK.json`` leaves out because its figures move with
the host's speed more than its bounds allow (see ``perfbench/README.md``).

Run from the root of a checkout: the program is imported from ``src``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name, unit and direction."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(spec: dict, seed: int, seconds: int) -> int:
    """Each workload untraced then traced, in fresh processes; one summary."""
    names = [w["name"] for w in spec["workloads"]]
    columns = spec["end_to_end"]
    results = {}
    ok = True
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            results[name, trace] = result
            ok = ok and proc.returncode == 0 and result["correct"]
    print("\nend-to-end metrics (tracing off)")
    print(f"  {'workload':<12}" + "".join(f" {m['name']:>16}" for m in columns))
    print(f"  {'':<12}" + "".join(f" {m['unit']:>16}" for m in columns))
    for name in names:
        metrics = results[name, 0]["metrics"]
        row = "".join(
            f" {metrics[m['name']]['value']:>16.4f}" if m["name"] in metrics else f" {'-':>16}"
            for m in columns
        )
        print(f"  {name:<12}{row}")
    print("\ntracing overhead (ops/s untraced vs traced, and the untraced rate's own "
          "drift across the traced phase, from each traced run)")
    for name in names:
        m = results[name, 1]["metrics"]
        if m:
            print(f"  {name:<12} {m['trace.untraced_ops_per_s']['value']:>10.4f} "
                  f"{m['trace.traced_ops_per_s']['value']:>10.4f} "
                  f"{m['trace.overhead_pct']['value']:>+8.1f} % "
                  f"(drift {m['trace.untraced_drift_pct']['value']:>+6.1f} %)")
    print(json.dumps({"correct": ok, "workloads": {
        f"{name}/trace{trace}": result for (name, trace), result in results.items()
    }}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    # A terminated run still stops its servers and fleet: the ``finally``
    # blocks only run if SIGTERM unwinds the stack like an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = load_spec()
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), RUNS)
    if result["metrics"]:
        declared = spec["per_layer" if args.trace else "end_to_end"]
        result["metrics"] = {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
