"""Wire-to-alert benchmark: one workload, one seed, one run.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload pcap_catalog --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --describe

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
makes the separate traced run that gives the per-layer metrics.  Either way
the run checks its digests against the scalar reference, prints every
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  A run that fails the
check prints the findings on stderr and reports no timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Tuple

from common import (
    MissingProgram,
    environment,
    import_program,
    load_spec,
    result_line,
    stop_children,
)

WORKLOADS = ("pcap_catalog", "columnar_fanout", "feed_drilldown")


def runner(workload: str, traced: bool) -> Callable[[int, float], object]:
    if workload == "pcap_catalog":
        import w_pcap as module
    elif workload == "columnar_fanout":
        import w_columnar as module
    else:
        import w_feed as module
    return module.per_layer if traced else module.end_to_end


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print the metric map and exit")
    args = parser.parse_args()

    try:
        spec = load_spec()
        import_program()
    except (OSError, ValueError, MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2

    if args.describe:
        import layers

        print("\n".join(layers.describe()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    units: Dict[str, str] = {m["name"]: m["unit"] for m in metrics}
    names: Tuple[str, ...] = tuple(units)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    try:
        outcome = runner(args.workload, bool(args.trace))(args.seed, args.seconds)
    finally:
        stop_children()
    for finding in outcome.failures:
        print(f"perfbench: check failed: {finding}", file=sys.stderr)
    if outcome.correct:
        if args.trace:
            # A layer the workload does not cross reads 0 (see layers.py).
            for name in names:
                outcome.metrics.setdefault(name, 0.0)
        missing = [name for name in names if name not in outcome.metrics]
        if missing:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
            return 1
        for name in names:
            print(f"{name:34} {outcome.metrics[name]:>16.6g} {units[name]}")
    print(result_line(outcome, units, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
