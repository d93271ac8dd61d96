"""Shared plumbing for the wire-to-alert benchmark.

Everything here is harness code: locating the program's sources in the
checkout, clocks, order statistics, peak memory, the run environment,
detector construction through the program's public API, and the result
record every workload returns.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of a run (pcap files, span dumps); listed in .gitignore.
WORK = ROOT / ".perfbench-out"

#: Batch size of the two replay workloads (the scenario scorer's size).
REPLAY_BATCH = 2048


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` at the checkout root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def bound(name: str) -> float:
    """The regression bound ``BENCHMARK.json`` fixes for an end-to-end metric."""
    return next(m["bound"] for m in load_spec()["end_to_end"] if m["name"] == name)


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def import_program() -> None:
    """Put ``<root>/src`` on the path and check that ``repro`` imports."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (import check only)


now_ns = time.perf_counter_ns


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _calibration_loop(iterations: int) -> int:
    # Interpreter-bound like the program: int arithmetic, dict get/set.
    cells: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        cells[i & 255] = cells.get(i & 255, 0) + i
        total += (i * i) % 7
    return total


class Calibrator:
    """Normalizes times to a reference machine speed.

    Shared 2-core runners change speed by up to ~1.5x in regimes that last
    from one to several seconds, which no amount of averaging inside one run
    removes.  So timed work is interleaved with runs of a fixed calibration
    loop, and a time is scaled by the loop's reference time over its measured
    time next to that work: the result is the time the work would have taken
    at the speed where one loop iteration takes ``REF_NS_PER_ITERATION``.
    Both the program and the loop run interpreted Python, so a slower regime
    slows both alike.

    ``clock`` is wall time by default; a thread's CPU time
    (``time.thread_time_ns``) suits a loop run on a thread that shares the
    interpreter with others.
    """

    #: Reference speed: a 2-core runner in its fast regime.
    REF_NS_PER_ITERATION = 200

    def __init__(self, iterations: int = 20_000, clock: Callable[[], int] = time.perf_counter_ns):
        self.iterations = iterations
        self.clock = clock
        self.ref_ns = iterations * self.REF_NS_PER_ITERATION
        self.samples: List[int] = []

    def sample(self, repeats: int = 1) -> int:
        """Time the loop ``repeats`` times; the median, in ns."""
        times = []
        for _ in range(repeats):
            start = self.clock()
            _calibration_loop(self.iterations)
            times.append(self.clock() - start)
        value = int(statistics.median(times))
        self.samples.append(value)
        return value

    def unit_factors(self, reach: int = 0) -> List[float]:
        """Scales for the units of work timed between consecutive samples.

        Unit ``i`` ran between samples ``i`` and ``i + 1``; its scale is the
        reference time over the median of those two samples and ``reach``
        more on each side, which smooths the noise of single short loops.
        """
        samples = self.samples
        return [
            self.ref_ns / median(samples[max(0, i - reach) : i + 2 + reach])
            for i in range(len(samples) - 1)
        ]

    def median_factor(self) -> float:
        return self.ref_ns / median(self.samples) if self.samples else 1.0


def settle_heap() -> None:
    """Collect, then freeze every live object before a timed region.

    The benchmark holds its inputs and references in the same process as
    the program; frozen, they are no longer scanned by full collections, so
    collector pauses in the timed region come from what the program itself
    allocates.
    """
    gc.collect()
    gc.freeze()


def timed_setups(
    setup: Callable[[Callable[[], None]], Any], count: int
) -> Tuple[Any, List[float]]:
    """Run ``setup(mark)`` ``count`` times from a settled heap.

    Returns the last result and each set-up's normalized duration in
    seconds.  ``mark()`` ends a timed segment: calibration loops run before
    the set-up, at each mark and at its end, and each segment is scaled by
    the loops on either side of it.
    """
    seconds = []
    result = None
    for _ in range(count):
        settle_heap()
        cal = Calibrator()
        segments: List[int] = []
        cal.sample(3)
        start = time.perf_counter_ns()

        def mark() -> None:
            nonlocal start
            segments.append(time.perf_counter_ns() - start)
            cal.sample(3)
            start = time.perf_counter_ns()

        result = setup(mark)
        mark()
        seconds.append(sum(ns * f for ns, f in zip(segments, cal.unit_factors())) / 1e9)
    return result, seconds


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, Any]:
    """Interpreter, optional accelerators and core count of this run."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401

        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba_version,
        "nproc": os.cpu_count(),
    }


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def _child_pids() -> List[int]:
    """Processes whose parent is this one (from ``/proc``; empty elsewhere)."""
    me = os.getpid()
    children = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            stat = entry.read_text()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; the ppid follows it.
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            children.append(int(entry.parent.name))
    return children


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Shuts the program's worker pools down, stops the ``multiprocessing``
    resource tracker (which shared-memory columns start and which would
    otherwise outlive the run by a moment), then reaps any child left:
    after ``grace_s`` it is sent ``SIGKILL``.
    """
    import signal

    parallel = sys.modules.get("repro.stat4.parallel")
    if parallel is not None:
        parallel.shutdown_pools()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    for pid in _child_pids():
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


# -- detectors ------------------------------------------------------------------


def build_node(config: Any, bindings: Sequence[Tuple[int, Any, Any]], name: str):
    """A ``SwitchNode`` running a fresh detector, as the scenario scorer builds it.

    The scalar reference calls ``stat4.process`` on the same construction.
    Returns ``(node, stat4, runtime, handles)``; the caller picks the batch
    engine.
    """
    from repro.netsim.network import Network
    from repro.netsim.switchnode import SwitchNode
    from repro.p4.parser import standard_parser
    from repro.p4.pipeline import PipelineProgram
    from repro.p4.registers import RegisterFile
    from repro.stat4.library import Stat4
    from repro.stat4.runtime import Stat4Runtime

    registers = RegisterFile()
    stat4 = Stat4(config, registers)
    runtime = Stat4Runtime(stat4)
    handles = [runtime.bind(stage, match, spec)[0] for stage, match, spec in bindings]
    program = PipelineProgram(
        name=f"bench_{name}",
        parser=standard_parser(),
        registers=registers,
        ingress=stat4.process,
    )
    stat4.install_into(program)
    node = SwitchNode(f"bench-{name}", program)
    # An unwired CPU port drops pushed digests; ingest_batch still
    # returns them, which is what the benchmark checks.
    Network().add(node)
    return node, stat4, runtime, handles


def table_counters(stat4: Any) -> Tuple[int, int]:
    """Summed ``(lookups, hits)`` over the detector's binding tables."""
    lookups = sum(table.lookups for table in stat4.binding_tables)
    hits = sum(table.hits for table in stat4.binding_tables)
    return lookups, hits


def add_kernels(total: Dict[str, int], kernels: Dict[str, int]) -> None:
    for name, events in kernels.items():
        total[name] = total.get(name, 0) + events


# -- results --------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports.

    ``failures`` holds the correctness-check findings; any finding makes the
    run incorrect, and an incorrect run reports no timings.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


def result_line(outcome: Outcome, units: Dict[str, str], names: Sequence[str]) -> str:
    """The final stdout line: ``correct``/``attempted``/``failed``/``metrics``."""
    correct = outcome.correct
    metrics = (
        {name: {"value": float(outcome.metrics[name]), "unit": units[name]} for name in names}
        if correct
        else {}
    )
    return json.dumps(
        {
            "correct": correct,
            "attempted": int(max(1, outcome.attempted)),
            "failed": int(outcome.attempted if not correct else outcome.failed),
            "metrics": metrics,
        }
    )
