"""cubeaut benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload groups-cold --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and every file the run writes stays under ``.perfbench/`` in
the same checkout (removed at exit, except the span dumps of traced
runs in ``.perfbench/traces/``).

A run sets up the workload ``SETUP_REPEATS`` times, each in a fresh
interpreter, and reports the median as ``setup_s``. It then repeats
timed passes over the workload's operations until ``--seconds`` have
been measured. Only the calls into cubeaut are timed; every answer is
checked after its call, outside the timed region, and an exception or
a wrong answer counts as a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics. Their
times are scaled to a reference speed of the core by ``speed.SpeedProbe``
(see there and DESIGN.md); the raw wall time is printed beside them. With
``--trace 1`` the run makes one untraced pass, installs the span
wrappers and makes at least two traced passes; it reports the
per-layer metrics and the tracing overhead, and refuses to report when
a work counter differs between two traced passes.

Workload-mode guards: each groups-cold pass gets a fresh, empty cache
directory, and in traced runs it must see no cache hit; a cli-warm pass
must leave the filled cache untouched (nothing is stored, so nothing
missed), and in traced runs every automorphism_group call must hit. A
run whose guard fails reports no numbers and exits with status 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2
# The set-up child times itself, from before `import cubeaut` to the end of
# the preparation, and prints that time at reference speed as its last line.
SETUP_CODE = """\
import pathlib, sys, time
sys.path[:0] = sys.argv[1:3]
import speed
with speed.SpeedProbe() as probe:
    started = time.perf_counter()
    import workloads
    workloads.prepare(sys.argv[3], pathlib.Path(sys.argv[4]))
    ended = time.perf_counter()
print(probe.scaled([(started, ended)]))
"""


class InvalidRun(Exception):
    """A workload-mode guard or the counter stability check failed."""


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tree_state(path: Path) -> dict:
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in path.rglob("*") if p.is_file()}


def measure_setup(workload: str, area: Path) -> tuple:
    """Median reference-speed time of SETUP_REPEATS fresh-interpreter
    set-ups, and the directory the last one prepared."""
    times = []
    for i in range(SETUP_REPEATS):
        target = area / f"setup-{i}"
        target.mkdir(parents=True)
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(target)],
            check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        times.append(float(child.stdout.split()[-1]))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return statistics.median(times), target


def durations(spans) -> list:
    return [end - start for start, end in spans]


def run_pass(ops, rec=None) -> tuple:
    """Time each operation's call and check its answer afterwards.
    Returns the ``(start, end)`` span of each call and the failure messages."""
    spans, failures = [], []
    for label, run, check in ops:
        call = run if rec is None else (lambda run=run: rec.run_op(run))
        started = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is data, not a crash
            spans.append((started, perf_counter()))
            failures.append(f"{label}: raised {exc!r}")
            continue
        spans.append((started, perf_counter()))
        try:
            check(result)
        except Exception as exc:
            failures.append(f"{label}: {exc}")
    return spans, failures


class Workload:
    """Operations and guards of one workload for the passes of a run."""

    def __init__(self, name: str, seed: int, prepared: Path, area: Path):
        import workloads  # imports cubeaut, so only once src/ is on the path
        self.name = name
        self.area = area
        self.cache = prepared / "cache"
        self.passes = 0
        if name == "groups-cold":
            self._groups_ops = workloads.groups_ops
        elif name == "sfs-search":
            self._ops = workloads.sfs_ops()
        else:
            self._ops = workloads.cli_ops(seed, self.cache)
            self._filled = tree_state(self.cache)
            if not self._filled:
                raise InvalidRun("cli-warm set-up left an empty cache")

    def ops(self) -> list:
        """The next pass's operations; groups-cold gets a fresh cache dir."""
        self.passes += 1
        if self.name == "groups-cold":
            self.cache = self.area / f"pass-{self.passes}"
            if self.cache.exists():
                raise InvalidRun(f"{self.cache} exists before its pass")
            return self._groups_ops(self.cache)
        return self._ops

    def end_pass(self, layers=None) -> float:
        """Apply the guards; return the cache size in MB after the pass."""
        if self.name == "sfs-search":
            return 0.0
        size = tree_bytes(self.cache) / 2 ** 20 if self.cache.exists() else 0.0
        if self.name == "groups-cold":
            shutil.rmtree(self.cache, ignore_errors=True)
            if layers is not None and layers["automorphisms.cache_hits"]:
                raise InvalidRun("groups-cold hit the automorphism cache")
        else:
            if tree_state(self.cache) != self._filled:
                raise InvalidRun("a cli-warm pass changed the filled cache")
            if layers is not None and (
                    layers["automorphisms.cache_misses"]
                    or not layers["automorphisms.cache_hits"]):
                raise InvalidRun("a cli-warm pass missed the automorphism cache")
        return size


def measure(workload: Workload, seconds: float, rec=None, min_passes=1) -> tuple:
    """Passes until ``seconds`` of operation time are measured. Returns
    the per-pass operation spans, cache sizes, layer metrics, failure
    messages and the number of operations attempted."""
    passes, cache_mb, layers, failures, attempted = [], [], [], [], 0
    while len(passes) < min_passes or sum(sum(durations(p)) for p in passes) < seconds:
        # Groups and their cached subgroups form reference cycles; collect the
        # previous pass's so peak RSS does not depend on the number of passes.
        gc.collect()
        if rec is not None:
            rec.reset()
        ops = workload.ops()
        spans, failed = run_pass(ops, rec)
        passes.append(spans)
        attempted += len(ops)
        failures += failed
        layer = tracing.layer_metrics(rec) if rec is not None else None
        if layer is not None:
            layers.append(layer)
        cache_mb.append(workload.end_pass(layer))
    return passes, cache_mb, layers, failures, attempted


def traced_metrics(workload: Workload, seconds: float, trace_path: Path) -> tuple:
    untraced, _, _, failures, attempted = measure(workload, 0)
    rec = tracing.Recorder()
    tracing.install(rec)
    passes, cache_mb, layers, traced_failures, traced_attempted = measure(
        workload, seconds, rec, MIN_TRACED_PASSES)
    walls = [sum(durations(spans)) for spans in passes]
    rec.dump(trace_path)
    unstable = [k for k in tracing.COUNT_METRICS
                if len({layer[k] for layer in layers}) > 1]
    if unstable:
        raise InvalidRun(f"work counters differ between traced passes: {unstable}")
    found = {k: layers[0][k] if k in tracing.COUNT_METRICS
             else statistics.median(layer[k] for layer in layers) for k in layers[0]}
    found["automorphisms.cache_mb"] = statistics.median(cache_mb)
    found["trace.wall_s"] = statistics.median(walls)
    found["trace.overhead"] = statistics.median(walls) / sum(durations(untraced[0])) - 1
    metrics = {name: found[name] for name, _, _ in tracing.PER_LAYER}
    return (metrics, failures + traced_failures, attempted + traced_attempted,
            statistics.median(cache_mb))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("groups-cold", "sfs-search", "cli-warm"))
    parser.add_argument("--seed", type=int, default=20260808,
                        help="cli-warm sampling seed (criterion 9's by default)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubeaut" / "__init__.py").is_file():
        print(f"error: no cubeaut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cubeaut
    if Path(cubeaut.__file__).resolve().parent != SRC / "cubeaut":
        print(f"error: imported cubeaut from {cubeaut.__file__}", file=sys.stderr)
        return 2

    area = WORK / f"run-{os.getpid()}"
    try:
        setup_s, prepared = measure_setup(args.workload, area)
        workload = Workload(args.workload, args.seed, prepared, area)
        max_op_s = raw_wall_s = None
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics, failures, attempted, cache_mb = traced_metrics(
                workload, args.seconds, trace_path)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            with speed.SpeedProbe() as probe:
                passes, cache_mbs, _, failures, attempted = measure(workload, args.seconds)
            cache_mb = statistics.median(cache_mbs)
            times = [durations(spans) for spans in passes]
            # the slowest operation, by its median raw time over the passes
            max_op_s = max(map(statistics.median, zip(*times)))
            raw_wall_s = statistics.median(map(sum, times))
            metrics = {
                "pass_s": statistics.median(map(probe.scaled, passes)),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    except InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(area, ignore_errors=True)

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {name} {shown} {units[name]}")
    # printed but not reported: see DESIGN.md, "End-to-end metrics"
    if max_op_s is not None:
        print(f"{args.workload} max_op_s {max_op_s:.6g} s")
        print(f"{args.workload} wall_s {raw_wall_s:.6g} s")
    print(f"{args.workload} cache_mb {cache_mb:.6g} MB")
    print(f"{args.workload} failed_ops {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
