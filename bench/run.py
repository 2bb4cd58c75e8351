"""hoiplan benchmark: seeded CLI workloads, measured end to end and per layer.

    python3 bench/run.py --workload plan-rooms --seed 1 --seconds 50 --trace 0

Runs real `hoiplan.cli.main(argv)` commands in this process, one closed-loop
client, over inputs generated from the seed (see BENCHMARK.json for why each
workload exists). Items run in whole cycles until another cycle would not fit
in --seconds, so every input class weighs the same in every run. Each item's
outputs are checked outside the timed region. The last line of standard
output is the result; the line before it records the run's identity.

Timings are reported at a reference host speed. A shared host's speed drifts
by a third within minutes, far more than the bounds a regression check needs.
So a fixed probe (`probe`, no hoiplan code) runs before and after every timed
item, and each wall time is scaled by PROBE_REF_S over the mean of the two
probes around it: a time in ms is what that work would take on a host where
the probe takes PROBE_REF_S. Set-up is process start and imports more than
compute, so it is scaled the same way by a bare interpreter's start
(SPAWN_REF_S). The identity line keeps the unscaled wall-clock figures.

--trace 0 reports the end-to-end metrics. --trace 1 runs the first cycle
untraced and traced item by item, repeating it while time allows, checks
that both give the same bytes, and reports per-item layer metrics plus the
tracing overhead; spans go to .bench_out/<workload>/trace.json.

--record-digests reruns every distinct item of the default seed and stores
its output digests in bench/digests.json; later runs of that seed must match.
"""

import os

# pin BLAS to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
DIGEST_SEED = 0
SETUP_RUNS = 7
PROBE_REF_S = 0.045   # the probe's seconds at the reference speed
SPAWN_REF_S = 0.07    # a bare interpreter's start, in seconds, at that speed


def fail(message: str):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


if not (ROOT / "src" / "hoiplan").is_dir() or not (ROOT / "tests" / "helpers.py").is_file():
    fail(f"no hoiplan checkout around {BENCH}: src/hoiplan and tests/helpers.py are needed")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

# per-item layer metrics; a name ending in .ms is that layer's self time
PER_LAYER = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

import numpy as np  # noqa: E402

import hoiplan  # noqa: E402
import hoiplan.cli  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def identity(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "hoiplan": hoiplan.__version__,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine()}


_PROBE_DOC = json.dumps([[i * 0.1, i * 0.2, i * 0.3] for i in range(4500)])
_PROBE_ARRAY = np.linspace(0.0, 1.0, 192).reshape(64, 3)


def probe() -> float:
    """Seconds for a fixed slice of work of the kinds hoiplan does, about a
    third each: a float loop, a JSON round trip and small numpy reductions.
    It calls no hoiplan code, so it measures only how fast the host runs now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(150_000):
        s += math.sqrt(i)
    json.dumps(json.loads(_PROBE_DOC))
    for _ in range(2250):
        (_PROBE_ARRAY * _PROBE_ARRAY).sum(axis=1).max()
    return time.perf_counter() - t0


class Probed:
    """Wall times with the probe's time around each, for scaling to the
    reference speed; `add` takes the time of what ran since the last probe."""

    def __init__(self, probe=probe, ref=PROBE_REF_S):
        self.wall: list[float] = []
        self.probe: list[float] = []
        self._run_probe, self.ref = probe, ref
        self._last = probe()

    def add(self, seconds: float):
        now = self._run_probe()
        self.wall.append(seconds)
        self.probe.append(0.5 * (self._last + now))
        self._last = now

    def scaled(self) -> list[float]:
        return [w * self.ref / p for w, p in zip(self.wall, self.probe)]


def interpreter_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs `code`, hoiplan importable."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds() -> tuple[float, float]:
    """Median time of a fresh interpreter importing hoiplan and its CLI, at
    the reference speed and on the wall clock."""
    runs = Probed(lambda: interpreter_seconds("pass"), SPAWN_REF_S)
    for _ in range(SETUP_RUNS):
        runs.add(interpreter_seconds("import hoiplan, hoiplan.cli"))
    return statistics.median(runs.scaled()), statistics.median(runs.wall)


def run_item(item) -> tuple[float, str | None]:
    """Run an item's commands; returns (seconds, error or None).

    The heap is collected first, outside the timed region, so that no item
    pays for garbage an earlier one left, as a fresh CLI process would not.
    """
    err = io.StringIO()
    error = None
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for argv in item.commands:
                code = hoiplan.cli.main(argv)
                if code != 0:
                    error = f"{argv[0]} exited {code}"
                    break
    except SystemExit as e:
        error = f"usage error, exit {e.code}"
    except Exception:  # a traceback breaks the CLI contract; count it and go on
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if error and err.getvalue():
        error += ": " + err.getvalue().strip()[:300]
    return seconds, error


class Checker:
    """Correctness of an item's outputs, outside the timed region."""

    def __init__(self, workload: str, seed: int):
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.expected = recorded.get(workload, {}) if seed == DIGEST_SEED else {}
        self.seen: dict[str, str] = {}
        self.problems: list[str] = []

    def __call__(self, item, error) -> bool:
        problems = [error] if error else []
        if not problems:
            try:
                problems = item.check()
                digest = item.digest()
            except Exception:  # unreadable or malformed output
                problems = [traceback.format_exc(limit=2)]
        if not problems:
            if self.seen.setdefault(item.id, digest) != digest:
                problems.append("output bytes differ from an earlier run of the same input")
            if self.expected.get(item.id, digest) != digest:
                problems.append("output bytes differ from the recorded digest")
        for p in problems:
            if len(self.problems) < 20:
                sys.stderr.write(f"bench: FAILED {item.id}: {p}\n")
            self.problems.append(f"{item.id}: {p}")
        return not problems


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(cycles_of, seconds: float, check: Checker):
    """Whole cycles until the next would overrun; returns item times and failures."""
    times, failed, cycle = Probed(), 0, 0
    while True:
        before = sum(times.wall)
        for item in cycles_of(cycle):
            t, error = run_item(item)
            times.add(t)
            failed += not check(item, error)
        cycle += 1
        elapsed = sum(times.wall)
        if elapsed + (elapsed - before) > seconds:
            return times, failed, cycle


def measure_traced(items, seconds: float, check: Checker, rec: spans.Recorder):
    """Repeat one cycle, each item untraced then traced, while time allows."""
    plain, traced = Probed(), Probed()
    attempted = failed = 0
    rounds = 0
    while True:
        before = sum(plain.wall) + sum(traced.wall)
        for k, item in enumerate(items):
            t, error = run_item(item)
            plain.add(t)
            ok = check(item, error)
            rec.current_item = k
            restore = spans.instrument(rec)
            try:
                root = rec.begin("cli")
                t, error = run_item(item)
                rec.finish(root)
            finally:
                restore()
            traced.add(t)
            attempted += 1
            failed += not (check(item, error) and ok)
        rounds += 1
        elapsed = sum(plain.wall) + sum(traced.wall)
        if elapsed + (elapsed - before) > seconds:
            return plain, traced, attempted, failed, rounds


def layer_metrics(rec: spans.Recorder, items: int, plain: Probed, traced: Probed) -> dict:
    """Per-item layer metrics; times are scaled to the reference speed by the
    run's median probe."""
    scale = PROBE_REF_S / statistics.median(plain.probe + traced.probe)
    self_s = rec.self_times()
    per_item = {name: 0.0 for name in PER_LAYER}
    for name, s in self_s.items():
        per_item[f"{name}.ms"] = 1000.0 * scale * s / items
    for name, n in rec.counts.items():
        per_item[name] = n / items
    ik = rec.counts.get("motion.ik.calls", 0)
    per_item["motion.ik.converged_ratio"] = rec.counts.get("motion.ik.converged", 0) / ik if ik else 0.0
    per_item["trace.item_ms"] = 1000.0 * scale * rec.root_time() / items
    per_item["trace.overhead_ratio"] = sum(traced.scaled()) / sum(plain.scaled())
    total_self = sum(self_s.values())
    if abs(total_self - rec.root_time()) > 1e-6 * max(1.0, rec.root_time()):
        fail(f"layer self times add up to {total_self} s, not the traced {rec.root_time()} s")
    return {name: {"value": per_item[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    make, distinct = WORKLOADS[args.workload]
    cache: dict[int, list] = {}

    def cycles_of(k):
        k %= distinct
        if k not in cache:
            cache[k] = make(ROOT, work / "inputs", args.seed, k)
        return cache[k]

    if args.record_digests:
        return record_digests(args, cycles_of, distinct)

    check = Checker(args.workload, args.seed)
    ident = identity(args)
    if args.trace:
        rec = spans.Recorder()
        items = cycles_of(0)
        plain, traced, attempted, failed, rounds = measure_traced(items, args.seconds, check, rec)
        metrics = layer_metrics(rec, len(items) * rounds, plain, traced)
        rec.write(work / "trace.json", ident)
        ident.update(items=attempted, rounds=rounds,
                     untraced_items_per_s=attempted / sum(plain.wall),
                     traced_items_per_s=attempted / sum(traced.wall))
    else:
        setup, wall_setup = setup_seconds()
        times, failed, cycles = measure(cycles_of, args.seconds, check)
        attempted = len(times.wall)
        ms = sorted(1000.0 * t for t in times.scaled())
        wall_ms = sorted(1000.0 * t for t in times.wall)
        metrics = {
            "item_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "item_ms_p90": {"value": quantile(ms, 0.9), "unit": "ms"},
            "items_per_s": {"value": 1000.0 * attempted / sum(ms), "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        ident.update(items=attempted, cycles=cycles, failed_ratio=failed / attempted,
                     wall={"run_s": sum(times.wall), "item_ms_p50": statistics.median(wall_ms),
                           "item_ms_p90": quantile(wall_ms, 0.9),
                           "items_per_s": attempted / sum(times.wall), "setup_s": wall_setup},
                     probe_ms_median=1000.0 * statistics.median(times.probe))
    ident["problems"] = check.problems[:20]
    print(json.dumps({"identity": ident}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def record_digests(args, cycles_of, distinct: int):
    if args.seed != DIGEST_SEED:
        fail(f"digests are recorded for seed {DIGEST_SEED} only")
    check = Checker(args.workload, -1)
    digests = {}
    for k in range(distinct):
        for item in cycles_of(k):
            if item.id not in digests and check(item, run_item(item)[1]):
                digests[item.id] = item.digest()
    if check.problems:
        fail(f"{len(check.problems)} items failed; no digests recorded")
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded[args.workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {args.workload}")


if __name__ == "__main__":
    main()
