"""kgsquare benchmark: one seeded workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory. ``--trace 0`` prints every end-to-end metric; ``--trace 1``
repeats the workload with spans around each call into kgsquare and prints
every per-layer metric. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
environment included, goes to perfbench/results/ (or --out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MAX_FAILURE_REPORTS = 5
# A run ends after at least this many whole cycles, so that every input has
# a median over repetitions and one slow stretch of the host cannot halve
# the samples of a workload whose cycle takes close to half the run.
MIN_CYCLES = 2


def _load_package():
    """Import kgsquare from this checkout's src/ or exit with code 2."""
    if not (SRC / "kgsquare" / "__init__.py").is_file():
        print(f"error: no kgsquare package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import kgsquare

    if not Path(kgsquare.__file__).resolve().is_relative_to(SRC):
        print(f"error: kgsquare imported from {kgsquare.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return kgsquare


kgsquare = _load_package()

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import Latencies, RepeatMedians, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment(seed: int) -> dict:
    """Seed, source identity and the machine facts stored with every result."""
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgsquare").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def setup_seconds(warmup: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of `import
    kgsquare` plus the warm-up call, SETUP_REPEATS times. The child reads
    the same system-wide monotonic clock as the parent."""
    code = (
        "import sys, time\nimport kgsquare\n"
        "if not kgsquare.__file__.startswith(sys.argv[1]): sys.exit(3)\n"
        f"{warmup}\nprint(time.monotonic_ns())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        out.append((int(done.stdout) - start) / 1e9)
    return out


class Loop:
    """Closed-loop driver: whole input cycles while the next one is expected
    to end within the time budget, at least MIN_CYCLES. Untraced runs also
    keep each input's median latency over the cycles (self.reps)."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.lat = Latencies()
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.wall_s = 0.0
        self.by_kind: dict[str, list[int]] = {}
        self.reps = RepeatMedians(len(wl.inputs))

    def _fail(self, inp, exc: BaseException | None) -> None:
        self.failed += 1
        if self.failed <= MAX_FAILURE_REPORTS:
            what = "".join(traceback.format_exception_only(exc)).strip() if exc else "check failed"
            print(f"{self.wl.name}: operation failed on {inp!r}: {what}", file=sys.stderr)

    def run(self, seconds: float, tracer: Tracer | None = None) -> None:
        wl, lat = self.wl, self.lat
        t0 = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            row = [0] * len(wl.inputs) if tracer is None else None
            for j in wl.cycle():
                if tracer is not None and tracer.full:
                    break
                inp = wl.inputs[j]
                self.attempted += 1
                exc = out = None
                if tracer is None:
                    start = time.perf_counter_ns()
                    try:
                        out = wl.op(inp)
                    except Exception as e:  # a raising operation counts as failed
                        exc = e
                    ns = time.perf_counter_ns() - start
                else:
                    tracer.op_id = self.attempted
                    root = tracer.begin(f"{wl.name}.op")
                    try:
                        out = wl.op_traced(tracer, inp)
                    except Exception as e:  # a raising operation counts as failed
                        exc = e
                    ns = tracer.finish(root)
                lat.add(ns)
                if row is not None:
                    row[j] = ns
                kind = wl.kind(inp)
                if kind is not None:
                    self.by_kind.setdefault(kind, []).append(ns)
                if exc is not None or not wl.check(inp, out):
                    self._fail(inp, exc)
            if row is not None:
                self.reps.add(row)
            self.cycles += 1
            now = time.perf_counter()
            if (tracer is not None and tracer.full) or (
                self.cycles >= MIN_CYCLES and now - t0 + (now - c0) > seconds
            ):
                break
        self.wall_s += time.perf_counter() - t0


def end_to_end(wl, loop: Loop, setups: list[float]) -> tuple[dict, dict]:
    lat = loop.lat
    tail_p, beyond = tail_percentile(lat.n)
    ok = loop.attempted - loop.failed
    if wl.levels_reference:
        found_frac = wl.levels_found / wl.levels_reference
    else:
        found_frac = 1.0  # no reference levels on this workload: nothing missing
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (lat.n / (lat.total_ns / 1e9), "1/s"),
        "op_p50_ms": (loop.reps.percentile(50.0) / 1e6, "ms"),
        "op_tail_ms": (loop.reps.percentile(tail_p) / 1e6, "ms"),
        "ok_frac": (ok / loop.attempted, "ratio"),
        "levels_found_frac": (found_frac, "ratio"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    detail = {
        "setup_s_samples": setups,
        "samples": lat.n,
        "busy_s": lat.total_ns / 1e9,
        "wall_s": loop.wall_s,
        "cycles": loop.cycles,
        "op_tail_percentile": tail_p,
        "op_tail_samples_beyond": beyond,
        "repeats_per_input_median": loop.reps.kept,
        "raw_percentiles_ms": {str(p): lat.percentile(p) / 1e6 for p in (50.0, 90.0, 99.0, 99.9) if lat.n >= 10},
        "p50_ms_by_kind": {k: statistics.median(v) / 1e6 for k, v in sorted(loop.by_kind.items())},
        "fail_frac": loop.failed / loop.attempted,
        "fail_base": loop.attempted,
        "levels_reference": wl.levels_reference,
        "levels_missing": wl.levels_reference - wl.levels_found,
        "levels_missing_frac": (
            (wl.levels_reference - wl.levels_found) / wl.levels_reference if wl.levels_reference else None
        ),
    }
    return metrics, detail


def per_layer(wl, seconds: float, out_stem: Path) -> tuple[dict, dict, int, int]:
    """Traced run: half the time untraced, half traced, then the fixed layer
    measurements. Returns (metrics, detail, attempted, failed)."""
    plain = Loop(wl)
    plain.run(seconds / 2.0)
    loop_tr = Tracer()
    traced = Loop(wl)
    traced.run(seconds / 2.0, loop_tr)
    layer_tr = Tracer()
    values = layers.measure_layers(layer_tr, ROOT)
    plain_mean = plain.lat.total_ns / plain.lat.n
    traced_mean = traced.lat.total_ns / traced.lat.n
    values["trace.overhead_pct"] = 100.0 * (traced_mean - plain_mean) / plain_mean
    for layer in layers.LAYERS:
        values[f"{layer}.errors"] = loop_tr.errors.get(layer, 0) + layer_tr.errors.get(layer, 0)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (values[name], units[name]) for name in units}
    loop_tr.write(out_stem.with_name(out_stem.name + "_loop_spans.npz"))
    layer_tr.write(out_stem.with_name(out_stem.name + "_layer_spans.npz"))
    self_ns = loop_tr.self_times_ns()
    detail = {
        "loop_self_time_s": {name: ns / 1e9 for name, ns in sorted(self_ns.items())},
        "untraced_op_mean_ms": plain_mean / 1e6,
        "traced_op_mean_ms": traced_mean / 1e6,
        "untraced_samples": plain.lat.n,
        "traced_samples": traced.lat.n,
        "spans": len(loop_tr.start) + len(layer_tr.start),
    }
    return metrics, detail, plain.attempted + traced.attempted, plain.failed + traced.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file (default: perfbench/results/...)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    wl = WORKLOADS[args.workload](ROOT, np.random.default_rng(args.seed))
    out_path = args.out or HERE / "results" / (
        f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    setups = setup_seconds(wl.warmup) if not args.trace else []
    wl.setup()
    exec(wl.warmup, {"kgsquare": kgsquare})
    if args.trace:
        metrics, detail, attempted, failed = per_layer(wl, args.seconds, out_path.with_suffix(""))
    else:
        loop = Loop(wl)
        loop.run(args.seconds)
        metrics, detail = end_to_end(wl, loop, setups)
        attempted, failed = loop.attempted, loop.failed

    print(f"kgsquare benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for key, value in detail.items():
        if not isinstance(value, (dict, list)):
            print(f"  # {key} = {value}")
    for name, secs in detail.get("loop_self_time_s", {}).items():
        print(f"  # self time {name:28s} {secs:.6f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  detail=detail, environment=environment(args.seed))
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
