"""Per-layer metrics of the traced run, from fixed inputs that are the same
for every workload and seed, so that one layer's numbers compare directly
between commits. Each call from here into kgsquare sits inside a span.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from kgsquare import (
    PotentialConfig,
    amplitudes,
    cli,
    coefficients,
    detect_ssw,
    find_bound_states,
    oracle_bound_states,
    oracle_transmission,
    spectrum_sweep,
    sweep_transmission,
)
from reference import match_levels, reference_levels
from spans import Tracer
from stats import Latencies, tail_percentile
from workloads import ORACLE_STEPS, PRESETS, WIDE_A, WIDE_DEFECT_CONFIGS, WIDE_V0_WINDOWS, scatter_samples

LAYERS = ("core", "scatter", "bound", "oracle", "tables", "cli")

# Grids of the sweep presets: (E, g_t, a, V0 min, V0 max, steps) and
# (g_t, a, V0 min, V0 max, steps).
SWEEP_T_GRIDS = {
    "fig1": (1.1, 1.0, 1.0, 0.0, 10.0, 1000),
    "fig2": (1.1, 0.5, 1.0, 0.0, 10.0, 1000),
    "fig3": (1.1, 0.25, 3.0, -10.0, 2.0, 1000),
}
SWEEP_BOUND_GRIDS = {
    "fig5": (1.0, 0.5, -4.0, -0.01, 800),
    "fig6": (0.75, 0.5, -4.0, -0.01, 800),
    "fig7": (0.5, 5.0, -4.0, -0.01, 800),
    "fig8": (0.25, 5.0, -3.99, -0.01, 800),
    "fig9": (0.0, 5.0, -1.99, -0.01, 800),
}
ORACLE_LEVELS_CONFIG = PotentialConfig(-2.5, 5.0, 0.5)  # criterion 5, fig7 group
ORACLE_SCAN_CONFIG = PotentialConfig(-2.0, 5.0, 0.0)  # no levels: the scan pass alone
ORACLE_TRANSMISSION_INPUT = (1.5, PotentialConfig(2.0, 1.0, 0.5))
REPEATS = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import kgsquare; print(time.perf_counter() - t)"


def _p50(values: list[float]) -> float:
    return statistics.median(values)


def _total_ns(tr: Tracer, name: str) -> int:
    return sum(tr.durations_ns(name))


def wide_well_params() -> list[tuple[float, float, float]]:
    """The wide-wells grid at the middle of each V0 window, plus the defect
    configurations."""
    params = [(0.5 * sum(WIDE_V0_WINDOWS[g_t]), a, g_t) for a in WIDE_A for g_t in WIDE_V0_WINDOWS]
    return params + list(WIDE_DEFECT_CONFIGS)


def _scatter(tr: Tracer, m: dict) -> None:
    for energy, v0, a, g_t in scatter_samples(np.random.default_rng(0), 200):
        cfg = tr.call("core.config", PotentialConfig, v0, a, g_t)
        tr.call("scatter.coefficients", coefficients, energy, cfg)
        tr.call("scatter.amplitudes", amplitudes, energy, cfg)
    for name in ("core.config", "scatter.coefficients", "scatter.amplitudes"):
        m[f"{name}_us"] = _p50(tr.durations_ns(name)) / 1e3
    for threads in (1, 2):
        name = f"scatter.sweep_t{threads}"
        for _ in range(REPEATS):
            for energy, g_t, a, lo, hi, steps in SWEEP_T_GRIDS.values():
                grid = np.linspace(lo, hi, steps + 1)
                tr.call(name, sweep_transmission, energy, g_t, a, grid, threads=threads)
        m[f"{name}_ms"] = _p50(tr.durations_ns(name)) / 1e6


def _bound(tr: Tracer, m: dict) -> None:
    cfgs = [PotentialConfig(*p) for p in wide_well_params()]
    found = reference = 0
    for rep in range(REPEATS):
        for cfg in cfgs:
            states = tr.call("bound.find_bound_states", find_bound_states, cfg)
            if rep == 0:
                ref = reference_levels(cfg.v0, cfg.half_width_a, cfg.g_t)
                found += match_levels(ref, [(s.energy_e, s.parity) for s in states])[0]
                reference += ref.count
    lat = Latencies()
    for ns in tr.durations_ns("bound.find_bound_states"):
        lat.add(ns)
    m["bound.find_bound_states_ms"] = lat.percentile(50.0) / 1e6
    m["bound.find_bound_states_tail_ms"] = lat.percentile(tail_percentile(lat.n)[0]) / 1e6
    m["bound.levels_found"] = found
    m["bound.levels_reference"] = reference

    branches = candidates = events = 0
    for g_t, a, lo, hi, steps in SWEEP_BOUND_GRIDS.values():
        grid = np.linspace(lo, hi, steps + 1)
        sweep = tr.call("bound.spectrum_sweep_t1", spectrum_sweep, g_t, a, grid, threads=1)
        tr.call("bound.spectrum_sweep_t2", spectrum_sweep, g_t, a, grid, threads=2)
        for v0 in grid.tolist():
            tr.call("bound.sweep_solve", find_bound_states, PotentialConfig(v0, a, g_t))
        tr.call("bound.detect_ssw", detect_ssw, sweep)
        branches += len(sweep.branches)
        candidates += len(getattr(sweep, "ssw_candidates", ()))
        events += len(sweep.ssw_events)
    t1, solve, detect = (_total_ns(tr, f"bound.{n}") for n in ("spectrum_sweep_t1", "sweep_solve", "detect_ssw"))
    m["bound.sweep_solve_s"] = solve / 1e9
    m["bound.detect_ssw_ms"] = detect / 1e6
    m["bound.sweep_link_s"] = (t1 - solve - detect) / 1e9
    m["bound.spectrum_sweep_t1_s"] = t1 / 1e9
    m["bound.spectrum_sweep_t2_s"] = _total_ns(tr, "bound.spectrum_sweep_t2") / 1e9
    m["bound.branches"] = branches
    m["bound.ssw_candidates"] = candidates
    m["bound.ssw_events"] = events
    m["bound.ssw_useful_ratio"] = events / candidates if candidates else 1.0


def _oracle(tr: Tracer, m: dict) -> None:
    cfg = ORACLE_LEVELS_CONFIG
    levels = tr.call("oracle.bound_states", oracle_bound_states, cfg, ORACLE_STEPS)
    closed = tr.call("bound.find_bound_states", find_bound_states, cfg)
    tr.call("oracle.scan", oracle_bound_states, ORACLE_SCAN_CONFIG, ORACLE_STEPS)
    energy, tcfg = ORACLE_TRANSMISSION_INPUT
    tr.call("oracle.transmission", oracle_transmission, energy, tcfg, ORACLE_STEPS)
    bound_ns, scan_ns = _total_ns(tr, "oracle.bound_states"), _total_ns(tr, "oracle.scan")
    m["oracle.bound_states_s"] = bound_ns / 1e9
    m["oracle.scan_s"] = scan_ns / 1e9
    m["oracle.refine_s"] = (bound_ns - scan_ns) / 1e9
    m["oracle.transmission_s"] = _total_ns(tr, "oracle.transmission") / 1e9
    m["oracle.max_level_dev"] = max(
        (abs(s.energy_e - e) for s, (e, _) in zip(closed, levels)), default=0.0
    )


def _cli(tr: Tracer, m: dict, root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports = []
    for _ in range(REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], cwd=root, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        imports.append(float(out.stdout))
    m["cli.import_ms"] = _p50(imports) * 1e3

    handlers = {"sweep-t": cli.cmd_sweep_t, "bound": cli.cmd_bound, "sweep-bound": cli.cmd_sweep_bound}
    size = 0
    for preset, command, _ in PRESETS:
        argv = [command, "--preset", preset]
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.call("cli.main", cli.main, argv)
        if code in (2, 3):  # the CLI's exit codes for DomainError, NumericalError
            tr.errors["cli"] = tr.errors.get("cli", 0) + 1
        table = tr.call("cli.handler", handlers[command], cli.build_parser().parse_args(argv))
        for fmt in ("csv", "json"):
            size += len(tr.call("tables.render", table.render, fmt).encode())
    m["cli.main_ms"] = _total_ns(tr, "cli.main") / 1e6
    m["tables.render_ms"] = _total_ns(tr, "tables.render") / 1e6
    m["tables.bytes"] = size


def measure_layers(tr: Tracer, root: Path) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead and error counts."""
    m: dict[str, float] = {}
    _scatter(tr, m)
    _bound(tr, m)
    _oracle(tr, m)
    _cli(tr, m, root)
    return m
