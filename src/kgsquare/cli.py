"""Command-line interface: single evaluations and parameter sweeps, emitted
as deterministic CSV (default) or JSON on stdout; diagnostics go to stderr.

Exit codes: 0 success, 1 usage error, 2 domain error (unphysical input),
3 internal numerical failure.

Only ``sweep-bound`` and the levels path of ``bound`` import the numpy-backed
``bound`` layer; the other commands run on the scalar layers alone.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any

from . import scatter
from .core import (
    DomainError,
    NumericalError,
    PotentialConfig,
    classify,
    interior_q_squared,
)
from .tables import SweepTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

ABOUT_UNITS = """\
Units used throughout (natural units, hbar = c = 1):
  - energies E and potential strengths V0 are in units of the particle rest
    energy m c^2; the continua are |E| >= 1 and bound states have |E| < 1;
  - lengths (the half-width a) are in units of the Compton wavelength
    hbar / (m c);
  - wavenumbers k, q, kappa are in units of 1 / Compton wavelength, so
    phases such as z = q a are dimensionless;
  - transmission T and reflection R are dimensionless with R + T = 1.
The coupling mix is set by g_t in [0, 1]: a fraction g_t of V0 enters like
the time component of a vector potential and the rest, g_s = 1 - g_t, like
a scalar (mass-like) potential."""

# Named parameter sets reproducing the figure-style tables.
SWEEP_T_PRESETS: dict[str, dict[str, float | int]] = {
    "fig1": {"energy": 1.1, "gt": 1.0, "half_width": 1.0, "v0_min": 0.0, "v0_max": 10.0, "steps": 1000},
    "fig2": {"energy": 1.1, "gt": 0.5, "half_width": 1.0, "v0_min": 0.0, "v0_max": 10.0, "steps": 1000},
    "fig3": {"energy": 1.1, "gt": 0.25, "half_width": 3.0, "v0_min": -10.0, "v0_max": 2.0, "steps": 1000},
}
SWEEP_BOUND_PRESETS: dict[str, dict[str, float | int]] = {
    "fig5": {"gt": 1.0, "half_width": 0.5, "v0_min": -4.0, "v0_max": -0.01, "steps": 800},
    "fig6": {"gt": 0.75, "half_width": 0.5, "v0_min": -4.0, "v0_max": -0.01, "steps": 800},
    "fig7": {"gt": 0.5, "half_width": 5.0, "v0_min": -4.0, "v0_max": -0.01, "steps": 800},
    "fig8": {"gt": 0.25, "half_width": 5.0, "v0_min": -3.99, "v0_max": -0.01, "steps": 800},
    "fig9": {"gt": 0.0, "half_width": 5.0, "v0_min": -1.99, "v0_max": -0.01, "steps": 800},
}
BOUND_PRESETS: dict[str, dict[str, Any]] = {
    "fig4": {"quantization_table": True, "z0": 8.0, "steps": 400},
}

EVENT_COLUMNS = ["event", "parity", "v0", "energy", "branch_a", "branch_b", "continuum"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _apply_preset(args: argparse.Namespace, presets: dict[str, dict]) -> None:
    if getattr(args, "preset", None) is None:
        return
    for key, value in presets[args.preset].items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _params(args: argparse.Namespace, command: str, names: list[str], **extra: Any) -> dict[str, Any]:
    """The echoed inputs: ``command``, then ``extra`` (e.g. the preset), then
    ``names`` in order. A name whose value is None is a missing argument."""
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"missing required arguments: {', '.join(missing)}")
    return {"command": command, **extra, **{n: getattr(args, n) for n in names}}


def _grid(args: argparse.Namespace) -> list[float]:
    """The ``steps + 1`` sweep strengths from ``v0_min`` to ``v0_max``, with
    the bits of ``numpy.linspace``: ``i * step + start``, or ``(i / steps) *
    delta + start`` where the step underflows to zero, then the exact end."""
    if args.steps < 2:
        raise _UsageError(f"--steps must be >= 2, got {args.steps}")
    if not args.v0_max > args.v0_min:
        raise _UsageError("--v0-max must be greater than --v0-min")
    if args.threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {args.threads}")
    start, stop, div = float(args.v0_min), float(args.v0_max), args.steps
    delta = stop - start
    if not math.isfinite(delta):
        raise DomainError(f"sweep span v0_max - v0_min = {stop} - ({start}) = {delta} is not finite")
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def cmd_scatter(args: argparse.Namespace) -> SweepTable:
    params = _params(args, "scatter", ["energy", "v0", "gt", "half_width", "with_amplitudes"])
    cfg = PotentialConfig(args.v0, args.half_width, args.gt)
    q2 = interior_q_squared(args.energy, cfg)
    # At q^2 = 0 the plane-wave amplitudes do not exist; elsewhere they cross-check R and T.
    sol = scatter.amplitudes(args.energy, cfg) if q2 != 0.0 or args.with_amplitudes else None
    r, t = scatter.coefficients(args.energy, cfg) if sol is None else (sol.r, sol.t)
    record: dict[str, Any] = {
        "R": r,
        "T": t,
        "q2": q2,
        "regime": scatter.transmission_regime(args.energy, cfg),
        "class": classify(args.gt).value,
    }
    if args.with_amplitudes:
        for name, value in (
            ("a_minus", sol.ratio_a_minus),
            ("b_plus", sol.ratio_b_plus),
            ("b_minus", sol.ratio_b_minus),
            ("c_plus", sol.ratio_c_plus),
        ):
            record[f"{name}_re"] = value.real
            record[f"{name}_im"] = value.imag
    return SweepTable(params, list(record), [record])


def cmd_sweep_t(args: argparse.Namespace) -> SweepTable:
    _apply_preset(args, SWEEP_T_PRESETS)
    names = ["energy", "gt", "half_width", "v0_min", "v0_max", "steps"]
    params = _params(args, "sweep-t", names, preset=args.preset)
    table = scatter.sweep_transmission(args.energy, args.gt, args.half_width, _grid(args))
    table.params = params
    return table


def cmd_bound(args: argparse.Namespace) -> SweepTable:
    _apply_preset(args, BOUND_PRESETS)
    if args.quantization_table:
        return _quantization_table(args)
    from . import bound

    params = _params(args, "bound", ["v0", "gt", "half_width"])
    cfg = PotentialConfig(args.v0, args.half_width, args.gt)
    records = [
        {
            "index": s.index_n,
            "E": s.energy_e,
            "parity": s.parity,
            "z": s.z,
            "z0": s.z0,
            "pole_residual": bound.pole_residual(s.energy_e, cfg),
        }
        for s in bound.find_bound_states(cfg)
    ]
    return SweepTable(params, ["index", "E", "parity", "z", "z0", "pole_residual"], records)


def _quantization_table(args: argparse.Namespace) -> SweepTable:
    """Table of the graphical quantization construction at fixed z0: the
    circle arc kappa/q = sqrt((z0/z)^2 - 1) against tan z and -cot z."""
    given = [f"--{n.replace('_', '-')}" for n in ("v0", "gt", "half_width") if getattr(args, n) is not None]
    if given:
        raise _UsageError(f"{', '.join(given)} not allowed with --quantization-table")
    if args.z0 is None or not args.z0 > 0.0:
        raise _UsageError("--z0 must be positive for --quantization-table")
    if args.steps is None or args.steps < 2:
        raise _UsageError("--steps must be >= 2 for --quantization-table")
    z0 = args.z0
    records = []
    for i in range(1, args.steps + 1):
        z = z0 * i / args.steps
        tan_z = math.tan(z)
        if tan_z == 0.0 or not math.isfinite(tan_z):
            raise NumericalError(f"quantization table hit a singular point at z={z}")
        records.append(
            {
                "z": z,
                "kappa_over_q": math.sqrt(max(0.0, (z0 / z) ** 2 - 1.0)),
                "tan_z": tan_z,
                "neg_cot_z": -1.0 / tan_z,
            }
        )
    params = _params(args, "bound", ["quantization_table", "z0", "steps"])
    return SweepTable(params, ["z", "kappa_over_q", "tan_z", "neg_cot_z"], records)


def cmd_sweep_bound(args: argparse.Namespace) -> SweepTable:
    from . import bound

    _apply_preset(args, SWEEP_BOUND_PRESETS)
    names = ["gt", "half_width", "v0_min", "v0_max", "steps"]
    params = _params(args, "sweep-bound", names, preset=args.preset)
    sweep = bound.spectrum_sweep(args.gt, args.half_width, _grid(args))
    order = {v0: i for i, v0 in enumerate(sweep.v0_grid)}
    records = sorted(
        (
            {"v0": v0, "branch_id": b.branch_id, "E": s.energy_e, "parity": s.parity}
            for b in sweep.branches
            for v0, s in zip(b.v0s, b.states)
        ),
        key=lambda row: (order[row["v0"]], row["branch_id"]),
    )
    parity_of = {b.branch_id: b.parity for b in sweep.branches}
    rows = [
        ("ssw-coalescence", ev.parity, ev.v0_critical, ev.e_critical, ev.branch_a, ev.branch_b, "")
        for ev in sweep.ssw_events
    ] + [
        ("continuum-dive", parity_of[dv.branch_id], dv.v0, dv.last_energy, dv.branch_id, "", dv.continuum)
        for dv in sweep.disappearance_events
    ]
    events = [dict(zip(EVENT_COLUMNS, row)) for row in rows]
    events.sort(key=lambda e: (e["v0"], e["event"], e["branch_a"]))
    return SweepTable(params, ["v0", "branch_id", "E", "parity"], records, EVENT_COLUMNS, events)


def cmd_resonances(args: argparse.Namespace) -> SweepTable:
    mode, key = ("energies", "energy") if args.v0 is not None else ("depths", "v0")
    params = _params(
        args, "resonances", ["gt", "half_width", "n_max"], mode=mode, energy=args.energy, v0=args.v0
    )
    if (args.v0 is None) == (args.energy is None):
        raise _UsageError("provide exactly one of --v0 (energies mode) or --energy (depths mode)")
    if args.n_max < 1:
        raise _UsageError(f"--n-max must be >= 1, got {args.n_max}")
    if args.v0 is not None:
        cfg = PotentialConfig(args.v0, args.half_width, args.gt)
        roots = scatter.resonance_energies(cfg, args.n_max)
    else:
        roots = [
            (n, v0)
            for n in range(1, args.n_max + 1)
            for v0 in scatter.resonant_v0_for_energy(args.energy, args.gt, args.half_width, n)
        ]
    # Both solvers raise unless |T - 1| <= RESONANCE_TOL at every root they return.
    records = [{"n": n, key: root, "t_is_one": True} for n, root in roots]
    return SweepTable(params, ["n", key, "t_is_one"], records)


def _add_sweep(sub: Any, name: str, summary: str, presets: dict[str, dict], *leading: str) -> None:
    p = sub.add_parser(name, help=summary)
    p.add_argument("--preset", choices=sorted(presets), help="named parameter set")
    for option in (*leading, "--gt", "--half-width", "--v0-min", "--v0-max"):
        p.add_argument(option, type=float)
    p.add_argument("--steps", type=int, help="number of grid intervals (N+1 V0 points)")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility (>= 1); has no effect")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="kgsquare",
        description=(
            "Stationary states of a relativistic spin-0 particle in a 1D square "
            "potential with a mixed vector/scalar coupling."
        ),
    )
    parser.add_argument(
        "--about-units",
        action="store_true",
        help="print the unit conventions and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_scatter = sub.add_parser("scatter", help="R, T and amplitudes at one energy")
    p_scatter.add_argument("--energy", type=float, help="incident energy E > 1")
    p_scatter.add_argument("--v0", type=float, help="potential strength")
    p_scatter.add_argument("--gt", type=float, help="vector fraction g_t in [0, 1]")
    p_scatter.add_argument("--half-width", type=float, help="half-width a > 0")
    p_scatter.add_argument("--with-amplitudes", action="store_true", help="include amplitude ratios (re, im)")

    _add_sweep(sub, "sweep-t", "transmission sweep over V0", SWEEP_T_PRESETS, "--energy")

    p_bound = sub.add_parser("bound", help="bound levels at one configuration")
    p_bound.add_argument("--preset", choices=sorted(BOUND_PRESETS), help="named parameter set")
    p_bound.add_argument("--v0", type=float)
    p_bound.add_argument("--gt", type=float)
    p_bound.add_argument("--half-width", type=float)
    p_bound.add_argument(
        "--quantization-table",
        action="store_true",
        default=None,
        help="emit the graphical quantization construction at fixed --z0 instead",
    )
    p_bound.add_argument("--z0", type=float, help="circle radius for --quantization-table")
    p_bound.add_argument("--steps", type=int, help="rows for --quantization-table")

    _add_sweep(sub, "sweep-bound", "bound spectrum sweep over V0", SWEEP_BOUND_PRESETS)

    p_res = sub.add_parser("resonances", help="full-transmission energies or strengths")
    p_res.add_argument("--gt", type=float)
    p_res.add_argument("--half-width", type=float)
    p_res.add_argument("--v0", type=float, help="energies mode: resonant E_n at this strength")
    p_res.add_argument("--energy", type=float, help="depths mode: resonant V0 at this energy")
    p_res.add_argument("--n-max", type=int, default=5)

    for p in sub.choices.values():
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


_HANDLERS = {
    "scatter": cmd_scatter,
    "sweep-t": cmd_sweep_t,
    "bound": cmd_bound,
    "sweep-bound": cmd_sweep_bound,
    "resonances": cmd_resonances,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.about_units:
        print(ABOUT_UNITS)
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        table = _HANDLERS[args.command](args)
        sys.stdout.write(table.render(args.format))
        return EXIT_OK
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"{parser.prog}: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"{parser.prog}: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    raise SystemExit(main())
