"""Command-line behavior: exit codes, formats, presets, and determinism."""

import argparse
import json
import random
import re
import shlex
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import kgsquare.scatter
from kgsquare import NumericalError, PotentialConfig, coefficients
from kgsquare.cli import SWEEP_BOUND_PRESETS, SWEEP_T_PRESETS, _grid, main
from kgsquare.tables import parse_csv


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "kgsquare", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestExitCodes:
    def test_about_units(self, capsys):
        assert main(["--about-units"]) == 0
        out = capsys.readouterr().out
        assert "Compton" in out and "R + T = 1" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["warp"]) == 1

    def test_missing_arguments(self, capsys):
        assert main(["scatter", "--energy", "1.1", "--gt", "1.0", "--v0", "3.0"]) == 1
        assert "--half-width" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        code = main(
            ["scatter", "--energy", "0.9", "--v0", "3.0", "--gt", "1.0", "--half-width", "1.0"]
        )
        assert code == 2
        assert "domain error" in capsys.readouterr().err

    def test_numerical_error(self, capsys, monkeypatch):
        def boom(*_args, **_kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(kgsquare.scatter, "amplitudes", boom)
        code = main(
            ["scatter", "--energy", "1.1", "--v0", "3.0", "--gt", "1.0", "--half-width", "1.0"]
        )
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_resonances_requires_exactly_one_mode(self, capsys):
        base = ["resonances", "--gt", "1.0", "--half-width", "1.0"]
        assert main(base) == 1
        assert main(base + ["--v0", "3.0", "--energy", "1.1"]) == 1

    def test_sweep_grid_validation(self, capsys):
        base = ["sweep-t", "--energy", "1.1", "--gt", "1.0", "--half-width", "1.0"]
        assert main(base + ["--v0-min", "0.0", "--v0-max", "1.0", "--steps", "1"]) == 1
        assert main(base + ["--v0-min", "1.0", "--v0-max", "0.0", "--steps", "10"]) == 1

    def test_quantization_table_validation(self, capsys):
        assert main(["bound", "--quantization-table", "--steps", "10"]) == 1
        assert main(["bound", "--quantization-table", "--z0", "8.0", "--steps", "1"]) == 1


SCATTER = ["scatter", "--energy", "1.1", "--v0", "3.0", "--gt", "1.0", "--half-width", "1.0"]
SWEEP_T = [
    "sweep-t", "--energy", "1.1", "--gt", "0.5", "--half-width", "1.0", "--v0-min", "0", "--v0-max", "5",
]
RESONANCES = ["resonances", "--gt", "1.0", "--half-width", "1.0"]


class TestParamsEcho:
    """The JSON `params` block echoes the inputs: these keys, in this order."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                SCATTER,
                {"command": "scatter", "energy": 1.1, "v0": 3.0, "gt": 1.0, "half_width": 1.0,
                 "with_amplitudes": False},
            ),
            (
                SCATTER + ["--with-amplitudes"],
                {"command": "scatter", "energy": 1.1, "v0": 3.0, "gt": 1.0, "half_width": 1.0,
                 "with_amplitudes": True},
            ),
            (
                ["sweep-t", "--preset", "fig1", "--steps", "20"],
                {"command": "sweep-t", "preset": "fig1", "energy": 1.1, "gt": 1.0, "half_width": 1.0,
                 "v0_min": 0.0, "v0_max": 10.0, "steps": 20},
            ),
            (
                SWEEP_T + ["--steps", "20", "--threads", "2"],
                {"command": "sweep-t", "preset": None, "energy": 1.1, "gt": 0.5, "half_width": 1.0,
                 "v0_min": 0.0, "v0_max": 5.0, "steps": 20},
            ),
            (
                ["bound", "--v0", "-1.0", "--gt", "1.0", "--half-width", "0.5"],
                {"command": "bound", "v0": -1.0, "gt": 1.0, "half_width": 0.5},
            ),
            (
                ["bound", "--preset", "fig4", "--steps", "10"],
                {"command": "bound", "quantization_table": True, "z0": 8.0, "steps": 10},
            ),
            (
                ["bound", "--quantization-table", "--z0", "3", "--steps", "10"],
                {"command": "bound", "quantization_table": True, "z0": 3.0, "steps": 10},
            ),
            (
                ["sweep-bound", "--preset", "fig9", "--steps", "60"],
                {"command": "sweep-bound", "preset": "fig9", "gt": 0.0, "half_width": 5.0,
                 "v0_min": -1.99, "v0_max": -0.01, "steps": 60},
            ),
            (
                RESONANCES + ["--v0", "3.0", "--n-max", "3"],
                {"command": "resonances", "mode": "energies", "energy": None, "v0": 3.0, "gt": 1.0,
                 "half_width": 1.0, "n_max": 3},
            ),
            (
                RESONANCES + ["--energy", "1.1", "--n-max", "1"],
                {"command": "resonances", "mode": "depths", "energy": 1.1, "v0": None, "gt": 1.0,
                 "half_width": 1.0, "n_max": 1},
            ),
        ],
    )
    def test_params_keys_order_and_values(self, capsys, argv, expected):
        assert main(argv + ["--format", "json"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert list(params.items()) == list(expected.items())


class TestUsagePrecedence:
    """Usage errors exit 1 with one message; the first failed check wins."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scatter", "--gt", "1.0", "--v0", "3.0"], "missing required arguments: --energy, --half-width"),
            (["bound", "--v0", "-1"], "missing required arguments: --gt, --half-width"),
            (
                ["sweep-bound", "--gt", "1", "--steps", "1", "--threads", "0"],
                "missing required arguments: --half-width, --v0-min, --v0-max",
            ),
            (
                ["sweep-t", "--gt", "1", "--steps", "1", "--threads", "0"],
                "missing required arguments: --energy, --half-width, --v0-min, --v0-max",
            ),
            (SWEEP_T + ["--steps", "1", "--threads", "0"], "--steps must be >= 2, got 1"),
            (
                ["sweep-bound", "--preset", "fig5", "--steps", "1", "--v0-min", "1"],
                "--steps must be >= 2, got 1",
            ),
            (
                ["sweep-t", "--preset", "fig1", "--v0-min", "20", "--threads", "0"],
                "--v0-max must be greater than --v0-min",
            ),
            (
                ["sweep-bound", "--preset", "fig5", "--v0-min", "0", "--threads", "0"],
                "--v0-max must be greater than --v0-min",
            ),
            (["sweep-t", "--preset", "fig1", "--threads", "0"], "--threads must be >= 1, got 0"),
            (["sweep-bound", "--preset", "fig5", "--threads", "0"], "--threads must be >= 1, got 0"),
            (
                ["resonances", "--v0", "3", "--n-max", "0"],
                "missing required arguments: --gt, --half-width",
            ),
            (
                RESONANCES + ["--n-max", "0"],
                "provide exactly one of --v0 (energies mode) or --energy (depths mode)",
            ),
            (RESONANCES + ["--v0", "3", "--n-max", "0"], "--n-max must be >= 1, got 0"),
            (
                ["bound", "--quantization-table", "--steps", "1"],
                "--z0 must be positive for --quantization-table",
            ),
            (
                ["bound", "--quantization-table", "--z0", "8"],
                "--steps must be >= 2 for --quantization-table",
            ),
            (
                ["bound", "--gt", "0.5", "--v0", "-1.5", "--quantization-table", "--steps", "1"],
                "--v0, --gt not allowed with --quantization-table",
            ),
        ],
    )
    def test_first_failed_check_is_reported(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"kgsquare: error: {message}\n"


class TestHelp:
    """argparse formats help strings only for --help, so each one is rendered here."""

    @pytest.mark.parametrize(
        "command", [[], ["scatter"], ["sweep-t"], ["bound"], ["sweep-bound"], ["resonances"]]
    )
    def test_help_exits_zero(self, capsys, command):
        assert main(command + ["--help"]) == 0
        assert capsys.readouterr().out.startswith(" ".join(["usage: kgsquare", *command]))


class TestScatter:
    def test_free_potential_transmits_fully(self, capsys):
        code = main(
            ["scatter", "--energy", "1.25", "--v0", "0", "--gt", "1.0", "--half-width", "1.0"]
        )
        assert code == 0
        table = parse_csv(capsys.readouterr().out)
        assert table.records[0]["T"] == 1.0
        assert table.records[0]["R"] == 0.0

    def test_matches_library_exactly(self, capsys):
        assert (
            main(["scatter", "--energy", "1.1", "--v0", "3.0", "--gt", "1.0", "--half-width", "1.0"])
            == 0
        )
        row = parse_csv(capsys.readouterr().out).records[0]
        r, t = coefficients(1.1, PotentialConfig(3.0, 1.0, 1.0))
        assert row["R"] == r and row["T"] == t
        assert row["regime"] == "propagating-antiparticle"
        assert row["class"] == "A"

    def test_amplitude_columns(self, capsys):
        argv = [
            "scatter",
            "--energy", "1.1",
            "--v0", "3.0",
            "--gt", "1.0",
            "--half-width", "1.0",
            "--with-amplitudes",
        ]
        assert main(argv) == 0
        table = parse_csv(capsys.readouterr().out)
        for name in ("a_minus", "b_plus", "b_minus", "c_plus"):
            assert f"{name}_re" in table.columns and f"{name}_im" in table.columns


class TestExactThreshold:
    """At V1 = E - 1 and V2 = (E + 1)/(2 g_t - 1) the interior has q^2 = 0.
    R and T stay regular there; the plane-wave amplitudes do not exist."""

    @pytest.mark.parametrize("v0", ["0.1", "2.1"])
    def test_scatter_prints_the_sweep_row(self, capsys, v0):
        argv = ["scatter", "--energy", "1.1", "--v0", v0, "--gt", "1", "--half-width", "1"]
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:3] == ["0.17355371900826455", "0.82644628099173545", "0"]
        assert main(["sweep-t", "--preset", "fig1"]) == 0
        sweep_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        (sweep_row,) = [r for r in sweep_rows if float(r[0]) == float(v0)]  # columns v0,q2,T,R
        assert (row[0], row[1]) == (sweep_row[3], sweep_row[2])

    @pytest.mark.parametrize("v0", ["0.1", "2.1"])
    def test_amplitudes_are_a_numerical_error(self, capsys, v0):
        argv = ["scatter", "--energy", "1.1", "--v0", v0, "--gt", "1", "--half-width", "1", "--with-amplitudes"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "denominator" in captured.err


class TestExtremeEnergies:
    """Energies whose squares leave the double range end in a domain error,
    never in a traceback."""

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (
                "scatter --energy inf --v0 -0.6 --gt 0 --half-width 2",
                "kgsquare: domain error: E must be finite, got inf",
            ),
            (
                "scatter --energy 1e300 --v0 -0.9 --gt 0.05 --half-width 3",
                "kgsquare: domain error: q^2 is not finite at E=1e+300, V0=-0.9",
            ),
            (
                "sweep-t --energy inf --gt 0.77 --half-width 3.6 --v0-min 4.6 --v0-max 5.6 --steps 4",
                "kgsquare: domain error: E must be finite, got inf",
            ),
            (
                "resonances --gt 0.5 --half-width 2 --n-max 2 --v0 1e300",
                "kgsquare: domain error: q^2 is not finite at E=1e+300, V0=1e+300",
            ),
            (
                "resonances --gt 0.89 --half-width 5e-324 --n-max 2 --v0 -5",
                "kgsquare: domain error: E must be finite, got inf",
            ),
            (
                "scatter --energy 1e200 --v0 1e200 --gt 1 --half-width 1",
                "kgsquare: domain error: k^2 or q^2 is not finite at E=1e+200, V0=1e+200 (k^2=inf, q^2=-1.0)",
            ),
            (
                "scatter --energy 1e308 --v0=-1e308 --gt 1 --half-width 1",
                "kgsquare: domain error: k^2 or q^2 is not finite at E=1e+308, V0=-1e+308 (k^2=inf, q^2=inf)",
            ),
        ],
        ids=[
            "scatter-inf",
            "scatter-1e300",
            "sweep-t-inf",
            "resonances-v0-1e300",
            "resonances-a-5e-324",
            "scatter-k2-inf",
            "scatter-q2-inf",
        ],
    )
    def test_exit_code_and_message(self, capsys, argv, first_line):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == first_line


class TestResonancesCommand:
    def test_energies_mode(self, capsys):
        argv = ["resonances", "--gt", "1.0", "--half-width", "1.0", "--v0", "3.0", "--n-max", "3"]
        assert main(argv) == 0
        table = parse_csv(capsys.readouterr().out)
        assert table.columns == ["n", "energy", "t_is_one"]
        assert [row["n"] for row in table.records] == [1, 1, 2, 3]
        assert table.records[0]["energy"] == pytest.approx(1.1379041108814134, rel=1e-15)
        assert all(row["t_is_one"] is True for row in table.records)

    def test_depths_mode(self, capsys):
        argv = ["resonances", "--gt", "1.0", "--half-width", "1.0", "--energy", "1.1", "--n-max", "1"]
        assert main(argv) == 0
        table = parse_csv(capsys.readouterr().out)
        assert table.columns == ["n", "v0", "t_is_one"]
        assert [row["v0"] for row in table.records] == pytest.approx(
            [-0.7620958891185866, 2.9620958891185865], rel=1e-15
        )


class TestBoundCommand:
    def test_empty_table_keeps_header(self, capsys):
        assert main(["bound", "--v0", "0", "--gt", "1.0", "--half-width", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out == "index,E,parity,z,z0,pole_residual\n"

    def test_single_state_row(self, capsys):
        assert main(["bound", "--v0", "-1.0", "--gt", "1.0", "--half-width", "0.5"]) == 0
        table = parse_csv(capsys.readouterr().out)
        assert len(table.records) == 1
        row = table.records[0]
        assert row["index"] == 1
        assert row["parity"] == "even"
        assert row["E"] == pytest.approx(0.56430564071997369, rel=1e-15)
        assert row["pole_residual"] < 1e-10

    def test_quantization_table_preset(self, capsys):
        assert main(["bound", "--preset", "fig4"]) == 0
        table = parse_csv(capsys.readouterr().out)
        assert table.columns == ["z", "kappa_over_q", "tan_z", "neg_cot_z"]
        assert len(table.records) == 400
        assert table.records[-1]["z"] == 8.0


class TestSweepCommands:
    def test_fig1_preset_shape(self, capsys):
        assert main(["sweep-t", "--preset", "fig1"]) == 0
        table = parse_csv(capsys.readouterr().out)
        assert table.columns == ["v0", "q2", "T", "R", "regime", "class"]
        assert len(table.records) == 1001
        assert table.records[0]["v0"] == 0.0
        assert table.records[-1]["v0"] == 10.0

    def test_threads_do_not_change_bytes(self, capsys):
        argv = [
            "sweep-t",
            "--energy", "1.1",
            "--gt", "0.5",
            "--half-width", "1.0",
            "--v0-min", "0.0",
            "--v0-max", "5.0",
            "--steps", "200",
        ]
        assert main(argv + ["--threads", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--threads", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_sweep_bound_events_section(self, capsys):
        argv = [
            "sweep-bound",
            "--gt", "1.0",
            "--half-width", "0.5",
            "--v0-min", "-4.0",
            "--v0-max", "-0.01",
            "--steps", "240",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "## events" in out
        assert "ssw-coalescence" in out
        assert "continuum-dive" in out
        table = parse_csv(out)
        assert table.columns == ["v0", "branch_id", "E", "parity"]
        assert table.event_columns == [
            "event", "parity", "v0", "energy", "branch_a", "branch_b", "continuum",
        ]
        assert table.to_csv() == out

    def test_sweep_bound_events_order_branches_as_numbers(self, capsys):
        # branches 7 and 14 dive at the same V0 on this grid
        argv = [
            "sweep-bound",
            "--gt", "0.25",
            "--half-width", "11",
            "--v0-min", "-1.99",
            "--v0-max", "-0.01",
            "--steps", "400",
        ]
        assert main(argv) == 0
        events = parse_csv(capsys.readouterr().out).events
        keys = [(e["v0"], e["event"], e["branch_a"]) for e in events]
        assert (-0.40600000000000014, "continuum-dive", 7) in keys
        assert (-0.40600000000000014, "continuum-dive", 14) in keys
        assert keys == sorted(keys)

    def test_sweep_bound_json_structure(self, capsys):
        argv = [
            "sweep-bound",
            "--gt", "0.0",
            "--half-width", "5.0",
            "--v0-min", "-1.99",
            "--v0-max", "-0.01",
            "--steps", "60",
            "--format", "json",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["events", "params", "records"]
        assert all(e["event"] != "ssw-coalescence" for e in doc["events"])
        assert all(row["branch_id"] >= 0 for row in doc["records"])


# Denormal spans whose step (v0_max - v0_min) / steps underflows to zero.
DENORMAL_SPANS = [(0.0, 5e-324, 2), (0.0, 1e-320, 10000), (-5e-324, 5e-324, 5)]


class TestGrid:
    """The sweep grid is built without numpy but has the bits of np.linspace."""

    @staticmethod
    def assert_linspace_bits(v0_min: float, v0_max: float, steps: int) -> None:
        grid = _grid(argparse.Namespace(v0_min=v0_min, v0_max=v0_max, steps=steps, threads=1))
        assert all(type(v) is float for v in grid)
        expected = np.linspace(v0_min, v0_max, steps + 1)
        got = np.array(grid)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), (v0_min, v0_max, steps)

    @pytest.mark.parametrize("preset", sorted({**SWEEP_T_PRESETS, **SWEEP_BOUND_PRESETS}.items()))
    def test_presets(self, preset):
        _, p = preset
        self.assert_linspace_bits(p["v0_min"], p["v0_max"], p["steps"])

    @pytest.mark.parametrize(
        "v0_min, v0_max, steps",
        [
            (-3.0, 7.0, 1000),  # crosses zero
            (-0.1, 0.1, 7),
            (-0.0, 3.0, 11),  # the first point is -0.0 + 0.0 = +0.0, as in numpy
            (-0.0, 1e-300, 3),
            (1.0, 1.0000000000000002, 2),  # a span of one ulp
            (-5e-301, 5e-301, 977),  # a span of 1e-300
            (-1e300, 1e300, 999),  # a span of 2e300
            (1e300, 2e300, 1000),
            *DENORMAL_SPANS,
        ],
    )
    def test_edge_spans(self, v0_min, v0_max, steps):
        self.assert_linspace_bits(v0_min, v0_max, steps)

    @pytest.mark.parametrize("v0_min, v0_max, steps", DENORMAL_SPANS)
    def test_denormal_spans_take_the_zero_step_branch(self, v0_min, v0_max, steps):
        assert (v0_max - v0_min) / steps == 0.0

    def test_seeded_triples(self):
        rng = random.Random(20071)
        for _ in range(1200):
            v0_min = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
            span = rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-12, 8)
            if rng.random() < 0.25:  # round ends, as typed on a command line
                v0_min, span = round(v0_min, 2), round(span, 2) or 0.01
            v0_max = v0_min + span
            if v0_max > v0_min:
                self.assert_linspace_bits(v0_min, v0_max, rng.randint(2, 1500))


class TestOverflowingSpan:
    """A sweep span beyond the double range is a domain error that names the span."""

    @pytest.mark.parametrize(
        "argv, span",
        [
            (["sweep-t", "--preset", "fig1", "--v0-min=-1e308", "--v0-max", "1e308"], "1e+308 - (-1e+308)"),
            (["sweep-t", "--preset", "fig1", "--v0-max", "inf"], "inf - (0.0)"),
            (["sweep-bound", "--preset", "fig5", "--v0-min=-1e308", "--v0-max", "1e308"], "1e+308 - (-1e+308)"),
            (["sweep-bound", "--preset", "fig5", "--v0-max", "inf"], "inf - (-4.0)"),
        ],
    )
    def test_span_is_named(self, capsys, argv, span):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"kgsquare: domain error: sweep span v0_max - v0_min = {span} = inf is not finite\n"


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """Each `kgsquare ...` command of the README's sh blocks that shows its
    output, as (argv, shown lines): the `# ` lines right below the command,
    with `# ...` marking elided lines."""
    examples: list[tuple[list[str], list[str]]] = []
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("kgsquare "):
                continue
            while line.endswith("\\"):
                i += 1
                line = line[:-1] + lines[i]
            shown = [out[2:] for out in takewhile(lambda out: out.startswith("# "), lines[i + 1 :])]
            if shown:
                examples.append((shlex.split(line)[1:], [s for s in shown if s != "..."]))
    return examples


class TestReadmeExamples:
    def test_examples_print_what_the_readme_shows(self, capsys):
        examples = _readme_examples()
        assert len(examples) >= 4
        for argv, shown in examples:
            assert main(argv) == 0, argv
            out = iter(capsys.readouterr().out.splitlines())
            # each shown line appears in stdout, in the order shown
            missing = [line for line in shown if line not in out]
            assert missing == [], argv


class TestSubprocess:
    def test_end_to_end_scatter(self):
        proc = run_cli("scatter", "--energy", "1.1", "--v0", "3.0", "--gt", "1.0", "--half-width", "1.0")
        assert proc.returncode == 0
        row = parse_csv(proc.stdout).records[0]
        assert row["T"] == pytest.approx(0.9794398201298196, rel=1e-15)

    def test_end_to_end_domain_error(self):
        proc = run_cli("scatter", "--energy", "0.9", "--v0", "3.0", "--gt", "1.0", "--half-width", "1.0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "domain error" in proc.stderr

    def test_preset_bytes_stable_across_processes(self):
        first = run_cli("sweep-bound", "--preset", "fig5")
        second = run_cli("sweep-bound", "--preset", "fig5")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert "ssw-coalescence" in first.stdout
