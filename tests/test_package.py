"""The package surface: `import kgsquare` loads only the scalar layers, the
numpy-backed `bound` and `oracle` layers load on first use, and the
scattering half and its CLI commands run with numpy blocked."""

import os
import subprocess
import sys

import pytest

import kgsquare
from kgsquare import bound, core, oracle, scatter, tables

BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None  # `import numpy` now raises ImportError\n"

# Library calls and CLI runs of the scattering half, with their exit codes.
SCALAR_PATH = """\
import sys
import kgsquare
from kgsquare import PotentialConfig, amplitudes, coefficients, resonance_energies, sweep_transmission
from kgsquare.cli import main

cfg = PotentialConfig(3.0, 1.0, 0.5)
print(coefficients(1.1, cfg))
print(amplitudes(1.1, cfg))
print(resonance_energies(PotentialConfig(3.0, 1.0, 1.0), 3))
sys.stdout.write(sweep_transmission(1.1, 0.5, 1.0, [0.0, 0.5, 1.0]).render("json"))
scatter = ["scatter", "--energy", "1.1", "--v0", "3", "--gt", "0.5", "--half-width", "1"]
resonances = ["resonances", "--gt", "1", "--half-width", "1", "--n-max", "3"]
runs = [
    scatter + ["--with-amplitudes"],
    *(["sweep-t", "--preset", p, "--format", f] for p in ("fig1", "fig2", "fig3") for f in ("csv", "json")),
    resonances + ["--v0", "3"],
    resonances + ["--energy", "1.1"],
    ["bound", "--preset", "fig4"],
    ["--help"],
    ["--about-units"],
]
for argv in runs:
    print("exit", main(argv), flush=True)
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, COLUMNS="80"),
    )


def checked(code: str) -> str:
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


class TestSurface:
    def test_names_are_the_defining_modules_objects(self):
        public = set(kgsquare.__all__) - {"__version__"}
        for module in (core, scatter, tables, bound, oracle):
            for name in public & set(vars(module)):
                assert getattr(kgsquare, name) is getattr(module, name), (module.__name__, name)
        homes = {name for m in (core, scatter, tables, bound, oracle) for name in vars(m)}
        assert public <= homes
        assert kgsquare.find_bound_states is kgsquare.bound.find_bound_states
        assert kgsquare.OracleFailure is kgsquare.oracle.OracleFailure

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'kgsquare' has no attribute 'no_such_name'$"):
            kgsquare.no_such_name  # noqa: B018

    def test_fresh_import_loads_no_numpy_and_lists_every_name(self):
        code = """\
import sys
import kgsquare
loaded = sorted(m for m in ("numpy", "kgsquare.bound", "kgsquare.oracle") if m in sys.modules)
public = set(kgsquare.__all__) <= set(dir(kgsquare)) and {"bound", "oracle"} <= set(dir(kgsquare))
print(loaded, public)
"""
        assert checked(code) == "[] True\n"

    @pytest.mark.parametrize(
        "first, check, loads_bound",
        [
            ("kgsquare.bound", "kgsquare.bound is sys.modules['kgsquare.bound']", True),
            ("kgsquare.oracle", "kgsquare.oracle is sys.modules['kgsquare.oracle']", False),
            ("kgsquare.OracleFailure", "kgsquare.OracleFailure is kgsquare.oracle.OracleFailure", False),
            ("kgsquare.spectrum_sweep", "kgsquare.spectrum_sweep is kgsquare.bound.spectrum_sweep", True),
        ],
    )
    def test_lazy_names_resolve_after_a_bare_import(self, first, check, loads_bound):
        code = f"import sys\nimport kgsquare\n{first}\nprint({check}, 'kgsquare.bound' in sys.modules)\n"
        assert checked(code) == f"True {loads_bound}\n"

    def test_star_import_binds_every_name(self):
        code = """\
import kgsquare
namespace = {}
exec("from kgsquare import *", namespace)
print(sorted(set(kgsquare.__all__) - set(namespace)))
print(all(namespace[name] is getattr(kgsquare, name) for name in kgsquare.__all__))
"""
        assert checked(code) == "[]\nTrue\n"


class TestNumpyFreePath:
    def test_scalar_path_runs_with_numpy_blocked(self):
        free = checked(SCALAR_PATH)
        assert free.count("exit 0\n") == 12
        assert checked(BLOCK_NUMPY + SCALAR_PATH) == free

    def test_block_makes_the_bound_layer_fail(self):
        proc = run_python(BLOCK_NUMPY + "from kgsquare.cli import main\nmain(['sweep-bound', '--preset', 'fig5'])\n")
        assert proc.returncode == 1
        assert "ModuleNotFoundError" in proc.stderr and "numpy" in proc.stderr

    def test_bound_commands_do_not_load_the_oracle(self):
        code = """\
import contextlib, io, sys
from kgsquare.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["sweep-bound", "--preset", "fig5"]), main(["bound", "--v0", "-2", "--gt", "0.5", "--half-width", "1"])]
print(codes, "kgsquare.bound" in sys.modules, "kgsquare.oracle" in sys.modules)
"""
        assert checked(code) == "[0, 0] True False\n"
