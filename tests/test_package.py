"""The package surface: names re-exported from `grassdex` load their
submodule on first use, and a command line loads only the layers its
command runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grassdex

ROOT = Path(__file__).resolve().parent.parent

# Every name `grassdex` re-exports, by submodule: those of the eager
# __init__ that imported each submodule, less `moment_oracle`, which moved
# to the tests with numpy.
REEXPORTED = {
    "exactalg": ["RatMatrix", "Rational", "det", "rat", "rat_str", "rref",
                 "solve_nonneg_combination", "trace_pow"],
    "zonal": ["Partition", "ZonalPolynomial", "constant_c", "jacobi_p"],
    "grassmann": ["Configuration", "DesignReport", "Subspace", "eval_zonal",
                  "principal_power_sums", "sigma", "verify_design",
                  "zonal_positivity"],
    "lattice": ["Lattice", "RankinValue", "SectionSet", "barnes_wall",
                "catalog", "check_eutaxy", "check_perfection",
                "minimal_sections", "rankin", "section_subspaces",
                "short_vectors"],
    "binquad": ["IsoSubspace", "QuadSpace", "SigmaSet", "check_iso_design",
                "d_constant", "enumerate_isotropic", "orbital", "spread"],
    "clifford": ["GeneratorSet", "PauliOp", "StabilizerLift", "build_design",
                 "clifford_generators", "eigenspaces", "h2_code_matrix",
                 "orbit", "sigma_pair", "tensor_coeffs",
                 "tensor_coeffs_from_system", "verify_tt"],
}


def test_reexported_names_are_the_submodule_objects():
    listing = dir(grassdex)
    for module, names in REEXPORTED.items():
        sub = importlib.import_module(f"grassdex.{module}")
        assert getattr(grassdex, module) is sub
        for name in names:
            assert getattr(grassdex, name) is getattr(sub, name), name
            assert name in grassdex.__all__ and name in listing, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from grassdex import *", namespace)
    for names in REEXPORTED.values():
        for name in names:
            assert namespace[name] is getattr(grassdex, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grassdex.no_such_name
    with pytest.raises(ImportError):
        exec("from grassdex import no_such_name", {})


def test_cli_loads_only_the_layers_its_command_runs(tmp_path):
    # Compiling a layer costs every invocation that loads it; a later eager
    # import would bring that cost back to every command.  BW16's attached
    # generators come from `generators`, not from the eigenspace layer.
    config = tmp_path / "lines.json"
    config.write_text(json.dumps({"n": 2, "m": 1, "points": [
        [["1", "0"]], [["0", "1"]], [["1", "1"]], [["1", "-1"]]]}),
        encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "import grassdex.cli\n"
        "layers = ('lattice', 'generators', 'clifford', 'binquad')\n"
        "def loaded():\n"
        "    return [n for n in layers if 'grassdex.' + n in sys.modules]\n"
        "seen = {'import': loaded()}\n"
        "for key, argv in (('verify', ['verify', sys.argv[1]]),\n"
        "                  ('constants', ['constants', '--m', '2', '--n', '8',\n"
        "                                 '--t', '2']),\n"
        "                  ('lattice', ['lattice', 'E8', '--m', '1']),\n"
        "                  ('bw16', ['lattice', 'BW16', '--m', '1',\n"
        "                            '--sections', '--t', '1'])):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        grassdex.cli.main(argv)\n"
        "    seen[key] = loaded()\n"
        "print(json.dumps(seen))\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, str(config)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "verify": [], "constants": [], "lattice": ["lattice"],
        "bw16": ["lattice", "generators"]}


def test_src_imports_no_numpy():
    # The runtime checks see only the modules a command loads; this reads
    # every import statement of every package module.
    for path in sorted((ROOT / "src" / "grassdex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "numpy" for name in names), \
                f"{path.name}:{node.lineno} imports numpy"
