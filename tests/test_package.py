"""The package's public surface."""

import os
import subprocess
import sys
import types
from pathlib import Path

import odl


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {
        name
        for name, value in vars(odl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(odl.__all__) == len(set(odl.__all__))
    assert set(odl.__all__) == bound


def test_importing_the_package_and_cli_leaves_out_statistics():
    # statistics brings fractions, decimal and numbers: ~2 ms a process.
    src = str(Path(odl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, odl, odl.cli; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
