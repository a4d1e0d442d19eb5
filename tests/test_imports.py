"""The import graph: which modules a command or import loads, and the lazy package.

Each case runs in a fresh interpreter, so what an earlier test imported
cannot hide a module that loads too early.  Only modules the probed code
loads count: a site hook (a `.pth` file) may load `typing` before any code
runs, and that is not the program's doing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WATCHED = (
    "dataclasses", "typing", "jsonschema", "yaml", "ppir.harness", "ppir.picod",
    "ppir.audit", "ppir.mds", "ppir.model", "ppir.protocol",
)


def loaded_after(code):
    """Which WATCHED modules running code adds to sys.modules."""
    probe = (
        "import sys\n_before = set(sys.modules)\n" + code + "\nimport json\n"
        f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules and m not in _before]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_capacity_command_loads_only_rates():
    # RateReport is a tuple type, so neither dataclasses nor typing loads
    code = (
        "from ppir.cli import main\n"
        "assert main(['capacity', '--class-sizes', '3,3', '--side-counts', '1,1']) == 0"
    )
    assert loaded_after(code) == []


def test_harness_does_not_load_jsonschema_or_the_oracle():
    # picod and audit load inside the oracle and audit sections only
    assert loaded_after("import ppir.harness") == [
        "dataclasses", "yaml", "ppir.harness", "ppir.mds", "ppir.model", "ppir.protocol"
    ]


def test_per_class_rule_has_one_home_in_rates():
    from ppir import picod, protocol, rates

    assert protocol.class_plan is rates.class_plan
    assert protocol.expected_download_rows is rates.expected_download_rows
    assert picod.class_floor is rates.class_floor


def test_lazy_package_exports():
    code = (
        "import importlib, ppir\n"
        "names = list(ppir.__all__)\n"
        "assert len(names) == len(set(names)) == 52\n"
        "for name in names:\n"
        "    origin = importlib.import_module('ppir.' + ppir._ORIGIN[name])\n"
        "    assert getattr(ppir, name) is getattr(origin, name), name\n"
        "    assert name in vars(ppir), name\n"
        "assert set(names) <= set(dir(ppir))\n"
        "scope = {}\n"
        "exec('from ppir import *', scope)\n"
        "assert {n: scope[n] for n in names} == {n: getattr(ppir, n) for n in names}\n"
        "try:\n"
        "    ppir.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
    )
    loaded_after(code)


def test_dir_lists_exports_before_first_use():
    code = (
        "import ppir\n"
        "assert set(ppir.__all__) <= set(dir(ppir))\n"
        "assert ppir.__version__ == '0.1.0'\n"
    )
    assert loaded_after(code) == []
