"""Every name the benchmark's tracer wraps must still resolve.

perfbench/tracer.py looks each public name up at run time; a renamed or
deleted one makes every traced benchmark run fail, so a simplification
of the package has to keep them (or the tracer has to change with it).
The tracer also finds each module of its layers in `sys.modules`, so
`import lacunary.cli` must load every one of them.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import CLI_ENV

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, (modname, names) in _load_tracer().LAYERS.items():
        module = importlib.import_module(modname)
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(module, qual, None))
            if not found:
                missing.append(f"{layer}: {modname}.{qual}")
    assert not missing, missing


# Prints the module names a fresh `python -m lacunary --version` has loaded.
_LOADED = """
import sys
from lacunary.cli import main
try:
    main(["--version"])
except SystemExit:
    pass
print("\\n".join(sys.modules))
"""


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    proc = subprocess.run([sys.executable, "-c", _LOADED], capture_output=True, text=True,
                          env=CLI_ENV, timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines())
    # dataclasses brings inspect and ast; json only the commands that read or write it need
    assert not {"dataclasses", "inspect", "ast", "json"} & loaded
    assert not {modname for modname, _ in _load_tracer().LAYERS.values()} - loaded
