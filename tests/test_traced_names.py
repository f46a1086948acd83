"""Every name the benchmark's tracer wraps must still resolve.

perfbench/tracer.py looks each public name up at run time; a renamed or
deleted one makes every traced benchmark run fail, so a simplification
of the package has to keep them (or the tracer has to change with it).
"""

import importlib
import importlib.util
from pathlib import Path

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
