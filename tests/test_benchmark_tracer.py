"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracer.py looks entroflow's functions up by name; a rename or
deletion in the package would break the benchmark, whose own tests are
slow and not part of this suite.  The tracer is loaded by path, as is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{short}.{name}"
        for short, names in tracer.MODULE_SPANS.items()
        for name in names
        if not hasattr(importlib.import_module(f"entroflow.{short}"), name)
    ]
    assert missing == []


def test_traced_bindings_the_tracer_relies_on_exist():
    from entroflow import matcore, qms, statespace

    # herm_eig is traced through every module that binds it
    assert qms.herm_eig is matcore.herm_eig
    assert statespace.herm_eig is matcore.herm_eig
    assert callable(qms.Generator._propagator)
