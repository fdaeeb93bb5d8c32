"""Every check threshold of the library lives in its function body.

A threshold parameter that every caller leaves at its default would be a
second home for its check's threshold, beside the CLI's "tolerances"
table; the CLI decides each verdict from that table alone.
"""

import importlib
import inspect

import entroflow
from entroflow.matcore import SuperOperator
from entroflow.statespace import Density

THRESHOLD_NAMES = {"tol", "cutoff", "support_cutoff", "slack", "nodes", "weights"}

MODULES = ("calculus", "cli", "entropyflow", "groupsem", "matcore", "qms", "statespace", "subalg")


def public_callables():
    """entroflow.__all__, the public functions of every module, and the
    methods of Density and SuperOperator."""
    for name in entroflow.__all__:
        yield name, getattr(entroflow, name)
    for short in MODULES:
        module = importlib.import_module(f"entroflow.{short}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == module.__name__:
                yield f"{short}.{name}", fn
    for cls in (Density, SuperOperator):
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            yield f"{cls.__name__}.{name}", fn


def test_no_callable_takes_a_threshold_parameter():
    offenders = []
    for name, fn in public_callables():
        try:
            params = set(inspect.signature(fn).parameters)
        except ValueError:  # builtin exception constructors have no signature
            continue
        if params & THRESHOLD_NAMES:
            offenders.append(f"{name}{sorted(params & THRESHOLD_NAMES)}")
    assert offenders == []
