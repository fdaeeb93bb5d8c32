"""Every check threshold of the library lives in its function body.

A threshold parameter that every caller leaves at its default, or a
verdict field computed at a fixed threshold, would be a second home for
its check's threshold, beside the CLI's "tolerances" table; the CLI
decides each verdict from that table alone.
"""

import dataclasses
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


VERDICT_NAMES = {"passed", "ok", "monotone"}

# DecayReport.passed is the documented fixed check margin >= 0.
VERDICT_EXCEPTIONS = {"entropyflow.DecayReport.passed"}


def test_no_result_carries_a_verdict():
    offenders = []
    for short in MODULES:
        module = importlib.import_module(f"entroflow.{short}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            attrs = {f.name for f in dataclasses.fields(cls)}
            attrs |= {n for n, v in vars(cls).items() if isinstance(v, property)}
            offenders += [f"{short}.{name}.{a}" for a in sorted(attrs & VERDICT_NAMES)]
    assert sorted(set(offenders) - VERDICT_EXCEPTIONS) == []
    assert "entropyflow.DecayReport.passed" in offenders
