"""The tracer rebinds every traced name, restores it, and counts exactly."""

import sys
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import run
import workloads
from tracer import KERNEL_SPANS, MODULE_SPANS, Tracer

run.load_entroflow()

from entroflow import matcore, qms, statespace  # noqa: E402


def _entroflow_modules():
    return [m for n, m in sys.modules.items() if n == "entroflow" or n.startswith("entroflow.")]


def _places(fn):
    """(module name, attribute) of every entroflow binding of fn."""
    return [
        (m.__name__, attr)
        for m in _entroflow_modules()
        for attr, value in vars(m).items()
        if value is fn
    ]


def _traced_functions():
    out = {}
    for short, names in MODULE_SPANS.items():
        home = sys.modules[f"entroflow.{short}"]
        for name in names:
            if name != "Density":
                out[f"{short}.{name}"] = getattr(home, name)
    return out


def test_install_rebinds_every_importing_module_and_restores_them():
    originals = _traced_functions()
    places = {span: _places(fn) for span, fn in originals.items()}
    # `from .matcore import herm_eig` binds the same function in other modules
    assert {"entroflow.qms", "entroflow.statespace"} <= {m for m, _ in places["matcore.herm_eig"]}
    kernels = {(owner, name): getattr(owner, name) for owner, names in KERNEL_SPANS.values() for name in names}
    post_init = statespace.Density.__dict__["__post_init__"]
    propagator = qms.Generator.__dict__["_propagator"]
    minimize = scipy.optimize.minimize

    with Tracer():
        for span, fn in originals.items():
            wrappers = {getattr(sys.modules[m], attr) for m, attr in places[span]}
            assert len(wrappers) == 1, span
            wrapper = wrappers.pop()
            assert wrapper is not fn and wrapper.__wrapped__ is fn, span
        assert qms.herm_eig is matcore.herm_eig is statespace.herm_eig
        for (owner, name), fn in kernels.items():
            assert getattr(owner, name) is not fn
        assert statespace.Density.__dict__["__post_init__"] is not post_init
        assert qms.Generator.__dict__["_propagator"] is not propagator
        assert scipy.optimize.minimize is not minimize

    for span, fn in originals.items():
        assert _places(fn) == places[span], span
    for (owner, name), fn in kernels.items():
        assert getattr(owner, name) is fn
    assert statespace.Density.__dict__["__post_init__"] is post_init
    assert qms.Generator.__dict__["_propagator"] is propagator
    assert scipy.optimize.minimize is minimize
    assert np.linalg.eigh is kernels[(np.linalg, "eigh")]
    assert scipy.linalg.expm is kernels[(scipy.linalg, "expm")]


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def child():
        time.sleep(0.05)

    traced_child = tracer.wrap("child", child)

    def parent():
        time.sleep(0.02)
        traced_child()

    tracer.wrap("parent", parent)()
    assert tracer.calls == {"parent": 1, "child": 1}
    assert tracer.self_s["child"] >= 0.05
    assert 0.02 <= tracer.self_s["parent"] < 0.05


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_and_reports_match_untraced(tmp_path, workload):
    jobs = workloads.job_list(workload, 11, tiny=True)
    configs = tmp_path / "configs"
    run.write_configs(jobs, configs)
    plain = run.run_jobs(jobs, configs, tmp_path / "plain")
    counts = []
    for k in range(2):
        tracer = Tracer()
        with tracer:
            traced = run.run_jobs(jobs, configs, tmp_path / f"traced{k}")
        assert [o.error for o in traced] == [None] * len(jobs)
        assert [o.digest for o in traced] == [o.digest for o in plain]
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    cli_jobs = sum(job.suite != "certify" for job in jobs)
    assert counts[0]["cli.main.calls"] == cli_jobs
