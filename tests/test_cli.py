"""End-to-end CLI runs: reports, exit codes, determinism."""

import copy
import json
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

import entroflow
from entroflow import cli, entropyflow
from entroflow.cli import main
from entroflow.errors import NumericalError


def write_config(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def depolarizing_cfg(d=2):
    jumps = []
    for i in range(d):
        for j in range(d):
            e = [[0.0] * d for _ in range(d)]
            e[i][j] = 1.0 / np.sqrt(d)
            jumps.append(e)
    return {"type": "gkls", "jumps": jumps, "dim": d}


def test_debruijn_run_passes(tmp_path):
    cfg = {
        "generator": depolarizing_cfg(),
        "state": [[0.9, 0.0], [0.0, 0.1]],
        "reference": [[0.5, 0.0], [0.0, 0.5]],
        "t_grid": {"start": 0.1, "stop": 1.5, "count": 5},
        "seed": 7,
    }
    code = main(
        ["debruijn", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["command"] == "debruijn"
    names = [c["name"] for c in report["checks"]]
    assert "debruijn_residual" in names
    csv = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert csv[0] == "t,D,I,alpha"
    assert len(csv) == 6
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())
    assert timing["wall_seconds"] > 0


def test_debruijn_tolerance_override_fails(tmp_path):
    cfg = {
        "generator": depolarizing_cfg(),
        "state": [[0.8, 0.0], [0.0, 0.2]],
        "reference": [[0.5, 0.0], [0.0, 0.5]],
        "t_grid": [0.2, 0.8],
        "tolerances": {"debruijn_residual": 1e-20},
    }
    code = main(
        ["debruijn", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["debruijn", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["debruijn", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    # missing required field
    cfg = {"state": [[1.0]]}
    assert main(["debruijn", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path)]) == 2


def test_exit_code_domain_error(tmp_path):
    # amplitude damping does not fix the maximally mixed reference
    cfg = {
        "generator": {"type": "gkls", "jumps": [[[0.0, 1.0], [0.0, 0.0]]], "dim": 2},
        "state": [[0.8, 0.0], [0.0, 0.2]],
        "reference": [[0.5, 0.0], [0.0, 0.5]],
        "t_grid": [0.5, 1.0],
    }
    code = main(
        ["debruijn", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path)]
    )
    assert code == 3


def test_exit_code_size_error(tmp_path):
    cfg = {"kind": "free", "rank": 2, "radius": 4}
    code = main(
        ["freegroup", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path)]
    )
    assert code == 4


def test_huge_rank_exits_4_before_listing_letters(tmp_path):
    """free rank 10**9 is refused on its first layer, before 2 * 10**9 letters are listed.

    The CLI runs in a child process capped at 1 GiB of address space, so a
    regression ends there in a MemoryError instead of exhausting memory.
    """
    path = write_config(tmp_path / "c.json", {"kind": "free", "rank": 10**9, "radius": 2})

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "entroflow.cli", "freegroup", "--config", path, "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(entroflow.__file__).parents[1])},
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 4, proc.stderr
    assert "exceeds the cap" in proc.stderr


MLSI_CFG = {
    "generator": depolarizing_cfg(),
    "phi": [[0.5, 0.0], [0.0, 0.5]],
    "sampler": {"count": 4},
    "restarts": 1,
    "polish_budget": 20,
}


@pytest.mark.parametrize(
    "command,patch",
    [
        ("mlsi", {"sampler": {"count": "abc"}}),
        ("mlsi", {"sampler": {"blend_epsilons": 5}}),
        ("mlsi", {"seed": -1}),
        ("mlsi", {"polish_budget": [1]}),
        ("mlsi", {"restarts": "many"}),
        ("mlsi", {"seed": "abc"}),
        ("mlsi", {"tolerances": {"beta_floor": "tiny"}}),
        ("freegroup", {"kind": "free", "rank": "two"}),
        ("freegroup", {"kind": "free", "rank": 1, "words": [["a"]]}),
        ("intertwine", {"kind": "free", "times": [None]}),
        ("debruijn", {"step": {}}),
        ("debruijn", {"t_grid": {"start": 0.1, "stop": 1.0, "count": None}}),
        ("debruijn", {"state": [[1.0, 0.0], [0.0]]}),
        ("mlsi", {"sampler": {"count": 4, "blend_epsilons": []}}),
        ("subalg", {"blocks": "ab"}),
        ("subalg", {"blocks": [1, 1], "filtration": 3}),
        ("mlsi", {"polish_budget": 0}),
        ("mlsi", {"restarts": -3}),
        ("mlsi", {"sampler": {"count": 4, "blend_epsilons": [2.0]}}),
        ("freegroup", {"kind": "free", "rank": 1, "times": []}),
        ("freegroup", {"kind": "free", "rank": 1, "times": [float("nan")]}),
        ("intertwine", {"kind": "free", "times": []}),
        ("intertwine", {"kind": "free", "times": [float("nan")]}),
        ("mlsi", {"sampler": {"count": 4, "near_pure_fraction": float("nan")}}),
        ("mlsi", {"sampler": {"count": 4, "near_pure_fraction": 1e308}}),
        ("mlsi", {"sampler": {"count": 4, "dirichlet_fraction": -3}}),
        ("mlsi", {"sampler": {"count": 4, "near_pure_fraction": 0.75, "dirichlet_fraction": 0.5}}),
        ("debruijn", {"t_grid": [float("nan"), 1.0]}),
        ("debruijn", {"t_grid": {"start": 0.1, "stop": 1.0, "count": -1}}),
        ("debruijn", {"t_grid": {"start": float("nan"), "stop": 1.0, "count": 4}}),
        ("debruijn", {"t_grid": {"start": 0.1, "stop": float("inf"), "count": 4}}),
        ("debruijn", {"step": float("nan")}),
        ("debruijn", {"step": float("inf")}),
        ("debruijn", {"step": 0.0}),
        ("debruijn", {"step": -1e-4}),
        ("mlsi", {"generator": {"type": "schur", "symbol": [[0, [1, 0.7]], [[1, -0.7], 0]]}}),
        ("mlsi", {"generator": {"type": "gkls", "jumps": 5}}),
    ],
)
def test_exit_code_bad_config_value(tmp_path, capsys, command, patch):
    base = {
        "mlsi": MLSI_CFG,
        "debruijn": {
            "generator": depolarizing_cfg(),
            "state": [[0.9, 0.0], [0.0, 0.1]],
            "reference": [[0.5, 0.0], [0.0, 0.5]],
        },
        "subalg": {"state": [[0.6, 0.0], [0.0, 0.4]], "sigma": [[0.5, 0.0], [0.0, 0.5]]},
    }
    cfg = {**base.get(command, {}), **patch}
    path = write_config(tmp_path / "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input:")
    assert "Traceback" not in err


def test_negative_seed_option_exits_2(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", MLSI_CFG)
    assert main(["mlsi", "--config", path, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input:") and "seed" in err
    assert "Traceback" not in err


def test_exit_code_numerical_error(tmp_path, capsys, monkeypatch):
    def lost_positivity(*args, **kwargs):
        raise NumericalError("evolved state lost positivity")

    monkeypatch.setattr("entroflow.cli.trajectory", lost_positivity)
    cfg = {
        "generator": depolarizing_cfg(),
        "state": [[0.9, 0.0], [0.0, 0.1]],
        "reference": [[0.5, 0.0], [0.0, 0.5]],
    }
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["debruijn", "--config", path, "--out", str(tmp_path / "o")]) == 5
    assert "numerical failure: evolved state lost positivity" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_freegroup_run_passes(tmp_path):
    cfg = {"kind": "coxeter", "rank": 2, "radius": 2, "seed": 0}
    code = main(
        ["freegroup", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["result"]["ball_size"] == 5
    assert report["result"]["count_by_length"] == [1, 2, 2]
    assert report["passed"] is True


def test_intertwine_run_passes(tmp_path):
    cfg = {"kind": "free", "rank": 1, "radius": 2}
    code = main(
        ["intertwine", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["single_flip_dominated"]["passed"]
    assert by_name["repeated_flip_not_dominated"]["passed"]
    assert by_name["repeated_flip_not_dominated"]["value"] < -1e-4


def test_subalg_run_passes(tmp_path):
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m = 0.7 * m / np.trace(m).real + 0.3 * np.eye(4) / 4
    state = [[[v.real, v.imag] for v in row] for row in m]
    cfg = {
        "blocks": [2, 2],
        "state": state,
        "sigma": [
            [0.3, 0.0, 0.0, 0.0],
            [0.0, 0.25, 0.0, 0.0],
            [0.0, 0.0, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.2],
        ],
        "filtration": [[1, 1, 1, 1], [2, 2]],
        "generator": depolarizing_cfg(4),
        "resolvent_order": 20,
    }
    code = main(
        ["subalg", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["passed"] is True
    assert "resolvent_defect" in report["result"]


def test_mlsi_run_and_worker_independence(tmp_path):
    """An mlsi run passes, finds the qubit rate 2, and a rerun writes the same bytes."""
    cfg = {
        "generator": depolarizing_cfg(),
        "phi": [[0.5, 0.0], [0.0, 0.5]],
        "sampler": {"count": 12},
        "seed": 5,
        "restarts": 2,
        "polish_budget": 200,
    }
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["mlsi", "--config", path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["mlsi", "--config", path, "--out", str(tmp_path / "r2")]) == 0
    r1 = (tmp_path / "r1" / "report.json").read_bytes()
    r2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1.decode())
    assert report["result"]["beta_ratio"] == pytest.approx(2.0, abs=0.05)


def test_mlsi_run_draws_samples_once(tmp_path, monkeypatch):
    calls = []
    draw = entropyflow.state_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(entropyflow, "state_samples", counted)
    monkeypatch.setattr(cli, "state_samples", counted, raising=False)
    path = write_config(tmp_path / "c.json", MLSI_CFG)
    assert main(["mlsi", "--config", path, "--out", str(tmp_path / "o")]) in (0, 1)
    # the decay certificate checks the states the estimate sampled
    assert len(calls) == 1


def test_seed_flag_overrides_config(tmp_path):
    cfg = {
        "generator": depolarizing_cfg(),
        "phi": [[0.5, 0.0], [0.0, 0.5]],
        "sampler": {"count": 8},
        "seed": 5,
        "restarts": 1,
        "polish_budget": 50,
    }
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["mlsi", "--config", path, "--seed", "6", "--out", str(tmp_path / "a")]) == 0
    assert main(["mlsi", "--config", path, "--out", str(tmp_path / "b")]) == 0
    assert main(["mlsi", "--config", path, "--seed", "5", "--out", str(tmp_path / "c")]) == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    assert ra["seed"] == 6
    assert ra["config"]["seed"] == 6
    # only the seed differs, and passing the config's own seed is a no-op
    rb = (tmp_path / "b" / "report.json").read_bytes()
    rc = (tmp_path / "c" / "report.json").read_bytes()
    assert rb == rc
    assert (tmp_path / "a" / "report.json").read_bytes() != rb


# One small valid config per suite; every leaf of it is mutated in turn.
MUTATION_BASES = {
    "mlsi": {**MLSI_CFG, "seed": 0},
    "debruijn": {
        "generator": {"type": "schur", "symbol": [[0.0, 1.0], [1.0, 0.0]]},
        "state": [[0.7, 0.2], [0.2, 0.3]],
        "reference": [[0.5, 0.0], [0.0, 0.5]],
        "t_grid": {"start": 0.1, "stop": 1.0, "count": 3},
        "step": 1e-4,
        "seed": 0,
    },
    "freegroup": {
        "kind": "coxeter",
        "rank": 2,
        "radius": 2,
        "times": [0.3, 1.0],
        "words": [[1], [2, 1]],
        "seed": 0,
    },
    "intertwine": {
        "kind": "free",
        "rank": 1,
        "radius": 2,
        "times": [0.25, 1.0],
        "tolerances": {"dominance_floor": 1e-9},
    },
    "subalg": {
        "blocks": [1, 1],
        "state": [[0.6, 0.1], [0.1, 0.4]],
        "sigma": [[0.5, 0.0], [0.0, 0.5]],
        "filtration": [[1, 1], [2]],
        "generator": {"type": "schur", "symbol": [[0.0, 1.0], [1.0, 0.0]]},
        "resolvent_order": 4,
    },
}

MUTANTS = (None, "x", -1, 0, float("nan"), [], {}, [1], [[1]], [["a"]], True, 3.5, {"matrix": 3})


def config_leaves(node, path=()):
    """Paths to every non-container value of a JSON tree, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from config_leaves(child, path + (key,))


@pytest.mark.parametrize("command", sorted(MUTATION_BASES))
def test_mutated_configs_exit_with_a_contract_code(tmp_path, capsys, command):
    """Any value at any leaf of a valid config ends in exit 0..5, never a traceback."""
    base = MUTATION_BASES[command]
    assert main([command, "--config", write_config(tmp_path / "c.json", base), "--out", str(tmp_path / "o")]) == 0
    bad = []
    for path in config_leaves(base):
        for value in MUTANTS:
            cfg = copy.deepcopy(base)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(value)
            try:
                code = main([command, "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
            except Exception as exc:  # a raise is the failure recorded
                code = exc
            if not (type(code) is int and 0 <= code <= 5) or "Traceback" in capsys.readouterr().err:
                bad.append((path, value, code))
    assert bad == []
