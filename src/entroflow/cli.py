"""Command-line front end: run an experiment from a JSON config and
write a deterministic report.

Subcommands: debruijn, mlsi, freegroup, intertwine, subalg.  Each
reads one config file, runs its checks, prints one line per check,
and writes report.json (plus trajectory.csv for debruijn) into the
output directory.

report.json is byte-identical for identical configs and seeds: floats
are serialized with a fixed .17g format, keys are sorted, and nothing
time- or machine-dependent goes into it.  Wall-clock time lives in
the separate timing.json sidecar.

Exit codes: 0 all checks passed, 1 some check failed, 2 unreadable or
malformed input, 3 domain error (valid syntax, impossible request),
4 size cap exceeded, 5 a computation missed its accuracy contract.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from . import __version__
from .calculus import (
    cp_dominance_report,
    diff_calculus,
    intertwining_residual,
)
from .entropyflow import (
    SamplerConfig,
    debruijn_residual,
    decay_certificate,
    mlsi_estimate,
    trajectory,
)
from .errors import DomainError, InputError, NumericalError, SizeError
from .groupsem import build_ball_semigroup, left_regular_observable
from .qms import Generator, gkls_generator, raw_generator, schur_generator
from .statespace import Density, density
from .subalg import (
    chain_rule_check,
    entropy_extension_check,
    martingale_entropy_check,
    rel_hamiltonian_projection_check,
    subalgebra,
)

# ---------------------------------------------------------------- serialization


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    return x


def _dump(x) -> str:
    """JSON text with sorted keys and fixed float format."""
    x = _jsonable(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not np.isfinite(x):
            return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')
        return format(x, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, list):
        return "[" + ",".join(_dump(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_dump(x[k])}" for k in sorted(x)
        ) + "}"
    raise InputError(f"cannot serialize {type(x).__name__}")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------- config parsing


def _coerce(kind, raw, what: str):
    """kind(raw), with a value that kind rejects reported as bad input."""
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}: cannot read {raw!r} ({exc})") from exc


def _floats(values) -> tuple:
    out = tuple(float(v) for v in values)
    if not out or not np.all(np.isfinite(out)):
        raise ValueError(f"need a nonempty list of finite numbers, got {list(out)}")
    return out


def _parse_scalar(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(u, (int, float)) for u in v):
        return complex(v[0], v[1])
    raise InputError(f"matrix entries must be numbers or [re, im] pairs, got {v!r}")


def _parse_matrix(obj, what: str) -> np.ndarray:
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{what} must be a nested list matrix")
    try:
        mat = np.array([[_parse_scalar(v) for v in row] for row in obj], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not a rectangular matrix") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"{what} must be square, got shape {mat.shape}")
    return mat


def _parse_density(obj, what: str) -> Density:
    return density(_parse_matrix(obj, what))


def _parse_generator(obj) -> Generator:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("generator must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "gkls":
        ham = _parse_matrix(obj["hamiltonian"], "hamiltonian") if obj.get("hamiltonian") else None
        jumps = obj.get("jumps", [])
        if not isinstance(jumps, list):
            raise InputError("jumps must be a list of matrices")
        jumps = [_parse_matrix(j, "jump operator") for j in jumps]
        dim = obj.get("dim")
        return gkls_generator(hamiltonian=ham, jumps=jumps, dim=dim)
    if kind == "schur":
        return schur_generator(_parse_matrix(obj["symbol"], "symbol"))
    if kind == "matrix":
        return raw_generator(_parse_matrix(obj["heisenberg"], "heisenberg matrix"))
    raise InputError(f"unknown generator type {obj['type']!r}")


def _parse_grid(obj) -> np.ndarray:
    if obj is None:
        obj = {"start": 0.05, "stop": 2.0, "count": 8}
    if isinstance(obj, list):
        grid = np.array(_coerce(_floats, obj, "t_grid"))
    elif isinstance(obj, dict):
        try:
            start = _coerce(float, obj["start"], "t_grid start")
            stop = _coerce(float, obj["stop"], "t_grid stop")
            count = _coerce(int, obj["count"], "t_grid count")
        except KeyError as exc:
            raise InputError("t_grid object needs start, stop, count") from exc
        if not np.all(np.isfinite((start, stop))) or count < 1:
            raise InputError(
                f"t_grid needs finite start and stop and count >= 1, got {start}, {stop}, {count}"
            )
        grid = np.linspace(start, stop, count)
    else:
        raise InputError("t_grid must be a list or a start/stop/count object")
    if grid.size == 0 or np.any(grid < 0) or np.any(np.diff(grid) <= 0):
        raise InputError("t_grid must be strictly increasing and nonnegative")
    return grid


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


def _tol(cfg: dict, name: str, default: float) -> float:
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise InputError("tolerances must be an object")
    return _coerce(float, tols.get(name, default), f"tolerance {name}")


def _sampler(cfg: dict) -> SamplerConfig:
    s = cfg.get("sampler", {})
    if not isinstance(s, dict):
        raise InputError("sampler must be an object")
    return SamplerConfig(
        count=_coerce(int, s.get("count", 100), "sampler count"),
        blend_epsilons=_coerce(_floats, s.get("blend_epsilons", (0.01, 0.1)), "blend_epsilons"),
        near_pure_fraction=_coerce(float, s.get("near_pure_fraction", 0.25), "near_pure_fraction"),
        dirichlet_fraction=_coerce(float, s.get("dirichlet_fraction", 0.25), "dirichlet_fraction"),
    )


def _check(name: str, value: float, tolerance: float, passed: bool) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "passed": bool(passed)}


# ---------------------------------------------------------------- subcommands


def _run_debruijn(cfg: dict, outdir: pathlib.Path) -> tuple:
    gen = _parse_generator(cfg["generator"])
    rho0 = _parse_density(cfg["state"], "state")
    sigma = _parse_density(cfg["reference"], "reference")
    grid = _parse_grid(cfg.get("t_grid"))
    step = _coerce(float, cfg.get("step", 1e-4), "step")
    if not 0 < step < np.inf:
        raise InputError(f"step must be positive and finite, got {step}")
    rec = trajectory(gen, rho0, sigma, grid)
    resid = debruijn_residual(rec, h=step)

    tol_resid = _tol(cfg, "debruijn_residual", 1e-6)
    tol_prod = _tol(cfg, "production_floor", 1e-10)
    checks = [
        _check("debruijn_residual", resid, tol_resid, resid <= tol_resid),
        _check(
            "production_nonnegative",
            float(rec.productions.min()),
            tol_prod,
            bool(rec.productions.min() >= -tol_prod),
        ),
        _check(
            "entropy_decreasing",
            float(np.diff(rec.entropies).max()) if len(rec.entropies) > 1 else 0.0,
            tol_prod,
            bool(len(rec.entropies) < 2 or np.diff(rec.entropies).max() <= tol_prod),
        ),
    ]
    lines = ["t,D,I,alpha"]
    for k in range(rec.times.size):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (rec.times[k], rec.entropies[k], rec.productions[k], rec.alpha_track[k])
            )
        )
    (outdir / "trajectory.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {
        "trajectory": {
            "t": rec.times,
            "entropy": rec.entropies,
            "production": rec.productions,
            "alpha": rec.alpha_track,
        },
        "residual": resid,
    }
    return checks, payload


def _run_mlsi(cfg: dict, outdir: pathlib.Path) -> tuple:
    gen = _parse_generator(cfg["generator"])
    phi = _parse_density(cfg["phi"], "phi")
    sampler = _sampler(cfg)
    seed = _coerce(int, cfg.get("seed", 0), "seed")
    rep = mlsi_estimate(
        gen,
        phi,
        sampler=sampler,
        seed=seed,
        polish_budget=_coerce(int, cfg.get("polish_budget", 500), "polish_budget"),
        restarts=_coerce(int, cfg.get("restarts", 8), "restarts"),
    )
    decay = decay_certificate(gen, phi, beta=rep.beta_ratio, samples=rep.samples)

    tol_beta = _tol(cfg, "beta_floor", 1e-6)
    fit_band = _tol(cfg, "fit_ratio_band", 1.5)
    ratio = rep.beta_fit / rep.beta_ratio if rep.beta_ratio > 0 else np.inf
    checks = [
        _check("beta_positive", rep.beta_ratio, tol_beta, rep.beta_ratio > tol_beta),
        _check(
            "decay_at_estimated_rate",
            decay.worst_margin,
            0.0,
            decay.passed,
        ),
        _check(
            "ratio_vs_fit",
            ratio,
            fit_band,
            bool(1.0 / fit_band <= ratio <= fit_band),
        ),
        _check("no_ratio_violations", float(len(rep.violations)), 0.0, not rep.violations),
    ]
    payload = {
        "beta_ratio": rep.beta_ratio,
        "beta_fit": rep.beta_fit,
        "samples": rep.sample_count,
        "skipped": rep.skipped,
        "worst_state": rep.worst_state.mat,
        "decay_margin": decay.worst_margin,
    }
    return checks, payload


def _run_freegroup(cfg: dict, outdir: pathlib.Path) -> tuple:
    kind = cfg.get("kind", "free")
    rank = _coerce(int, cfg.get("rank", 2), "rank")
    radius = _coerce(int, cfg.get("radius", 2), "radius")
    times = _coerce(_floats, cfg.get("times", (0.3, 1.0)), "times")
    sem = build_ball_semigroup(kind, rank, radius)

    words = cfg.get("words")
    if words is None:
        words = sem.ball.words[1:]
    words = _coerce(lambda ws: [tuple(int(l) for l in w) for w in ws], words, "words")
    propagators = [(t, sem.gen.semigroup(t)) for t in times]
    eig_resid = 0.0
    for w in words:
        lam = left_regular_observable(sem.ball, w)
        for t, p_t in propagators:
            evolved = p_t.apply(lam)
            eig_resid = max(
                eig_resid, float(np.max(np.abs(evolved - np.exp(-t * len(w)) * lam)))
            )
    kernel_min = min(
        float(np.linalg.eigvalsh(np.exp(-t * sem.psi.astype(float)))[0]) for t in times
    )
    inv_resid = float(np.linalg.norm(sem.gen.schroedinger.apply(sem.phi.mat)))

    tol_eig = _tol(cfg, "eigenvalue_residual", 1e-12)
    tol_psd = _tol(cfg, "kernel_floor", 1e-12)
    tol_inv = _tol(cfg, "invariance_residual", 1e-12)
    checks = [
        _check("eigenvalue_relation", eig_resid, tol_eig, eig_resid <= tol_eig),
        _check("kernel_psd", kernel_min, tol_psd, kernel_min >= -tol_psd),
        _check("trace_invariant", inv_resid, tol_inv, inv_resid <= tol_inv),
    ]
    lengths = [len(w) for w in sem.ball.words]
    payload = {
        "ball_size": sem.ball.size,
        "count_by_length": [lengths.count(k) for k in range(radius + 1)],
        "symbol": sem.psi,
        "words_checked": len(words),
    }
    return checks, payload


def _run_intertwine(cfg: dict, outdir: pathlib.Path) -> tuple:
    kind = cfg.get("kind", "free")
    rank = _coerce(int, cfg.get("rank", 1), "rank")
    radius = _coerce(int, cfg.get("radius", 2), "radius")
    times = _coerce(_floats, cfg.get("times", (0.25, 1.0)), "times")
    sem = build_ball_semigroup(kind, rank, radius)
    calc = diff_calculus(sem.projections)

    resid = intertwining_residual(sem.gen, calc, times=times)
    single_min = min(
        cp_dominance_report(calc, (i,), times=times).min_eig for i in range(calc.count)
    )
    pair = (
        cp_dominance_report(calc, (0, 1), times=times).min_eig
        if calc.count >= 2
        else 0.0
    )
    repeated = cp_dominance_report(calc, (0, 0), times=times).min_eig

    tol_resid = _tol(cfg, "intertwining_residual", 1e-10)
    tol_dom = _tol(cfg, "dominance_floor", 1e-9)
    fail_margin = _tol(cfg, "repeat_failure_margin", 1e-4)
    checks = [
        _check("intertwining_residual", resid, tol_resid, resid <= tol_resid),
        _check("single_flip_dominated", single_min, tol_dom, single_min >= -tol_dom),
        _check("distinct_pair_dominated", pair, tol_dom, pair >= -tol_dom),
        _check(
            "repeated_flip_not_dominated",
            repeated,
            fail_margin,
            repeated <= -fail_margin,
        ),
    ]
    payload = {
        "ball_size": sem.ball.size,
        "derivations": calc.count,
        "repeated_flip_min_eig": repeated,
    }
    return checks, payload


def _run_subalg(cfg: dict, outdir: pathlib.Path) -> tuple:
    spec = subalgebra(
        cfg["blocks"],
        unitary=_parse_matrix(cfg["unitary"], "unitary") if cfg.get("unitary") else None,
    )
    rho = _parse_density(cfg["state"], "state")
    sigma = _parse_density(cfg["sigma"], "sigma")

    ext = entropy_extension_check(spec, rho, sigma)
    proj = rel_hamiltonian_projection_check(spec, rho, sigma)
    filtration = cfg.get("filtration")
    if filtration is None:
        filtration = [[1] * spec.dim, list(spec.blocks)]
    filtration = _coerce(list, filtration, "filtration")
    mart = martingale_entropy_check(
        [subalgebra(b, unitary=spec.unitary) for b in filtration], rho, sigma
    )

    tol_ext = _tol(cfg, "extension_residual", 1e-9)
    tol_proj = _tol(cfg, "projection_residual", 1e-10)
    tol_mono = _tol(cfg, "martingale_violation", 1e-10)
    checks = [
        _check("extension_entropy", ext.residual, tol_ext, ext.ok),
        _check("projection_orthogonality", proj.orthogonality, tol_proj, proj.orthogonality <= tol_proj),
        _check("projection_chain_rule", proj.chain_residual, tol_proj, proj.chain_residual <= tol_proj),
        _check("martingale_monotone", mart.max_violation, tol_mono, mart.monotone),
    ]
    payload = {
        "blockwise_entropy": ext.blockwise,
        "joint_entropy": ext.joint,
        "martingale_entropies": list(mart.entropies),
        "martingale_limit": mart.limit,
    }
    if "generator" in cfg:
        gen = _parse_generator(cfg["generator"])
        n = _coerce(int, cfg.get("resolvent_order", 10), "resolvent_order")
        lo = chain_rule_check(gen, rho, n=n)
        hi = chain_rule_check(gen, rho, n=4 * n)
        shrink = _tol(cfg, "resolvent_shrink", 0.5)
        improved = abs(hi.residual) <= max(shrink * abs(lo.residual), 1e-9)
        checks.append(_check("resolvent_defect_decays", abs(hi.residual), shrink, improved))
        payload["resolvent_defect"] = {"n": n, "defect": lo.residual, "defect_4n": hi.residual}
    return checks, payload


_COMMANDS = {
    "debruijn": _run_debruijn,
    "mlsi": _run_mlsi,
    "freegroup": _run_freegroup,
    "intertwine": _run_intertwine,
    "subalg": _run_subalg,
}


# ---------------------------------------------------------------- driver


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy-decay experiments for quantum Markov semigroups",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        seed = _coerce(int, cfg.get("seed", 0), "seed")
        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        checks, payload = _COMMANDS[args.command](cfg, outdir)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, KeyError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 5

    passed = all(c["passed"] for c in checks)
    report = {
        "version": __version__,
        "command": args.command,
        "seed": seed,
        "config": cfg,
        "checks": checks,
        "passed": passed,
        "result": payload,
    }
    (outdir / "report.json").write_text(_dump(report) + "\n", encoding="utf-8")
    timing = {"wall_seconds": time.monotonic() - started}
    (outdir / "timing.json").write_text(json.dumps(timing) + "\n", encoding="utf-8")

    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: value={_fmt(c['value'])} tol={_fmt(c['tolerance'])}")
    print(f"{'PASS' if passed else 'FAIL'}: {args.command} -> {outdir / 'report.json'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
