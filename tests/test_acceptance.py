"""Acceptance gate: eight numbered criteria covering the whole package.

Each test prints one [PASS]/[FAIL] line (written past pytest's capture,
so it shows up in plain `pytest -v` output) and enforces a wall-clock
budget.  Tolerances here are the shipped contract; do not loosen them
to make a red criterion green.
"""

import contextlib
import json
import math
import sys
import time

import conftest
import numpy as np

from entroflow.calculus import (
    cp_dominance_report,
    diff_calculus,
    intertwining_residual,
)
from entroflow.cli import main as cli_main
from entroflow.entropyflow import (
    SamplerConfig,
    _sample_one,
    debruijn_residual,
    decay_certificate,
    fm_check,
    mlsi_estimate,
    state_samples,
    trajectory,
)
from entroflow.groupsem import build_ball_semigroup, left_regular_observable
from entroflow.matcore import op_norm, trace_norm
from entroflow.qms import (
    evolve,
    fixed_point_expectation,
    gkls_generator,
    gns_symmetry_residual,
    invariant_states,
    schur_generator,
    spectral_gap,
)
from entroflow.statespace import (
    balpha_factor,
    density,
    pinsker_gap,
    rel_entropy,
    rel_hamiltonian,
    resolvent_log_approx,
)
from entroflow.subalg import (
    entropy_extension_check,
    martingale_entropy_check,
    rel_hamiltonian_projection_check,
    subalgebra,
)


@contextlib.contextmanager
def criterion(num, name, limit=None):
    """Collect problems, time the block, and print one verdict line.

    The line goes to the live stream (visible with -s) and is also
    registered with conftest so it shows in the terminal summary of
    every pytest run, capture or not.
    """
    problems = []
    t0 = time.monotonic()
    try:
        yield problems
    except BaseException as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        elapsed = time.monotonic() - t0
        if limit is not None and elapsed >= limit:
            problems.append(f"runtime {elapsed:.1f}s over the {limit:.0f}s budget")
        verdict = "PASS" if not problems else "FAIL"
        detail = "" if not problems else " :: " + "; ".join(problems)
        line = f"[{verdict}] criterion {num} ({name}): {elapsed:.1f}s{detail}"
        conftest.record_verdict(line)
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def ginibre_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def depolarizing(d):
    jumps = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(d)
            jumps.append(e)
    return gkls_generator(jumps=jumps, dim=d)


MAX_MIX_2 = density(np.eye(2, dtype=complex) / 2)
MAX_MIX_3 = density(np.eye(3, dtype=complex) / 3)


def test_criterion_1_entropy_derivative_matches_production():
    # 20 seeded random unital GKLS generators in dims 2..4; initial
    # states sit inside the alpha=5 comparability ball of the invariant
    # state; the numerical entropy derivative must match -I to 1e-5.
    with criterion(1, "deBruijn identity on random generators", 60.0) as problems:
        rng = np.random.default_rng(np.random.SeedSequence(20260819))
        dims = [2, 3, 4]
        worst = 0.0
        for k in range(20):
            d = dims[k % 3]
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            ham = 0.5 * (h + h.conj().T)
            jumps = [
                math.sqrt(0.8) * haar_unitary(rng, d),
                math.sqrt(0.5) * haar_unitary(rng, d),
            ]
            gen = gkls_generator(hamiltonian=ham, jumps=jumps, dim=d)
            sigma = invariant_states(gen)
            if sigma is None:
                problems.append(f"generator {k}: no faithful invariant state")
                continue
            rho0 = density(0.5 * ginibre_density(rng, d) + 0.5 * sigma.mat)
            alpha = balpha_factor(rho0, sigma)
            if alpha is None or alpha > 5.0:
                problems.append(f"generator {k}: initial state left the alpha=5 ball")
                continue
            rec = trajectory(gen, rho0, sigma, (0.08, 0.35, 0.9))
            worst = max(worst, debruijn_residual(rec, h=1e-4))
        if worst > 1e-5:
            problems.append(f"worst |dD/dt + I| = {worst:.3e} > 1e-5")
    assert not problems, "; ".join(problems)


def test_criterion_2_rate_estimate_matches_grid_oracle():
    # Qubit depolarizing semigroup: the sampled/polished rate estimate
    # must agree with a dense Bloch-radius grid search within 5%, and
    # the decay certificate must pass at the estimate and fail at 1.5x.
    with criterion(2, "rate estimate vs grid oracle, decay certificate", 30.0) as problems:
        gen = depolarizing(2)
        rs = np.linspace(1e-4, 0.9999, 4000)
        ent = ((1 + rs) / 2) * np.log1p(rs) + ((1 - rs) / 2) * np.log1p(-rs)
        prod = (rs / 2) * (np.log1p(rs) - np.log1p(-rs))
        oracle = float(np.min(prod / ent))
        est = mlsi_estimate(gen, MAX_MIX_2, seed=2026)
        if abs(est.beta_ratio - oracle) > 0.05 * oracle:
            problems.append(
                f"beta_ratio {est.beta_ratio:.6f} vs oracle {oracle:.6f} differ by >5%"
            )
        samples = state_samples(2, MAX_MIX_2, SamplerConfig(count=40), seed=7)
        at_rate = decay_certificate(gen, MAX_MIX_2, est.beta_ratio, samples)
        too_fast = decay_certificate(gen, MAX_MIX_2, 1.5 * est.beta_ratio, samples)
        if not at_rate.passed:
            problems.append(
                f"decay fails at the estimated rate (margin {at_rate.worst_margin:.3e})"
            )
        if too_fast.passed:
            problems.append("decay should not certify at 1.5x the estimated rate")
    assert not problems, "; ".join(problems)


def test_criterion_3_ball_models_rate_two():
    # Two word-length models (free rank 2 and coxeter rank 3, radius 2)
    # with uniform weights: exact eigenvalue table, symmetry residual,
    # intertwining residual, CP dominance for single flips, and the
    # rate-2 production/entropy decay bounds on 100 sampled states.
    with criterion(3, "word-length models decay at rate 2", 300.0) as problems:
        models = (("free", 2, 17, 101), ("coxeter", 3, 10, 202))
        for kind, rank, size, seed in models:
            tag = f"{kind}({rank})"
            sem = build_ball_semigroup(kind, rank, 2)
            if sem.ball.size != size:
                problems.append(f"{tag}: ball has {sem.ball.size} points, wanted {size}")
                continue
            gen, phi = sem.gen, sem.phi

            eig_res = 0.0
            for w in sem.ball.words[1:]:
                lam = left_regular_observable(sem.ball, w)
                for t in (0.3, 1.0):
                    moved = gen.semigroup(t).apply(lam)
                    eig_res = max(
                        eig_res, float(np.abs(moved - math.exp(-t * len(w)) * lam).max())
                    )
            if eig_res > 1e-12:
                problems.append(f"{tag}: eigenvalue table residual {eig_res:.3e} > 1e-12")

            sym = gns_symmetry_residual(gen, phi)
            if sym > 1e-10:
                problems.append(f"{tag}: symmetry residual {sym:.3e} > 1e-10")

            calc = diff_calculus(sem.projections)
            inter = intertwining_residual(gen, calc)
            if inter > 1e-10:
                problems.append(f"{tag}: intertwining residual {inter:.3e} > 1e-10")

            dom = min(
                cp_dominance_report(calc, (i,), times=(0.1, 0.5, 1.0, 2.0)).min_eig
                for i in range(calc.count)
            )
            if dom < -1e-9:
                problems.append(f"{tag}: single-flip dominance eigenvalue {dom:.3e}")

            samples = state_samples(sem.ball.size, phi, SamplerConfig(count=100), seed)
            fm_worst = max(
                fm_check(gen, s, phi, 2.0, (0.1, 0.5, 1.0, 2.0)) for s in samples
            )
            if fm_worst > 1e-8:
                problems.append(f"{tag}: production decay violation {fm_worst:.3e} > 1e-8")
            dec = decay_certificate(gen, phi, 2.0, samples)
            if not dec.passed:
                problems.append(
                    f"{tag}: entropy decay at rate 2 fails (margin {dec.worst_margin:.3e})"
                )
            est = mlsi_estimate(
                gen, phi, sampler=SamplerConfig(count=100), seed=seed,
                restarts=2, polish_budget=400,
            )
            if est.beta_ratio < 1.95:
                problems.append(f"{tag}: beta_ratio {est.beta_ratio:.4f} < 1.95")
            if est.violations:
                problems.append(f"{tag}: {len(est.violations)} negative-ratio samples")
    assert not problems, "; ".join(problems)


def test_criterion_4_resolvent_approximant_converges():
    # Truncated resolvent integral: norm bounded by log(alpha), error
    # against the relative Hamiltonian decreasing in n and at most 1e-2
    # by n = 1000 with 200 quadrature nodes, on 10 dim-3 pairs.
    with criterion(4, "resolvent approximant of the relative Hamiltonian", 10.0) as problems:
        rng = np.random.default_rng(np.random.SeedSequence(41))
        eye3 = np.eye(3) / 3
        for k in range(10):
            rho = density(0.5 * ginibre_density(rng, 3) + 0.5 * eye3)
            sigma = density(0.5 * ginibre_density(rng, 3) + 0.5 * eye3)
            target = rel_hamiltonian(rho, sigma)
            bound = math.log(balpha_factor(rho, sigma)) + 1e-8
            errs = []
            for n in (10, 100, 1000):
                x = resolvent_log_approx(rho, sigma, n)
                if op_norm(x) > bound:
                    problems.append(f"pair {k}: ||x_{n}|| = {op_norm(x):.6f} > {bound:.6f}")
                errs.append(op_norm(x - target))
            if not (errs[0] > errs[1] > errs[2]):
                problems.append(f"pair {k}: errors not decreasing: {errs}")
            if errs[2] > 1e-2:
                problems.append(f"pair {k}: error {errs[2]:.3e} at n=1000 > 1e-2")
    assert not problems, "; ".join(problems)


def test_criterion_5_pinsker_gap_nonnegative():
    # 2 D(rho||sigma) >= ||rho - sigma||_1^2 on 1000 random pairs per
    # dimension, mixing faithful, near-pure, and rank-deficient states.
    with criterion(5, "Pinsker bound in squared form", 10.0) as problems:
        for d in (2, 3):
            rng = np.random.default_rng(np.random.SeedSequence((5, d)))
            worst = math.inf
            for k in range(1000):
                if k % 3 == 0:
                    v = rng.normal(size=d) + 1j * rng.normal(size=d)
                    v /= np.linalg.norm(v)
                    rho = density(np.outer(v, v.conj()))
                else:
                    rho = density(ginibre_density(rng, d))
                sigma = density(0.9 * ginibre_density(rng, d) + 0.1 * np.eye(d) / d)
                gap = pinsker_gap(rho, sigma)
                if math.isfinite(gap):
                    worst = min(worst, gap)
                else:
                    problems.append(f"dim {d}, pair {k}: infinite relative entropy")
                    break
            if worst < -1e-10:
                problems.append(f"dim {d}: pinsker_gap {worst:.3e} < -1e-10")
    assert not problems, "; ".join(problems)


def _random_blocks(rng, d):
    # composition of d with at least two parts
    parts = []
    rem = d
    cap = d - 1
    while rem > 0:
        p = int(rng.integers(1, min(rem, cap) + 1))
        parts.append(p)
        rem -= p
        cap = d
    return tuple(parts)


def test_criterion_6_subalgebra_reduction_checks():
    # 50 random (dimension, partition, rotation, state) instances:
    # blockwise entropy extension, projected relative Hamiltonian
    # identities, and the non-decreasing martingale whose last level is
    # the full algebra.
    with criterion(6, "subalgebra reduction and entropy martingale", 30.0) as problems:
        rng = np.random.default_rng(np.random.SeedSequence(6006))
        for k in range(50):
            d = 2 + k % 5
            blocks = _random_blocks(rng, d)
            unitary = haar_unitary(rng, d) if k % 2 else None
            w = rng.dirichlet(np.ones(d)) + 0.2 / d
            w /= w.sum()
            sig_mat = np.diag(w).astype(complex)
            if unitary is not None:
                sig_mat = unitary @ sig_mat @ unitary.conj().T
            sigma = density(sig_mat)
            rho = density(0.8 * ginibre_density(rng, d) + 0.2 * np.eye(d) / d)
            mid = subalgebra(blocks, unitary)

            ext = entropy_extension_check(mid, rho, sigma)
            if ext.residual > 1e-9:
                problems.append(f"instance {k}: extension residual {ext.residual:.3e}")
            proj = rel_hamiltonian_projection_check(mid, rho, sigma)
            if max(proj.orthogonality, proj.chain_residual) > 1e-9:
                problems.append(
                    f"instance {k}: projection identities "
                    f"({proj.orthogonality:.3e}, {proj.chain_residual:.3e})"
                )
            levels = [subalgebra((1,) * d, unitary), mid, subalgebra((d,), unitary)]
            mart = martingale_entropy_check(levels, rho, sigma)
            if mart.max_violation > 1e-10:
                problems.append(f"instance {k}: martingale violation {mart.max_violation:.3e}")
            if abs(mart.entropies[-1] - mart.limit) > 1e-10:
                problems.append(
                    f"instance {k}: final level misses the full-algebra entropy by "
                    f"{abs(mart.entropies[-1] - mart.limit):.3e}"
                )
    assert not problems, "; ".join(problems)


def test_criterion_7_long_time_convergence():
    # Symmetric test generators: states reach the conditional
    # expectation of the fixed-point algebra (trace distance 1e-6 at
    # t = 50/gap) and obey the entropy-decay trace-distance bound at
    # intermediate times with the estimated rate.
    with criterion(7, "long-time convergence to the fixed-point algebra", 30.0) as problems:
        # the 5-dim ball model allows 3 restarts of up to 2500 evaluations;
        # the gradient polish stops on its own tolerance after about 100
        # evaluations per restart here, as it does at the defaults
        polish = {"sampler": SamplerConfig(count=100), "restarts": 3, "polish_budget": 2500}
        models = (
            ("depolarizing-2", depolarizing(2), MAX_MIX_2, 71, {}),
            ("depolarizing-3", depolarizing(3), MAX_MIX_3, 72, {}),
            ("dephasing-2", schur_generator(np.array([[0.0, 1.0], [1.0, 0.0]])), MAX_MIX_2, 73, {}),
            ("coxeter-ball", None, None, 74, polish),
        )
        sem = build_ball_semigroup("coxeter", 2, 2)
        for tag, gen, phi, seed, est_kw in models:
            if gen is None:
                gen, phi = sem.gen, sem.phi
            if gns_symmetry_residual(gen, phi) > 1e-8:
                problems.append(f"{tag}: test generator is not symmetric")
                continue
            gap = spectral_gap(gen, phi)
            fp = fixed_point_expectation(gen, phi)
            # three sandwiched blends on the sampler's per-index streams
            streams = np.random.SeedSequence(seed).spawn(3)
            states = [
                _sample_one(np.random.default_rng(ss), gen.dim, phi.normalize().mat, "blend", eps)
                for ss, eps in zip(streams, (0.01, 0.1, 0.01))
            ]
            est = mlsi_estimate(gen, phi, seed=seed, **est_kw)
            for j, psi in enumerate(states):
                limit = fp.project_state(psi)
                far = trace_norm(evolve(gen, psi, 50.0 / gap).mat - limit.mat)
                if far > 1e-6:
                    problems.append(f"{tag}: state {j} distance {far:.3e} at t=50/gap")
                d0 = rel_entropy(psi, limit)
                for t in (0.3 / gap, 0.8 / gap, 1.5 / gap):
                    dist = trace_norm(evolve(gen, psi, t).mat - limit.mat)
                    bound = math.sqrt(2.0 * math.exp(-est.beta_ratio * t) * d0)
                    if dist > bound + 1e-12:
                        problems.append(
                            f"{tag}: state {j} at t={t:.2f}: {dist:.6f} > {bound:.6f}"
                        )
    assert not problems, "; ".join(problems)


def _suite_configs(tmp_path):
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m = 0.7 * m / np.trace(m).real + 0.3 * np.eye(4) / 4
    state4 = [[[v.real, v.imag] for v in row] for row in m]
    jumps4 = []
    for i in range(4):
        for j in range(4):
            e = [[0.0] * 4 for _ in range(4)]
            e[i][j] = 0.5
            jumps4.append(e)
    jumps2 = []
    for i in range(2):
        for j in range(2):
            e = [[0.0] * 2 for _ in range(2)]
            e[i][j] = 1.0 / math.sqrt(2)
            jumps2.append(e)
    dep2 = {"type": "gkls", "jumps": jumps2, "dim": 2}
    return {
        "debruijn": {
            "generator": dep2,
            "state": [[0.9, 0.0], [0.0, 0.1]],
            "reference": [[0.5, 0.0], [0.0, 0.5]],
            "t_grid": {"start": 0.1, "stop": 1.5, "count": 5},
            "seed": 7,
        },
        "mlsi": {
            "generator": dep2,
            "phi": [[0.5, 0.0], [0.0, 0.5]],
            "sampler": {"count": 12},
            "seed": 5,
            "restarts": 2,
            "polish_budget": 200,
        },
        "freegroup": {"kind": "coxeter", "rank": 2, "radius": 2, "seed": 0},
        "intertwine": {"kind": "free", "rank": 1, "radius": 2},
        "subalg": {
            "blocks": [2, 2],
            "state": state4,
            "sigma": [
                [0.3, 0.0, 0.0, 0.0],
                [0.0, 0.25, 0.0, 0.0],
                [0.0, 0.0, 0.25, 0.0],
                [0.0, 0.0, 0.0, 0.2],
            ],
            "filtration": [[1, 1, 1, 1], [2, 2]],
            "generator": {"type": "gkls", "jumps": jumps4, "dim": 4},
            "resolvent_order": 20,
        },
    }


def test_criterion_8_reports_are_deterministic(tmp_path):
    # Every CLI suite, re-run four times with the same seed, must write
    # byte-identical report.json files.
    with criterion(8, "byte-identical reports across reruns") as problems:
        configs = _suite_configs(tmp_path)
        for name, cfg in configs.items():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            blobs = set()
            for run in range(4):
                out = tmp_path / f"{name}-{run}"
                code = cli_main([name, "--config", str(cfg_path), "--out", str(out)])
                if code != 0:
                    problems.append(f"{name}: exit code {code} on run {run}")
                    break
                blobs.add((out / "report.json").read_bytes())
            if len(blobs) > 1:
                problems.append(f"{name}: {len(blobs)} distinct reports across runs")
    assert not problems, "; ".join(problems)
