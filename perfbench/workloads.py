"""Seeded job lists for the three benchmark workloads.

A workload is a fixed, ordered list of jobs.  Every job is either one
`entroflow` CLI run on a generated JSON config, or the library
`certify` pipeline (criterion 3: production monotonicity and entropy
decay at rate 2 on sampled states of a ball model).  Everything random
in a job list is drawn from the workload seed; the program only ever
sees the generated configs.

Why these workloads (see README.md for the full map):

- rates: small-d `mlsi` jobs at the CLI defaults, dominated by the
  Nelder-Mead polish and its tiny eigendecompositions.
- balls: word-length ball models at d = 17..37, dominated by dense
  d^2 x d^2 superoperators of diagonal Schur generators and by the
  per-state fixed point in `fm_check`; propagators are reused.
- flows: `debruijn` on random non-normal GKLS generators, where every
  node evolves at new times (propagator cache misses), plus `subalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("rates", "balls", "flows")

# Relative tolerance of a rate estimate against its known reference
# (criterion 2 of the acceptance suite uses the same 5%).
BETA_TOLERANCE = 0.05

# Certify pipeline: criterion 3 checks at these times and this rate.
CERTIFY_RATE = 2.0
CERTIFY_TIMES = (0.1, 0.5, 1.0, 2.0)
CERTIFY_FM_TOL = 1e-8

# Spectral spread of random Hamiltonians, in units of sqrt(d).
HAMILTONIAN_SPREAD = 1.7


@dataclass(frozen=True)
class Job:
    """One unit of work in a workload's job list.

    suite is a CLI subcommand or "certify"; config is the JSON config of
    a CLI job or the parameters of the certify pipeline.  reference is
    the known decay rate that an mlsi estimate is checked against.
    """

    name: str
    suite: str
    config: dict
    reference: float | None = None


# ---------------------------------------------------------------- matrices


def _encode(mat) -> list:
    """Config encoding of a matrix: [re, im] pairs, plain numbers when real."""
    m = np.asarray(mat, dtype=complex)
    if not np.any(m.imag):
        return [[float(v) for v in row] for row in m.real]
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _faithful_state(rng, d: int, floor: float = 0.2) -> np.ndarray:
    """Random full-rank state: a Ginibre state blended with the trace."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = (1.0 - floor) * m / np.trace(m).real + floor * np.eye(d) / d
    return (m + m.conj().T) / 2


def _depolarizing(d: int) -> dict:
    """Jumps E_ij / sqrt(d): L(x) = x - tr(x)/d, invariant state 1/d."""
    jumps = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1.0 / math.sqrt(d)
            jumps.append(_encode(e))
    return {"type": "gkls", "jumps": jumps, "dim": d}


def _random_unital_gkls(rng, d: int) -> dict:
    """Hamiltonian plus two scaled Haar-unitary jumps, as in criterion 1.

    Unitary jumps keep the trace invariant; the Hamiltonian makes the
    generator non-normal and not symmetric for the trace.  The
    Hamiltonian is scaled to a fixed spectral spread, about the mean of
    the random ensemble, so that every seed gives generators of the
    same norm and the exponentials cost the same work.
    """
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ham = h + h.conj().T
    w = np.linalg.eigvalsh(ham)
    ham *= HAMILTONIAN_SPREAD * math.sqrt(d) / (w[-1] - w[0])
    jumps = [math.sqrt(0.8) * _haar_unitary(rng, d), math.sqrt(0.5) * _haar_unitary(rng, d)]
    return {
        "type": "gkls",
        "hamiltonian": _encode(ham),
        "jumps": [_encode(v) for v in jumps],
        "dim": d,
    }


def _mixed(d: int) -> list:
    return _encode(np.eye(d) / d)


# ---------------------------------------------------------------- group balls


def _reduce(kind: str, word) -> tuple:
    out = []
    for letter in word:
        if out and (out[-1] == -letter if kind == "free" else out[-1] == letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def ball_words(kind: str, rank: int, radius: int) -> list:
    """Reduced words of length <= radius, length-then-lex, identity first."""
    if kind == "free":
        letters = [s * m for m in range(1, rank + 1) for s in (1, -1)]
    else:
        letters = list(range(1, rank + 1))
    words, frontier = [()], [()]
    for _ in range(radius):
        frontier = [
            w + (l,)
            for w in frontier
            for l in letters
            if not (w and (w[-1] == -l if kind == "free" else w[-1] == l))
        ]
        words.extend(frontier)
    return words


def ball_symbol(kind: str, rank: int, radius: int) -> np.ndarray:
    """Word-length symbol psi[g, h] = |g h^-1| on the ball.

    Computed here rather than with entroflow.groupsem, so that the
    schur configs are inputs made independently of the code under test.
    """
    words = ball_words(kind, rank, radius)
    inv = [tuple(-l for l in reversed(w)) if kind == "free" else tuple(reversed(w)) for w in words]
    n = len(words)
    psi = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            psi[i, j] = len(_reduce(kind, words[i] + inv[j]))
    return psi


def _ball_schur(kind: str, rank: int, radius: int) -> dict:
    return {"type": "schur", "symbol": _encode(ball_symbol(kind, rank, radius))}


# ---------------------------------------------------------------- oracles


def qubit_depolarizing_oracle() -> float:
    """Dense Bloch-radius grid minimum of I/D for qubit depolarizing.

    On states with Bloch radius r, D = ((1+r)/2) log(1+r) + ((1-r)/2) log(1-r)
    and I = (r/2) (log(1+r) - log(1-r)); the rate is the grid minimum of I/D.
    """
    rs = np.linspace(1e-4, 0.9999, 4000)
    ent = ((1 + rs) / 2) * np.log1p(rs) + ((1 - rs) / 2) * np.log1p(-rs)
    prod = (rs / 2) * (np.log1p(rs) - np.log1p(-rs))
    return float(np.min(prod / ent))


# ---------------------------------------------------------------- job lists


def _seeds(seed: int, workload: str, count: int) -> tuple:
    """Independent sub-seeds for one workload's jobs."""
    root = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return tuple(int(s.generate_state(1)[0]) for s in root.spawn(count))


def _rates(seed: int, tiny: bool) -> list:
    s = _seeds(seed, "rates", 5)
    rng = np.random.default_rng(s[4])
    if tiny:
        polish = {"sampler": {"count": 8}, "restarts": 1, "polish_budget": 40}
    else:
        polish = {}  # CLI defaults: 100 samples, 8 restarts x 500 evaluations
    return [
        Job(
            "mlsi-depolarizing-d2",
            "mlsi",
            {"generator": _depolarizing(2), "phi": _mixed(2), "seed": s[0], **polish},
            reference=qubit_depolarizing_oracle(),
        ),
        Job(
            "mlsi-depolarizing-d3",
            "mlsi",
            {"generator": _depolarizing(3), "phi": _mixed(3), "seed": s[1], **polish},
        ),
        Job(
            "mlsi-coxeter2-r2-d5",
            "mlsi",
            {"generator": _ball_schur("coxeter", 2, 2), "phi": _mixed(5), "seed": s[2], **polish},
            reference=2.0,
        ),
        Job(
            "mlsi-gkls-d4",
            "mlsi",
            {"generator": _random_unital_gkls(rng, 4), "phi": _mixed(4), "seed": s[3], **polish},
        ),
    ]


def _balls(seed: int, tiny: bool) -> list:
    s = _seeds(seed, "balls", 3)
    # (kind, rank, radius) of the models; criterion-3 settings for mlsi
    if tiny:
        free, cox, wide, cox_small = ("free", 1, 2), ("coxeter", 2, 2), ("free", 1, 3), ("coxeter", 2, 2)
        certify_count = 2
        mlsi_polish = {"sampler": {"count": 8}, "restarts": 1, "polish_budget": 40}
    else:
        free, cox, wide, cox_small = ("free", 2, 2), ("coxeter", 3, 3), ("free", 3, 2), ("coxeter", 3, 2)
        certify_count = 8
        mlsi_polish = {"sampler": {"count": 100}, "restarts": 2, "polish_budget": 400}

    def ball(model) -> dict:
        return dict(zip(("kind", "rank", "radius"), model))

    def tag(model) -> str:
        return f"{model[0]}-d{len(ball_words(*model))}"

    jobs = [Job(f"freegroup-{tag(m)}", "freegroup", ball(m)) for m in (free, cox, wide)]
    jobs += [Job(f"intertwine-{tag(m)}", "intertwine", ball(m)) for m in (free, cox)]
    jobs.append(
        Job(
            f"mlsi-{tag(free)}",
            "mlsi",
            {
                "generator": _ball_schur(*free),
                "phi": _mixed(len(ball_words(*free))),
                "seed": s[0],
                **mlsi_polish,
            },
            reference=2.0,
        )
    )
    for model, sub in ((free, s[1]), (cox_small, s[2])):
        jobs.append(
            Job(f"certify-{tag(model)}", "certify", {**ball(model), "count": certify_count, "seed": sub})
        )
    return jobs


def _diagonal_sigma(rng, d: int) -> np.ndarray:
    """Faithful diagonal reference: it lies in every level of the
    filtration, from the diagonal algebra up to the blocks."""
    w = rng.uniform(0.5, 1.5, size=d)
    return np.diag(w / w.sum())


def _flows(seed: int, tiny: bool) -> list:
    s = _seeds(seed, "flows", 5)
    dims = (2, 3, 4) if tiny else (8, 12, 16)
    nodes = 4 if tiny else 24
    jobs = []
    for d, sub in zip(dims, s):
        rng = np.random.default_rng(sub)
        jobs.append(
            Job(
                f"debruijn-gkls-d{d}",
                "debruijn",
                {
                    "generator": _random_unital_gkls(rng, d),
                    "state": _encode(_faithful_state(rng, d)),
                    "reference": _mixed(d),
                    "t_grid": {"start": 0.05, "stop": 2.0, "count": nodes},
                },
            )
        )
    for blocks, sub in (((2, 2) if tiny else (2, 2, 2), s[3]), ((1, 2) if tiny else (3, 3, 4), s[4])):
        rng = np.random.default_rng(sub)
        d = sum(blocks)
        jobs.append(
            Job(
                f"subalg-d{d}",
                "subalg",
                {
                    "blocks": list(blocks),
                    "state": _encode(_faithful_state(rng, d)),
                    "sigma": _encode(_diagonal_sigma(rng, d)),
                    "filtration": [[1] * d, list(blocks)],
                    "generator": _random_unital_gkls(rng, d),
                    "resolvent_order": 20,
                },
            )
        )
    return jobs


def job_list(workload: str, seed: int, tiny: bool = False) -> list:
    """The ordered jobs of a workload, generated from the seed."""
    builders = {"rates": _rates, "balls": _balls, "flows": _flows}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](seed, tiny)
