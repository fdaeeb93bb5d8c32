"""Span tracer that wraps entroflow's public functions from outside.

The package binds its functions by name in every importing module
(`from .matcore import herm_eig`), so replacing `matcore.herm_eig`
alone would miss the calls made from `qms`, `statespace` and the rest.
`Tracer.install` therefore rebinds every name, in every entroflow
module, that refers to a traced function, and `uninstall` puts each
binding back.  The numpy/scipy kernels are module attributes called
through `np.linalg.<name>` / `scipy.linalg.<name>`, so patching the
attribute on the library module is enough for them.

A span's self time is its duration minus the time of the spans it
directly encloses on the same thread.  Worker threads (the `mlsi`
sample map) keep their own span stacks; a parent waiting on a thread
pool therefore keeps the waiting time as its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize

# Functions traced per entroflow module, by the name they have there.
# "Density" is the construction of a state (its __post_init__ runs an
# eigvalsh); the propagator cache is traced separately.
MODULE_SPANS = {
    "matcore": ("herm_eig", "mat_fn", "expm_superop", "clamp_psd", "choi_matrix"),
    "statespace": ("Density", "rel_entropy", "rel_hamiltonian", "balpha_factor"),
    "qms": (
        "fixed_point_expectation",
        "evolve",
        "invariant_states",
        "gns_symmetry_residual",
        "gkls_generator",
        "schur_generator",
    ),
    "entropyflow": (
        "entropy_production",
        "state_samples",
        "mlsi_estimate",
        "fm_check",
        "decay_certificate",
        "trajectory",
        "debruijn_residual",
    ),
    "groupsem": ("build_ball_semigroup", "left_regular_observable"),
    "calculus": ("intertwining_residual", "cp_dominance_report"),
    "subalg": (
        "entropy_extension_check",
        "rel_hamiltonian_projection_check",
        "martingale_entropy_check",
        "chain_rule_check",
    ),
    "cli": ("main",),
}

# Dense kernels entroflow calls, by library module and attribute.
KERNEL_SPANS = {
    "numpy": (np.linalg, ("eigh", "eigvalsh", "svd", "solve")),
    "scipy": (scipy.linalg, ("eigh", "expm", "schur")),
}

# Eigendecomposition kernels counted by ratio.eig_per_production.
EIG_KERNELS = ("linalg.numpy.eigh", "linalg.numpy.eigvalsh", "linalg.scipy.eigh")


class Tracer:
    """Counts calls and self time per span name, plus a few layer counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.max_side = 0
        self._held = 0  # propagator bytes held by live generators
        self.peak_held = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings = []  # (owner, attribute, original), in install order

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span around fn; after(args, result) runs on return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += duration - children
            if after is not None:
                after(args, result)
            return result

        return traced

    def _note_side(self, args, result):
        side = args[0].matrix.shape[0]
        with self._lock:
            self.max_side = max(self.max_side, side)

    def _note_nfev(self, args, result):
        with self._lock:
            self.counters["polish.nfev"] += int(result.nfev)

    def _wrap_propagator(self, fn):
        tracer = self

        @functools.wraps(fn)
        def propagator(self, tag, gen, t):
            cache = self.__dict__.get("_propagators", {})
            hit = (tag, float(t)) in cache
            out = fn(self, tag, gen, t)
            with tracer._lock:
                tracer.counters["propagator.hits" if hit else "propagator.misses"] += 1
                if not hit:
                    tracer._held += out.matrix.nbytes
                    tracer.peak_held = max(tracer.peak_held, tracer._held)
            if not hit:
                weakref.finalize(self, tracer._release, out.matrix.nbytes)
            return out

        return propagator

    def _release(self, nbytes: int):
        with self._lock:
            self._held -= nbytes

    # ------------------------------------------------------------ install

    def _bind(self, owner, attr: str, new):
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function and rebind it wherever it is bound."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        homes = {short: importlib.import_module(f"entroflow.{short}") for short in MODULE_SPANS}
        modules = [m for n, m in sys.modules.items() if n == "entroflow" or n.startswith("entroflow.")]
        for short, names in MODULE_SPANS.items():
            home = homes[short]
            for name in names:
                if name == "Density":
                    dens = home.Density
                    self._bind(dens, "__post_init__", self.wrap("statespace.Density", dens.__post_init__))
                    continue
                original = getattr(home, name)
                after = self._note_side if (short, name) == ("matcore", "expm_superop") else None
                traced = self.wrap(f"{short}.{name}", original, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, traced)
        for lib, (owner, names) in KERNEL_SPANS.items():
            for name in names:
                self._bind(owner, name, self.wrap(f"linalg.{lib}.{name}", getattr(owner, name)))
        # the Nelder-Mead polish inside mlsi_estimate
        self._bind(
            scipy.optimize,
            "minimize",
            self.wrap("entropyflow.polish", scipy.optimize.minimize, self._note_nfev),
        )
        gen_cls = homes["qms"].Generator
        self._bind(gen_cls, "_propagator", self._wrap_propagator(gen_cls._propagator))

    def uninstall(self):
        """Restore every binding install() replaced, newest first."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ results

    def counts(self) -> dict:
        """Every deterministic count the trace produced (no timings)."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counters)
        out["matcore.expm_superop.max_side"] = self.max_side
        return out
