"""Numerical toolkit for entropy decay of quantum Markov semigroups on matrix algebras."""

from .calculus import (
    cp_dominance_check,
    cp_dominance_report,
    diff_calculus,
    generator_from_calculus,
    intertwining_residual,
)
from .entropyflow import (
    SamplerConfig,
    debruijn_residual,
    decay_certificate,
    entropy_production,
    fm_check,
    mlsi_estimate,
    state_samples,
    trajectory,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    InputError,
    NumericalError,
    SizeError,
)
from .groupsem import (
    build_ball_semigroup,
    enumerate_ball,
    left_regular_observable,
)
from .qms import (
    evolve,
    fixed_point_expectation,
    gkls_generator,
    gns_symmetry_residual,
    invariant_states,
    schur_generator,
    spectral_gap,
)
from .statespace import (
    balpha_factor,
    density,
    pinsker_gap,
    rel_entropy,
    rel_hamiltonian,
    resolvent_log_approx,
)
from .subalg import (
    chain_rule_check,
    conditional_expectation,
    entropy_extension_check,
    martingale_entropy_check,
    pinch_state,
    rel_hamiltonian_projection_check,
    subalgebra,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "DomainError",
    "InputError",
    "NumericalError",
    "SamplerConfig",
    "SizeError",
    "balpha_factor",
    "build_ball_semigroup",
    "chain_rule_check",
    "conditional_expectation",
    "cp_dominance_check",
    "cp_dominance_report",
    "debruijn_residual",
    "decay_certificate",
    "density",
    "diff_calculus",
    "entropy_extension_check",
    "entropy_production",
    "enumerate_ball",
    "evolve",
    "fixed_point_expectation",
    "fm_check",
    "generator_from_calculus",
    "gkls_generator",
    "gns_symmetry_residual",
    "intertwining_residual",
    "invariant_states",
    "left_regular_observable",
    "martingale_entropy_check",
    "mlsi_estimate",
    "pinch_state",
    "pinsker_gap",
    "rel_entropy",
    "rel_hamiltonian",
    "rel_hamiltonian_projection_check",
    "resolvent_log_approx",
    "schur_generator",
    "spectral_gap",
    "state_samples",
    "subalgebra",
    "trajectory",
]
