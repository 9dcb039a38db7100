"""Consistent approximation fixpoint semantics over explicit finite orders.

The library builds approximation frameworks (intervals over complete
lattices, flowers over bounded-complete cpos), computes Kripke-Kleene,
supported, well-founded, and stable semantics of non-monotone operators,
verifies the framework axioms by exhaustive checking, and encodes logic
programs, auto-epistemic theories, and weighted abstract dialectical
frameworks into exact operators.
"""

from .engine import (
    Approximator,
    ExactOperator,
    SemanticsResult,
    application_refinements,
    approximation_violation,
    compute_semantics,
    grounding_refinements,
    is_application_refinement,
    is_grounding_refinement,
    is_prudent,
    is_reliable,
    is_terminal_wf,
    kripke_kleene,
    random_wf_strategy,
    run_wf_induction,
    stable_fixpoints,
    stable_revision,
    supported_fixpoints,
    ultimate_approximator,
    well_founded,
)
from .errors import (
    ElementNotFoundError,
    EvaluationError,
    GenaftError,
    InputError,
    InvalidRefinementError,
    MonotonicityError,
    NotAPartialOrderError,
    PreconditionError,
    RecomposeUndefinedError,
    ReliabilityError,
    SizeCapError,
)
from .fixpoints import MonotoneOperator, lfp
from .flowers import FlowerFramework, build_flower_framework
from .framework import (
    Approximant,
    ApproximationFramework,
    Caps,
    CheckResult,
    check_abstract_ilp,
    check_approximates_relation,
    check_chain_ilp,
    check_composition_poset,
    check_framework,
    check_glb_property,
    check_preamble,
    check_weak_ilp,
    report_ok,
    report_to_json,
)
from .hierarchy import (
    SpacePrecisionWitness,
    check_fixpoint_preservation,
    check_precision_transfer,
    check_space_precision,
    check_ultimate_composition,
    check_warm_start,
    induce_coarse,
    induce_fine,
    interval_flower_witness,
    verify_transfer_theorems,
)
from .intervals import IntervalFramework, build_interval_framework
from .posets import (
    FinitePoset,
    PosetClassification,
    powerset_lattice,
    product_poset,
    set_id,
    tuple_id,
)

__version__ = "0.1.0"
