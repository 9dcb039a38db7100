"""Encoders from source formalisms to exact spaces and operators."""

from .autoepistemic import (
    AelTheory,
    ael_operator,
    belief_state_space,
    eval_objective,
    interpretation_ids,
    parse_formula,
)
from .dialectical import (
    Wadf,
    assignment_id,
    assignment_of,
    parse_acceptance,
    uses_only_glb,
    wadf_exact_space,
    wadf_operator,
)
from .logic_programs import (
    LpOracle,
    NormalLogicProgram,
    Rule,
    fitting_approximator,
    lp_exact_space,
    lp_operator,
    lp_oracle,
    parse_program,
)

__all__ = [
    "AelTheory",
    "LpOracle",
    "NormalLogicProgram",
    "Rule",
    "Wadf",
    "ael_operator",
    "assignment_id",
    "assignment_of",
    "belief_state_space",
    "eval_objective",
    "fitting_approximator",
    "interpretation_ids",
    "lp_exact_space",
    "lp_operator",
    "lp_oracle",
    "parse_acceptance",
    "parse_formula",
    "parse_program",
    "uses_only_glb",
    "wadf_exact_space",
    "wadf_operator",
]
