"""Encoders from source formalisms to exact spaces and operators."""

from .autoepistemic import (
    AelTheory,
    ael_operator,
    belief_state_space,
    parse_formula,
)
from .dialectical import (
    Wadf,
    parse_acceptance,
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
    "belief_state_space",
    "fitting_approximator",
    "lp_exact_space",
    "lp_operator",
    "lp_oracle",
    "parse_acceptance",
    "parse_formula",
    "parse_program",
    "wadf_exact_space",
    "wadf_operator",
]
