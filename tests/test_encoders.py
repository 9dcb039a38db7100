"""Encoders: logic programs, auto-epistemic theories, wADFs."""

import random

import pytest

from genaft import (
    build_interval_framework,
    kripke_kleene,
    powerset_lattice,
    set_id,
    ultimate_approximator,
)
from genaft.encoders import (
    AelTheory,
    NormalLogicProgram,
    Rule,
    Wadf,
    ael_operator,
    belief_state_space,
    fitting_approximator,
    lp_operator,
    lp_oracle,
    parse_formula,
    parse_program,
    wadf_operator,
)
from genaft.errors import EvaluationError, InputError, SizeCapError
from corpus import agent_theory


# -- logic programs -----------------------------------------------------------


def test_lp_operator_fact():
    op = lp_operator(parse_program(["p"]))
    assert op.apply("{}") == "{p}"


def test_lp_operator_negative_self_loop_is_non_monotone():
    op = lp_operator(parse_program(["p :- not p"]))
    assert op.apply("{}") == "{p}"
    assert op.apply("{p}") == "{}"
    assert op.monotonicity_violation() is not None


def test_lp_operator_two_negations():
    op = lp_operator(parse_program(["q :- not p", "r :- not q"], atoms=["p", "q", "r"]))
    assert op.apply("{}") == "{q,r}"


def test_lp_operator_evaluates_every_rule_at_every_interpretation():
    """The table read off each rule's firing cube, against the definition
    on atom sets; bodies may hold an atom and its negation."""
    rng = random.Random(11)
    for size in range(7):
        atoms = tuple("abcdefg"[:size])
        for _ in range(10):
            rules = tuple(
                Rule(head, frozenset(rng.sample(atoms, rng.randint(0, size))),
                     frozenset(rng.sample(atoms, rng.randint(0, size))))
                for head in atoms for _ in range(rng.randint(0, 3))
            )
            op = lp_operator(NormalLogicProgram(atoms, rules))
            for i, ident in enumerate(op.domain.elements):
                true = {a for k, a in enumerate(atoms) if i >> k & 1}
                fired = {r.head for r in rules if r.pos <= true and not r.neg & true}
                assert op.apply(ident) == set_id(fired)


def test_lp_operator_with_unsorted_atoms():
    rules = parse_program(["p :- not q", "q :- p"]).rules
    unsorted = lp_operator(NormalLogicProgram(("q", "p"), rules))
    assert unsorted.table == lp_operator(NormalLogicProgram(("p", "q"), rules)).table
    assert unsorted.apply("{}") == "{p}"


def test_positional_tables_need_the_programs_powerset():
    program = parse_program("p :- not q.")
    with pytest.raises(InputError, match="powerset lattice"):
        lp_operator(program, powerset_lattice(["a", "b"]))
    with pytest.raises(InputError, match="powerset lattice"):
        lp_operator(program, powerset_lattice(["p", "q"], "superset"))
    with pytest.raises(InputError, match="powerset lattice"):
        fitting_approximator(program, build_interval_framework(powerset_lattice(["p", "q", "r"])))
    space = powerset_lattice(["p", "q"])
    assert lp_operator(program, space).domain is space


def test_program_validation():
    with pytest.raises(InputError):
        NormalLogicProgram(("p",), (Rule("ghost", frozenset(), frozenset()),))
    with pytest.raises(InputError):
        NormalLogicProgram(("p", "p"), ())
    with pytest.raises(InputError):
        NormalLogicProgram(("p,q",), ())


def test_lp_atom_cap():
    atoms = tuple(f"a{i}" for i in range(13))
    with pytest.raises(SizeCapError):
        lp_operator(NormalLogicProgram(atoms, ()))


def test_oracle_classics():
    even = lp_oracle(parse_program(["p :- not q", "q :- not p"]))
    assert {frozenset(a) for a in even.answer_sets} == {frozenset({"p"}), frozenset({"q"})}
    assert even.wf_true == frozenset() and even.wf_possible == {"p", "q"}

    odd = lp_oracle(parse_program(["p :- not p"]))
    assert odd.answer_sets == ()
    assert odd.wf_true == frozenset() and odd.wf_possible == {"p"}

    fact = lp_oracle(parse_program(["p"]))
    assert {frozenset(a) for a in fact.answer_sets} == {frozenset({"p"})}
    assert fact.wf_true == {"p"} == fact.wf_possible


def test_oracle_supported_models():
    oracle = lp_oracle(parse_program(["p :- p"]))
    assert {frozenset(s) for s in oracle.supported} == {frozenset(), frozenset({"p"})}


def test_fitting_vs_ultimate_separation():
    program = parse_program(["p :- p", "p :- not p"])
    op = lp_operator(program)
    fw = build_interval_framework(op.domain)
    fit = fitting_approximator(program, fw)
    ult = ultimate_approximator(fw, op)
    kk_fit, kk_ult = kripke_kleene(fit), kripke_kleene(ult)
    assert (kk_fit.alb, kk_fit.aub) == ("{}", "{p}")
    assert (kk_ult.alb, kk_ult.aub) == ("{p}", "{p}")


def test_fitting_and_ultimate_agree_on_facts():
    program = parse_program(["p"])
    op = lp_operator(program)
    fw = build_interval_framework(op.domain)
    assert kripke_kleene(fitting_approximator(program, fw)) == kripke_kleene(
        ultimate_approximator(fw, op)
    )


# -- auto-epistemic theories -----------------------------------------------------


def test_agent_operator_at_the_extremes():
    op = ael_operator(agent_theory())
    bottom = op.domain.least()  # every interpretation deemed possible
    top = op.domain.greatest()
    both_true = {i for i in _members(op.apply(bottom))}
    assert both_true == {s for s in _members(bottom) if {"q", "r"} <= _atoms(s)}
    neither = _members(op.apply(top))
    assert neither == {s for s in _members(bottom) if not ({"q", "r"} & _atoms(s))}


def _members(state_id):
    inner = state_id[1:-1]
    if not inner:
        return set()
    parts, depth, cur = [], 0, ""
    for ch in inner:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        depth += ch == "{"
        depth -= ch == "}"
        cur += ch
    parts.append(cur)
    return set(parts)


def _atoms(interp_id):
    inner = interp_id[1:-1]
    return set(inner.split(",")) if inner else set()


def test_objective_theory_is_constant():
    theory = AelTheory.from_json({"atoms": ["p"], "sentences": [["atom", "p"]]})
    op = ael_operator(theory)
    expected = set_id([set_id(["p"])])
    assert all(op.apply(x) == expected for x in op.domain.elements)


def test_agent_operator_is_non_monotone():
    op = ael_operator(agent_theory())
    assert op.monotonicity_violation() is not None
    witness = op.monotonicity_violation()
    assert witness is not None


def test_belief_state_space_shape():
    theory = AelTheory.from_json({"atoms": ["p"], "sentences": [["atom", "p"]]})
    space = belief_state_space(theory)
    assert len(space) == 4
    assert space.least() == set_id(["{p}", "{}"])


def test_three_atom_belief_lattice():
    space = belief_state_space(agent_theory())
    assert len(space) == 256
    assert space.classify().is_complete_lattice
    # the least belief state deems all eight interpretations possible
    assert space.least().count("{") == 9
    assert space.greatest() == "{}"


def test_nested_k_rejected():
    with pytest.raises(InputError, match="nested K"):
        AelTheory.from_json(
            {"atoms": ["p"], "sentences": [["K", ["K", ["atom", "p"]]]]}
        )


def test_undeclared_atom_rejected():
    with pytest.raises(InputError, match="undeclared"):
        AelTheory.from_json({"atoms": ["p"], "sentences": [["atom", "q"]]})


def test_malformed_formula_rejected():
    with pytest.raises(InputError):
        parse_formula(["iff", ["atom", "p"]])
    with pytest.raises(InputError):
        parse_formula(["xor", ["atom", "p"], ["atom", "q"]])


def test_ael_atom_cap():
    theory = AelTheory.from_json({"atoms": ["a", "b", "c", "d", "e"], "sentences": []})
    with pytest.raises(SizeCapError):
        ael_operator(theory)


# -- weighted abstract dialectical frameworks --------------------------------------


def test_review_status_is_tendency_accept(wadf):
    op = wadf_operator(wadf)
    some = op.domain.elements[0]
    # Identifiers list the values of significance, methodology, status.
    revised = op.apply(op.apply(some))
    assert revised == "(accept|borderline|tendency_accept)"


def test_all_constant_wadf_is_constant_operator(wadf):
    w = Wadf(
        wadf.arguments,
        wadf.value_poset,
        {
            "significance": ("const", "accept"),
            "methodology": ("const", "borderline"),
            "status": ("const", "reject"),
        },
    )
    op = wadf_operator(w)
    target = "(accept|borderline|reject)"
    assert all(op.apply(x) == target for x in op.domain.elements)
    assert op.monotonicity_violation() is None


def test_glb_with_least_value(wadf):
    op = wadf_operator(wadf)
    start = "(indifferent|indifferent|accept)"
    assert op.apply(start).endswith("|indifferent)")  # the status


def _uses_only_glb(expr):
    if expr[0] in ("const", "parent"):
        return True
    return expr[0] == "glb" and all(_uses_only_glb(sub) for sub in expr[1])


def test_glb_only_conditions_are_monotone(wadf):
    assert all(_uses_only_glb(wadf.acceptance[a]) for a in wadf.arguments)
    assert wadf_operator(wadf).monotonicity_violation() is None


def test_lub_failure_names_the_argument(wadf):
    w = Wadf(
        wadf.arguments,
        wadf.value_poset,
        {
            "significance": ("const", "accept"),
            "methodology": ("const", "reject"),
            "status": ("lub", (("parent", "significance"), ("parent", "methodology"))),
        },
    )
    with pytest.raises(EvaluationError, match="status"):
        wadf_operator(w)


def test_table_acceptance_condition(wadf):
    values = wadf.value_poset
    rows = [
        [[v], "accept" if v == "accept" else "indifferent"]
        for v in values.elements
    ]
    w = Wadf.from_json(
        {
            "arguments": ["significance", "status"],
            "values": {
                "elements": list(values.elements),
                "leq": [[x, y] for x in values.elements for y in values.elements
                        if values.leq(x, y)],
            },
            "acceptance": {
                "significance": ["const", "accept"],
                "status": ["table", ["significance"], rows],
            },
        }
    )
    op = wadf_operator(w)
    fixed = op.apply(op.apply(op.domain.elements[0]))
    assert fixed.endswith("|accept)")  # the status


def test_partial_table_rejected(wadf):
    with pytest.raises(InputError, match="missing"):
        Wadf.from_json(
            {
                "arguments": ["status"],
                "values": {"elements": ["x", "y"], "hasse": [["x", "y"]]},
                "acceptance": {"status": ["table", ["status"], [[["x"], "y"]]]},
            }
        )


def test_undeclared_parent_rejected(wadf):
    with pytest.raises(InputError):
        Wadf.from_json(
            {
                "arguments": ["status"],
                "values": {"elements": ["x"], "hasse": []},
                "acceptance": {"status": ["parent", "ghost"]},
            }
        )
