"""Encoders: logic programs, auto-epistemic theories, wADFs."""

import itertools
import random

import pytest

from genaft import (
    FinitePoset,
    build_interval_framework,
    kripke_kleene,
    powerset_lattice,
    set_id,
    tuple_id,
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
    lp_exact_space,
    lp_operator,
    lp_oracle,
    parse_formula,
    parse_program,
    wadf_operator,
)
from genaft.encoders.logic_programs import MAX_LP_ATOMS, _consequence, _tp
from genaft.errors import EvaluationError, InputError, SizeCapError
from genaft.posets import _Powerset
from corpus import agent_theory, random_bounded_complete_cpo, with_top


# -- logic programs -----------------------------------------------------------


def test_lp_operator_fact():
    program = parse_program(["p"])
    op = lp_operator(program, lp_exact_space(program))
    assert op.apply("{}") == "{p}"


def test_lp_operator_negative_self_loop_is_non_monotone():
    program = parse_program(["p :- not p"])
    op = lp_operator(program, lp_exact_space(program))
    assert op.apply("{}") == "{p}"
    assert op.apply("{p}") == "{}"
    assert op.monotonicity_violation() is not None


def test_lp_operator_two_negations():
    program = parse_program(["q :- not p", "r :- not q"])
    op = lp_operator(program, lp_exact_space(program))
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
            program = NormalLogicProgram(atoms, rules)
            op = lp_operator(program, lp_exact_space(program))
            for i, ident in enumerate(op.domain.elements):
                true = {a for k, a in enumerate(atoms) if i >> k & 1}
                fired = {r.head for r in rules if r.pos <= true and not r.neg & true}
                assert op.apply(ident) == set_id(fired)


@pytest.mark.parametrize("size", range(MAX_LP_ATOMS + 1))
def test_tp_table_is_the_consequence_at_every_interpretation(size):
    """The T_P table against `_consequence` at every interpretation, on
    random programs with repeated heads and bodies that may hold an
    atom and its negation.  The masks are over the sorted atoms, in
    whatever order the program lists them."""
    rng = random.Random(size)
    atoms = tuple(f"a{k:02d}" for k in range(size))
    space = powerset_lattice(atoms)
    for _ in range(3 if size < 10 else 1):
        rules = tuple(
            Rule(head, frozenset(rng.sample(atoms, rng.randint(0, min(4, size)))),
                 frozenset(rng.sample(atoms, rng.randint(0, min(3, size)))))
            for head in atoms for _ in range(rng.randint(0, 3))
        )
        compiled = NormalLogicProgram(atoms, rules)._masks
        assert NormalLogicProgram(atoms[::-1], rules)._masks == compiled
        table = _tp(compiled, space).table
        assert list(table) == [_consequence(compiled, i) for i in range(len(space))]


def test_rule_with_an_atom_and_its_negation_never_fires():
    program = parse_program(["p :- q, not q", "q :- not p"])
    without = NormalLogicProgram(program.atoms, program.rules[1:])
    assert (lp_operator(program, lp_exact_space(program)).table
            == lp_operator(without, lp_exact_space(without)).table)


def test_lp_operator_with_unsorted_atoms():
    rules = parse_program(["p :- not q", "q :- p"]).rules
    first, second = NormalLogicProgram(("q", "p"), rules), NormalLogicProgram(("p", "q"), rules)
    unsorted = lp_operator(first, lp_exact_space(first))
    assert unsorted.table == lp_operator(second, lp_exact_space(second)).table
    assert unsorted.apply("{}") == "{p}"


def test_operator_and_fitting_approximator_of_one_program_carry_equal_tables():
    """Both read the masks the program object compiled once; the
    compiled program keeps the equality, hash and repr of a fresh equal
    one."""
    programs = [
        parse_program(["p :- q, not r", "q", "r :- not p"]),
        NormalLogicProgram(("q", "p"), parse_program(["p :- not q", "q :- p"]).rules),
    ]
    for program in programs:
        fresh = NormalLogicProgram(program.atoms, program.rules)
        space = lp_exact_space(program)
        op = lp_operator(program, space)
        fit = fitting_approximator(program, build_interval_framework(space))
        assert fit.exact.table == op.table
        assert "_masks" in vars(program) and "_masks" not in vars(fresh)
        assert program == fresh and hash(program) == hash(fresh) and repr(program) == repr(fresh)


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
    program = NormalLogicProgram(tuple(f"a{i}" for i in range(17)), ())
    with pytest.raises(SizeCapError):
        lp_exact_space(program)
    space = _Powerset(tuple(sorted(program.atoms)), False)  # past powerset_lattice's cap
    with pytest.raises(SizeCapError):
        lp_operator(program, space)
    with pytest.raises(SizeCapError):
        fitting_approximator(program, build_interval_framework(space))


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
    op = lp_operator(program, lp_exact_space(program))
    fw = build_interval_framework(op.domain)
    fit = fitting_approximator(program, fw)
    ult = ultimate_approximator(fw, op)
    kk_fit, kk_ult = kripke_kleene(fit), kripke_kleene(ult)
    assert (kk_fit.alb, kk_fit.aub) == ("{}", "{p}")
    assert (kk_ult.alb, kk_ult.aub) == ("{p}", "{p}")


def test_fitting_and_ultimate_agree_on_facts():
    program = parse_program(["p"])
    op = lp_operator(program, lp_exact_space(program))
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


def _random_sentence(atoms, rng: random.Random, depth: int, modal: bool) -> list:
    """Every formula node kind; K wraps objective formulas only."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return ["atom", rng.choice(atoms)]
    if modal and r < 0.45:
        return ["K", _random_sentence(atoms, rng, depth - 1, False)]
    if r < 0.6:
        return ["not", _random_sentence(atoms, rng, depth - 1, modal)]
    if r < 0.75:
        return ["iff", *(_random_sentence(atoms, rng, depth - 1, modal) for _ in range(2))]
    op = rng.choice(["and", "or"])
    return [op, *(_random_sentence(atoms, rng, depth - 1, modal) for _ in range(rng.randint(1, 3)))]


def _holds(f, true: frozenset, state: list) -> bool:
    """Truth of `f` in the interpretation `true` (its true atoms), with
    K(g) true iff g holds in every interpretation of `state`."""
    op, *args = f
    if op == "atom":
        return args[0] in true
    if op == "K":
        return all(_holds(args[0], other, state) for other in state)
    if op == "not":
        return not _holds(args[0], true, state)
    if op == "iff":
        return _holds(args[0], true, state) == _holds(args[1], true, state)
    values = [_holds(g, true, state) for g in args]
    return all(values) if op == "and" else any(values)


@pytest.mark.parametrize("seed", range(30))
def test_ael_operator_is_k_evaluated_from_its_definition(seed):
    """Every belief state of a random 1-3-atom theory, revised by
    evaluating each sentence's K atoms over the state's interpretations."""
    rng = random.Random(seed)
    atoms = ["p", "q", "r"][: 1 + seed % 3]
    sentences = [_random_sentence(atoms, rng, 3, True) for _ in range(rng.randint(1, 3))]
    op = ael_operator(AelTheory.from_json({"atoms": atoms, "sentences": sentences}))
    interps = [frozenset(c) for k in range(len(atoms) + 1) for c in itertools.combinations(atoms, k)]
    for k in range(len(interps) + 1):
        for state in itertools.combinations(interps, k):
            admitted = [i for i in interps if all(_holds(s, i, list(state)) for s in sentences)]
            expected = set_id(set_id(i) for i in admitted)
            assert op.apply(set_id(set_id(i) for i in state)) == expected, (seed, state)


@pytest.mark.parametrize("seed", range(4))
def test_ael_operator_is_k_evaluated_from_its_definition_on_four_atoms(seed):
    """A random 4-atom theory (16 interpretations, so 16-bit state masks),
    checked on a seeded sample of its 65,536 belief states and on the
    empty and the full one."""
    rng = random.Random(seed)
    atoms = ["p", "q", "r", "s"]
    sentences = [_random_sentence(atoms, rng, 3, True) for _ in range(rng.randint(1, 3))]
    op = ael_operator(AelTheory.from_json({"atoms": atoms, "sentences": sentences}))
    interps = [frozenset(c) for k in range(len(atoms) + 1) for c in itertools.combinations(atoms, k)]
    states = [[], interps] + [[i for i in interps if rng.random() < 0.5] for _ in range(200)]
    for state in states:
        admitted = [i for i in interps if all(_holds(s, i, state) for s in sentences)]
        expected = set_id(set_id(i) for i in admitted)
        assert op.apply(set_id(set_id(i) for i in state)) == expected, (seed, state)


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
    with pytest.raises(EvaluationError) as exc:
        wadf_operator(w)
    assert str(exc.value) == (
        "acceptance of 'status' asks for a lub of ['accept', 'borderline'],"
        " which does not exist in the value poset"
    )


def test_first_missing_lub_is_reported_in_assignment_and_argument_order():
    """Assignments in product order, arguments in declared order: at the
    first assignment where some lub is missing, the first argument whose
    condition asks for it is named, with its distinct operands sorted
    by identifier (here not the value poset's order)."""
    w = Wadf.from_json(
        {
            "arguments": ["x", "y"],
            "values": {"elements": ["zero", "b", "a"], "hasse": [["zero", "b"], ["zero", "a"]]},
            "acceptance": {
                "x": ["glb", ["lub", ["parent", "y"], ["const", "b"]], ["const", "zero"]],
                "y": ["lub", ["parent", "y"], ["parent", "y"], ["const", "zero"], ["const", "b"]],
            },
        }
    )
    with pytest.raises(EvaluationError) as exc:
        wadf_operator(w)
    assert str(exc.value) == (
        "acceptance of 'x' asks for a lub of ['a', 'b'], which does not exist in the value poset"
    )


def test_glb_and_lub_of_the_same_operands_are_told_apart():
    """One condition asks for the glb and another for the lub of the same
    two parents, over a diamond where the two differ: each node's bound
    is its own, at every assignment."""
    diamond = {"elements": ["bot", "a", "b", "top"],
               "hasse": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]]}
    conditions = {
        "x": ["glb", ["parent", "x"], ["parent", "y"]],
        "y": ["lub", ["parent", "x"], ["parent", "y"]],
        "z": ["lub", ["glb", ["parent", "y"], ["parent", "x"]], ["parent", "z"]],
    }
    w = Wadf.from_json({"arguments": ["x", "y", "z"], "values": diamond, "acceptance": conditions})
    values = w.value_poset
    op = wadf_operator(w)
    for combo in itertools.product(values.elements, repeat=3):
        assignment = dict(zip(w.arguments, combo))
        revised = [_condition_value(conditions[a], values, assignment) for a in w.arguments]
        assert op.apply(tuple_id(combo)) == tuple_id(revised), combo


def _random_condition(args, values, rng: random.Random, depth: int = 0) -> list:
    """Every acceptance node kind: const, parent, glb, lub, table."""
    r = rng.random()
    if r < 0.15 or depth == 2:
        return ["const", rng.choice(values)] if r < 0.5 else ["parent", rng.choice(args)]
    if r < 0.3:
        return ["parent", rng.choice(args)]
    if r < 0.75:
        op = "glb" if r < 0.5 else "lub"
        return [op, *(_random_condition(args, values, rng, depth + 1) for _ in range(rng.randint(1, 3)))]
    parents = [rng.choice(args) for _ in range(rng.randint(0, 2))]
    rows = [[list(key), rng.choice(values)] for key in itertools.product(values, repeat=len(parents))]
    return ["table", parents, rows]


def _bound(values: FinitePoset, operands: set, upper: bool) -> str:
    """The least common upper bound (or greatest lower bound) of
    `operands`, by scanning the value poset's elements."""
    def leq(x, y):
        return values.leq(x, y) if upper else values.leq(y, x)
    common = [v for v in values.elements if all(leq(o, v) for o in operands)]
    (best,) = [c for c in common if all(leq(c, d) for d in common)]
    return best


def _condition_value(expr, values: FinitePoset, assignment: dict) -> str:
    op, *args = expr
    if op == "const":
        return args[0]
    if op == "parent":
        return assignment[args[0]]
    if op == "table":
        parents, rows = args
        key = [assignment[p] for p in parents]
        (out,) = [row_out for row_key, row_out in rows if row_key == key]
        return out
    operands = {_condition_value(e, values, assignment) for e in args}
    return _bound(values, operands, upper=op == "lub")


@pytest.mark.parametrize("seed", range(30))
def test_wadf_operator_evaluates_every_condition_from_its_definition(seed):
    """Every assignment of a random wADF over a lattice of values, each
    condition evaluated on identifiers with bounds found by scanning."""
    rng = random.Random(seed)
    values = with_top(random_bounded_complete_cpo(rng, max_elements=4))
    names = list(values.elements)
    args = [f"a{k}" for k in range(rng.randint(1, 3))]
    conditions = {a: _random_condition(args, names, rng) for a in args}
    w = Wadf.from_json({
        "arguments": args,
        "values": {"elements": names, "leq": [[x, y] for x in names for y in names if values.leq(x, y)]},
        "acceptance": conditions,
    })
    op = wadf_operator(w)
    for combo in itertools.product(names, repeat=len(args)):
        assignment = dict(zip(args, combo))
        revised = [_condition_value(conditions[a], values, assignment) for a in args]
        assert op.apply(tuple_id(combo)) == tuple_id(revised), (seed, combo)


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
