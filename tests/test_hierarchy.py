"""Space precision witnesses and the semantics-transfer results."""

import random

import pytest

from genaft import (
    SpacePrecisionWitness,
    build_flower_framework,
    build_interval_framework,
    check_fixpoint_preservation,
    check_precision_transfer,
    check_space_precision,
    check_ultimate_composition,
    check_warm_start,
    induce_coarse,
    induce_fine,
    interval_flower_witness,
    kripke_kleene,
    powerset_lattice,
    report_ok,
    ultimate_approximator,
    verify_transfer_theorems,
    well_founded,
)
from genaft.encoders import ael_operator, fitting_approximator, lp_exact_space, lp_operator
from genaft.errors import PreconditionError
from genaft.framework import DEFAULT_CAPS
from corpus import (
    agent_theory,
    parse_program,
    random_bounded_complete_cpo,
    random_program,
    with_top,
)


@pytest.fixture(scope="module")
def diamond_witness():
    exact = powerset_lattice(["p", "q"])
    return interval_flower_witness(exact, build_interval_framework(exact))


@pytest.fixture(scope="module")
def agent_setup():
    op = ael_operator(agent_theory())
    wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
    return op, wit


def test_witness_requires_complete_lattice(fig, fig_lattice):
    with pytest.raises(PreconditionError):
        interval_flower_witness(fig, build_interval_framework(fig))
    with pytest.raises(PreconditionError, match="share the exact space"):
        interval_flower_witness(fig, build_interval_framework(fig_lattice))


def test_collapse_values(fig_lattice):
    wit = interval_flower_witness(fig_lattice, build_interval_framework(fig_lattice))
    whole = wit.fine.approximant_from_members({"bot", "a", "b", "top"})
    hull = wit.collapse(whole)
    assert (hull.alb, hull.aub) == ("bot", "top")

    singleton = wit.fine.approximant_from_members({"a"})
    assert wit.collapse(singleton) == wit.coarse.exact_approximant("a")

    # collapsing loses the two-headed upper bound
    vee = wit.fine.approximant_from_members({"bot", "a", "b"})
    assert wit.collapse(vee) == wit.coarse.least_approximant()


@pytest.mark.parametrize("seed", range(15))
def test_collapse_is_the_most_precise_covering_interval_by_enumeration(seed):
    exact = with_top(random_bounded_complete_cpo(random.Random(seed), 7))
    wit = interval_flower_witness(exact, build_interval_framework(exact))
    intervals = wit.coarse.enumerate_approximants()
    for x in wit.fine.enumerate_approximants():
        members = wit.fine.members_mask(x)
        covering = [y for y in intervals if members & ~wit.coarse.members_mask(y) == 0]
        most = [y for y in covering if all(wit.coarse.leq_p(z, y) for z in covering)]
        assert [wit.collapse(x)] == most, x
    for y in intervals:
        assert wit.fine.members_mask(wit.embed(y)) == wit.coarse.members_mask(y)


def test_embedding_members(fig_lattice):
    wit = interval_flower_witness(fig_lattice, build_interval_framework(fig_lattice))
    x = wit.coarse.recompose("bot", "a")
    assert wit.fine.members(wit.embed(x)) == wit.coarse.members(x)


def test_space_precision_on_diamond(diamond_witness):
    report = check_space_precision(diamond_witness, DEFAULT_CAPS, random.Random(0))
    assert report_ok(report)
    assert all(r.status == "pass" for r in report)


def test_identity_witness_passes(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    wit = SpacePrecisionWitness(fw, fw, lambda x: x, lambda x: x)
    assert report_ok(check_space_precision(wit, DEFAULT_CAPS, random.Random(0)))


def test_constant_collapse_fails_with_witness(diamond_witness):
    broken = SpacePrecisionWitness(
        diamond_witness.coarse,
        diamond_witness.fine,
        collapse=lambda x2: diamond_witness.coarse.least_approximant(),
        embed=diamond_witness.embed,
    )
    report = check_space_precision(broken, DEFAULT_CAPS, random.Random(0))
    failing = [r for r in report if not r.ok]
    assert failing and all(r.counterexample for r in failing)


def test_induced_approximators_round_trip(diamond_witness):
    program = parse_program(["p :- not q", "q :- p"])
    op = lp_operator(program, lp_exact_space(program))
    wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
    fit = fitting_approximator(program, wit.coarse)
    back = induce_coarse(induce_fine(fit, wit), wit)
    for x in wit.coarse.enumerate_approximants():
        assert back.apply(x) == fit.apply(x)


def test_collapsed_flower_ultimate_is_interval_ultimate():
    program = parse_program(["p :- not q", "q :- not p", "r :- p"])
    op = lp_operator(program, lp_exact_space(program))
    wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
    assert check_ultimate_composition(wit, op, rng=random.Random(0)).status == "pass"


def test_induced_fine_interval_ultimate_below_flower_ultimate():
    program = parse_program(["p :- not q", "q :- not p"])
    op = lp_operator(program, lp_exact_space(program))
    wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
    lifted = induce_fine(ultimate_approximator(wit.coarse, op), wit)
    flower_ultimate = ultimate_approximator(wit.fine, op)
    for x2 in wit.fine.enumerate_approximants():
        assert wit.fine.leq_p(lifted.apply(x2), flower_ultimate.apply(x2))


def test_transfer_theorems_on_random_programs():
    rng = random.Random(23)
    for _ in range(8):
        program = random_program(("p", "q"), rng)
        op = lp_operator(program, lp_exact_space(program))
        wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
        fit = fitting_approximator(program, wit.coarse)
        flower_ultimate = ultimate_approximator(wit.fine, op)
        report = verify_transfer_theorems(wit, a1=fit, a2=flower_ultimate, rng=random.Random(0))
        assert report_ok(report), [r for r in report if not r.ok]


def test_agent_strict_precision_gap(agent_setup):
    op, wit = agent_setup
    interval_ultimate = ultimate_approximator(wit.coarse, op)
    flower_ultimate = ultimate_approximator(wit.fine, op)
    wf_coarse = well_founded(interval_ultimate, kripke_kleene(interval_ultimate))
    wf_fine = well_founded(flower_ultimate, kripke_kleene(flower_ultimate))
    assert wf_coarse == wit.coarse.least_approximant()
    embedded = wit.embed(wf_coarse)
    assert wit.fine.leq_p(embedded, wf_fine)
    assert embedded != wf_fine
    report = check_precision_transfer(wit, flower_ultimate)
    assert report_ok(report)


def test_agent_fixpoint_preservation(agent_setup):
    op, wit = agent_setup
    interval_ultimate = ultimate_approximator(wit.coarse, op)
    report = check_fixpoint_preservation(wit, interval_ultimate, DEFAULT_CAPS, random.Random(0))
    assert report_ok(report)


def test_warm_start_on_agent(agent_setup):
    op, wit = agent_setup
    interval_ultimate = ultimate_approximator(wit.coarse, op)
    flower_ultimate = ultimate_approximator(wit.fine, op)
    report = check_warm_start(wit, interval_ultimate, flower_ultimate, DEFAULT_CAPS,
                              random.Random(0))
    assert report_ok(report), [r for r in report if not r.ok]


def test_warm_start_premise_detects_violations(diamond_witness):
    program = parse_program(["p :- not q"])
    op = lp_operator(program, lp_exact_space(program))
    wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
    fit = fitting_approximator(program, wit.coarse)
    # a2 less precise than induced a1: premise must fail
    def blur(x2):
        return wit.fine.least_approximant()

    from genaft import Approximator

    blurred = Approximator(wit.fine, blur, op)
    report = check_warm_start(wit, fit, blurred, DEFAULT_CAPS, random.Random(0))
    assert any(not r.ok for r in report)


def test_collapse_rejects_foreign_approximants(diamond_witness, fig_lattice):
    other = build_flower_framework(fig_lattice)
    foreign = other.least_approximant()
    with pytest.raises(PreconditionError):
        diamond_witness.collapse(foreign)
