"""Self-tests of the benchmark's own code; run with `python3 -m pytest perfbench`.

They need no genaft: the generators and the reference answers must not
depend on the library they measure.
"""

import pytest

from inputs import GENERATORS, digest, grammar_programs, worked
from reference import (
    BeliefOrder,
    SubsetOrder,
    ValueOrder,
    ael_table,
    fixpoints,
    lp_table,
    precision_leq,
    wadf_table,
)
from run import tail_plan


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_one_seed_gives_one_digest(workload):
    generate = GENERATORS[workload]
    assert digest(generate(1)) == digest(generate(1))
    assert digest(generate(1)) != digest(generate(2))


def test_grammar_has_the_acceptance_suites_8360_programs():
    assert len(grammar_programs()) == 8360


def test_reference_reproduces_the_worked_answers():
    assert fixpoints(lp_table(worked("even_loop"))) == ["{p}", "{q}"]
    assert "{{p,q},{q}}" in fixpoints(ael_table(worked("agent_theory")))
    review = worked("review_wadf")
    assert "(accept|borderline|tendency_accept)" in fixpoints(wadf_table(review, ValueOrder(review["values"])))


def test_precision_on_intervals_and_flowers():
    subset = SubsetOrder()
    bottom = {"alb": "{}", "aub": "{p,q}"}
    assert precision_leq(subset, bottom, {"alb": "{p}", "aub": "{p}"})
    assert not precision_leq(subset, {"alb": "{p}", "aub": "{p}"}, bottom)
    flower = {"alb": "{}", "aub": ["{p}", "{q}"]}
    assert precision_leq(subset, {"alb": "{}", "aub": ["{p,q}"]}, flower)
    assert not precision_leq(subset, flower, {"alb": "{}", "aub": ["{p,q}"]})
    beliefs = BeliefOrder()
    assert beliefs.leq("{{p,q},{q}}", "{{q}}") and not beliefs.leq("{{q}}", "{{p,q},{q}}")


def test_tail_keeps_ten_samples_beyond():
    assert tail_plan(2090) == (True, 995)
    assert tail_plan(189) == (True, 900)
    assert tail_plan(16) == (False, 750)
