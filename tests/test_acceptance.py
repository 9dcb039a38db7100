"""The acceptance gate: worked-example reproduction and property sweeps.

Each criterion prints one pass/fail line (collected into the terminal
summary) and enforces its runtime budget.  Expected values are frozen
from independent derivations: hand enumeration for the belief-state
instance, reduct enumeration and the alternating fixpoint for logic
programs, subset enumeration for the order-theoretic facts.
"""

import random
import time
from contextlib import contextmanager

from genaft import (
    build_flower_framework,
    build_interval_framework,
    check_composition_poset,
    check_framework,
    check_ultimate_composition,
    interval_flower_witness,
    is_terminal_wf,
    kripke_kleene,
    powerset_lattice,
    random_wf_strategy,
    report_ok,
    run_wf_induction,
    set_id,
    stable_fixpoints,
    supported_fixpoints,
    ultimate_approximator,
    verify_transfer_theorems,
    well_founded,
)
from genaft.encoders import (
    ael_operator,
    fitting_approximator,
    lp_operator,
    lp_oracle,
    wadf_operator,
)
from genaft.errors import PreconditionError
from genaft.flowers import enumerate_flowers
from genaft.framework import DEFAULT_CAPS

import conftest
from corpus import (
    NoSideCondition,
    SwappedRecompose,
    agent_theory,
    flower_propositions,
    grammar_programs,
    random_bounded_complete_cpo,
    random_program,
    review_wadf,
    vee_poset,
)

SEED = 0


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    passed = False
    try:
        yield
        passed = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if passed and elapsed < limit_s else "FAIL"
        line = (
            f"criterion {number} ({description}): {status} "
            f"in {elapsed:.1f}s (limit {limit_s:.0f}s)"
        )
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
    assert elapsed < limit_s, f"criterion {number} over budget: {elapsed:.1f}s"


def _agent_operator():
    return ael_operator(agent_theory())


INTENDED_STATE = set_id([set_id(["p", "q"]), set_id(["q"])])  # q true, r false


def test_criterion_1_agent_interval_derives_nothing():
    with criterion(1, "belief-state instance, intervals stay uninformative", 10):
        op = _agent_operator()
        assert len(op.domain) == 256
        fw = build_interval_framework(op.domain)
        ultimate = ultimate_approximator(fw, op)
        least = fw.least_approximant()
        assert kripke_kleene(ultimate) == least
        assert well_founded(ultimate, kripke_kleene(ultimate)) == least


def test_criterion_2_agent_flowers_find_the_model():
    with criterion(2, "belief-state instance, flowers find the model", 60):
        op = _agent_operator()
        fw = build_flower_framework(op.domain)
        ultimate = ultimate_approximator(fw, op)
        wf = well_founded(ultimate, kripke_kleene(ultimate))
        assert fw.is_exact(wf)
        assert fw.exact_value(wf) == INTENDED_STATE
        assert fw.members(wf) == frozenset({INTENDED_STATE})


def test_criterion_3_review_wadf():
    with criterion(3, "review wADF: tendency accept; intervals rejected", 1):
        w = review_wadf()
        op = wadf_operator(w)
        try:
            build_interval_framework(op.domain)
            raise AssertionError("interval framework must reject the value poset")
        except PreconditionError as exc:
            assert "greatest element" in str(exc)
        fw = build_flower_framework(op.domain)
        kk = kripke_kleene(ultimate_approximator(fw, op))
        assert fw.is_exact(kk)
        assert fw.exact_value(kk) == "(accept|borderline|tendency_accept)"


def test_criterion_4_vee_flower_inventory():
    with criterion(4, "three-element cpo: flowers, spaces, composition", 1):
        fig = vee_poset()
        fw = build_flower_framework(fig)
        flowers = {fw.members(x) for x in enumerate_flowers(fw)}
        assert flowers == {
            frozenset({"bot"}),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"bot", "a"}),
            frozenset({"bot", "b"}),
            frozenset({"bot", "a", "b"}),
        }
        assert list(fw.albs()) == ["bot", "a", "b"]
        assert set(fw.enumerate_aubs()) == {("bot",), ("a",), ("b",), ("a", "b")}
        x = fw.recompose("a", ("a", "b"))
        assert fw.members(x) == {"a"}
        assert fw.bound_leq("L", "bot", "L", "a")
        assert fw.bound_leq("L", "a", "U", ("a",))
        assert fw.bound_leq("U", ("a",), "U", ("a", "b"))


def test_criterion_5_axiom_suite():
    with criterion(5, "axiom suite: exhaustive checks plus mutants", 120):
        fig = vee_poset()
        report = check_framework(build_flower_framework(fig))
        assert all(r.status == "pass" for r in report)

        rng = random.Random(SEED)
        core = {
            "composition.1_defined_when_compatible",
            "composition.2_recompose_tightens_bounds",
            "composition.3_monotone_in_alb",
            "composition.4_antitone_in_aub",
            "composition.5_decompose_recompose_identity",
            "chain_interlattice_lub",
            "weak_interlattice_lub",
            "abstract_interlattice_lub",
            "interlattice_glb",
        }
        for _ in range(200):
            poset = random_bounded_complete_cpo(rng, max_elements=7)
            fw = build_flower_framework(poset)
            results = check_composition_poset(fw, DEFAULT_CAPS, rng)
            results += flower_propositions(fw, rng)
            assert report_ok(results), [r for r in results if not r.ok]
            for r in results:
                if r.axiom in core:
                    assert r.status == "pass", (r.axiom, len(poset))

        for mutant in (SwappedRecompose(fig, enumerable=True), NoSideCondition(fig, enumerable=True)):
            report = check_framework(mutant)
            failing = [r for r in report if not r.ok]
            assert failing
            assert all(r.counterexample for r in failing)


def _corpus():
    programs = list(grammar_programs())
    rng = random.Random(SEED)
    randoms = [random_program(("a", "b", "c", "d", "e"), rng) for _ in range(500)]
    return programs, randoms


def _shared_interval_spaces(programs):
    spaces = {}
    for p in programs:
        if p.atoms not in spaces:
            exact = powerset_lattice(p.atoms, "subset")
            spaces[p.atoms] = (exact, build_interval_framework(exact))
    return spaces


def test_criterion_6_oracle_equivalence():
    with criterion(6, "oracle equivalence over the program corpus", 300):
        programs, randoms = _corpus()
        spaces = _shared_interval_spaces(programs + randoms)
        checked = 0
        for p in programs + randoms:
            exact, fw = spaces[p.atoms]
            fit = fitting_approximator(p, fw)
            oracle = lp_oracle(p)
            wf = well_founded(fit, kripke_kleene(fit))
            sup = supported_fixpoints(fit)
            stable = stable_fixpoints(fit, wf, sup)
            assert stable == sorted(set_id(s) for s in oracle.answer_sets), p
            assert wf.alb == set_id(oracle.wf_true), p
            assert wf.aub == set_id(oracle.wf_possible), p
            assert sup == sorted(set_id(s) for s in oracle.supported), p
            checked += 1
        assert checked >= 8860


def test_criterion_7_precision_transfer():
    with criterion(7, "precision transfers and space-change theorems", 300):
        programs, randoms = _corpus()
        spaces = _shared_interval_spaces(programs + randoms)
        witnesses = {
            atoms: interval_flower_witness(exact, coarse=fw)
            for atoms, (exact, fw) in spaces.items()
        }
        rng = random.Random(SEED)
        for p in programs + randoms:
            exact, fw = spaces[p.atoms]
            op = lp_operator(p, exact)
            fit = fitting_approximator(p, fw)
            ult = ultimate_approximator(fw, op)
            kk_fit, kk_ult = kripke_kleene(fit), kripke_kleene(ult)
            wf_fit, wf_ult = well_founded(fit, kk_fit), well_founded(ult, kk_ult)
            assert fw.leq_p(kk_fit, kk_ult), p
            assert fw.leq_p(wf_fit, wf_ult), p
            sup_fit, sup_ult = supported_fixpoints(fit), supported_fixpoints(ult)
            assert set(sup_fit) <= set(sup_ult), p
            stable_fit = stable_fixpoints(fit, wf_fit, sup_fit)
            assert set(stable_fit) <= set(stable_fixpoints(ult, wf_ult, sup_ult)), p

        # the space-change theorems, exhaustively on the three-atom corpus
        for p in [q for q in programs if len(q.atoms) == 3]:
            exact, fw = spaces[p.atoms]
            wit = witnesses[p.atoms]
            op = lp_operator(p, exact)
            fit = fitting_approximator(p, fw)
            flower_ultimate = ultimate_approximator(wit.fine, op)
            assert check_ultimate_composition(wit, op, rng=rng).ok, p
            report = verify_transfer_theorems(wit, a1=fit, a2=flower_ultimate, rng=rng)
            assert report_ok(report), (p, [r for r in report if not r.ok])

        # and on the belief-state instance
        op = _agent_operator()
        wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
        interval_ultimate = ultimate_approximator(wit.coarse, op)
        flower_ultimate = ultimate_approximator(wit.fine, op)
        assert check_ultimate_composition(wit, op, rng=rng).ok
        report = verify_transfer_theorems(wit, a1=interval_ultimate, a2=flower_ultimate, rng=rng)
        assert report_ok(report)
        embedded = wit.embed(well_founded(interval_ultimate, kripke_kleene(interval_ultimate)))
        wf_fine = well_founded(flower_ultimate, kripke_kleene(flower_ultimate))
        assert wit.fine.leq_p(embedded, wf_fine) and embedded != wf_fine


def test_criterion_8_confluence():
    with criterion(8, "terminal well-founded inductions converge", 300):
        op = _agent_operator()
        fw = build_flower_framework(op.domain)
        ultimate = ultimate_approximator(fw, op)
        wf = well_founded(ultimate, kripke_kleene(ultimate))
        for seed in range(50):
            trace = run_wf_induction(ultimate, random_wf_strategy(random.Random(seed)))
            assert is_terminal_wf(ultimate, trace[-1])
            assert trace[-1] == wf, seed

        rng = random.Random(SEED + 1)
        for i in range(20):
            p = random_program(("p", "q", "r"), rng)
            exact = powerset_lattice(p.atoms, "subset")
            ifw = build_interval_framework(exact)
            fit = fitting_approximator(p, ifw)
            wf_p = well_founded(fit, kripke_kleene(fit))
            for seed in range(50):
                trace = run_wf_induction(fit, random_wf_strategy(random.Random(seed)))
                assert is_terminal_wf(fit, trace[-1])
                assert trace[-1] == wf_p, (p, seed)
