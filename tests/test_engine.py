"""Approximators, stable revision, the four semantics, refinements."""

import json
import random

import pytest

from genaft import engine
from genaft import (
    Approximator,
    ExactOperator,
    FinitePoset,
    application_refinements,
    approximation_violation,
    build_flower_framework,
    build_interval_framework,
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
    set_id,
    stable_fixpoints,
    stable_revision,
    supported_fixpoints,
    ultimate_approximator,
    well_founded,
)
from genaft.errors import (
    InputError,
    InvalidRefinementError,
    MonotonicityError,
    PreconditionError,
    ReliabilityError,
)
from genaft.framework import DEFAULT_CAPS
from genaft.encoders import (
    AelTheory,
    NormalLogicProgram,
    ael_operator,
    fitting_approximator,
    lp_exact_space,
    lp_operator,
    lp_oracle,
)
from corpus import agent_theory, image, parse_program, random_program


@pytest.fixture(scope="module")
def agent():
    """Operator and both ultimate approximators of the agent theory."""
    op = ael_operator(agent_theory())
    ifw = build_interval_framework(op.domain)
    ffw = build_flower_framework(op.domain)
    return op, ifw, ultimate_approximator(ifw, op), ffw, ultimate_approximator(ffw, op)


def _interval_setup(program):
    op = lp_operator(program, lp_exact_space(program))
    fw = build_interval_framework(op.domain)
    return op, fw, fitting_approximator(program, fw), ultimate_approximator(fw, op)


# -- ultimate approximator ----------------------------------------------------


def test_constant_operator_ultimate_is_exact(fig_lattice):
    for space in (build_interval_framework, build_flower_framework):
        fw = space(fig_lattice)
        op = ExactOperator(fig_lattice, [fig_lattice.index("a")] * len(fig_lattice))
        ua = ultimate_approximator(fw, op)
        for x in fw.enumerate_approximants():
            assert ua.apply(x) == fw.exact_approximant("a")
        assert supported_fixpoints(ua) == ["a"]
        assert stable_fixpoints(ua, well_founded(ua, kripke_kleene(ua)), ["a"]) == ["a"]


def test_exact_operator_rejects_bad_tables(fig_lattice):
    for table in ([0, 1, 2], [0, 1, 2, 4], [0, -1, 2, 3], [0, 1, 2, "3"], [0, 1, 2, 3.0]):
        with pytest.raises(InputError, match="needs a table of 4 indices below 4"):
            ExactOperator(fig_lattice, table)


def test_agent_interval_ultimate_kk_wf_are_least(agent):
    op, ifw, ia, _, _ = agent
    least = ifw.least_approximant()
    assert kripke_kleene(ia) == least
    assert well_founded(ia, kripke_kleene(ia)) == least


def test_ultimate_kk_of_tautological_loop():
    program = parse_program(["p :- p", "p :- not p"])
    op, fw, fit, ult = _interval_setup(program)
    assert image(op, "{}") == "{p}" and image(op, "{p}") == "{p}"
    assert kripke_kleene(ult) == fw.exact_approximant("{p}")
    kk_fit = kripke_kleene(fit)
    assert (kk_fit.alb, kk_fit.aub) == ("{}", "{p}")


def test_approximates_operator(agent):
    op, ifw, ia, ffw, fa = agent
    assert approximation_violation(ia, op, DEFAULT_CAPS, random.Random(0)) is None
    assert approximation_violation(fa, op, DEFAULT_CAPS, random.Random(0)) is None


def test_fitting_approximates_the_consequence_operator():
    program = parse_program(["p :- not q", "q :- not p", "r :- p, q"])
    op, fw, fit, _ = _interval_setup(program)
    assert approximation_violation(fit, op, DEFAULT_CAPS, random.Random(0)) is None


def test_corrupted_map_fails_with_witness(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    op = ExactOperator(fig_lattice, list(range(len(fig_lattice))))

    def broken(x):
        return fw.exact_approximant("top")

    bad = Approximator(fw, broken, op)
    witness = approximation_violation(bad, op, DEFAULT_CAPS, random.Random(0))
    assert witness is not None
    x, y = witness
    assert y in fw.members(x)
    assert image(op, y) not in fw.members(bad.apply(x))


# -- stable revision ----------------------------------------------------------


def test_even_loop_stable_revision_fixes_least():
    program = parse_program(["p :- not q", "q :- not p"])
    _, fw, fit, _ = _interval_setup(program)
    least = fw.least_approximant()
    assert stable_revision(fit, least) == least


def test_stable_revision_requires_reliability():
    program = parse_program(["p :- not p"])
    _, fw, fit, _ = _interval_setup(program)
    exact_p = fw.exact_approximant("{p}")
    assert not is_reliable(fit, exact_p)
    with pytest.raises(ReliabilityError):
        stable_revision(fit, exact_p)


def test_well_founded_rejects_a_decreasing_stable_revision():
    """On the chain 0 < 1 < 2, stable revision takes the least approximant
    [0,2], and KK [1,2] too, to the reliable [1,1] and then back down to
    [0,1], since the approximator sends [0,2] above [0,1]'s image: not
    precision-monotone."""
    chain = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    fw = build_interval_framework(chain)
    images = {("0", "2"): ("1", "2"), ("1", "2"): ("1", "2"), ("0", "0"): ("0", "1"),
              ("0", "1"): ("0", "1"), ("1", "1"): ("1", "1"), ("2", "2"): ("2", "2")}
    bad = Approximator(fw, lambda x: fw.recompose(*images[x.alb, x.aub]),
                       ExactOperator(chain, [0, 1, 2]))
    assert stable_revision(bad, fw.least_approximant()) == fw.exact_approximant("1")
    kk = kripke_kleene(bad)
    assert stable_revision(bad, kk) == fw.exact_approximant("1")
    with pytest.raises(MonotonicityError):
        well_founded(bad, kk)


def test_agent_flower_stable_revision_refines_the_aub(agent):
    op, _, _, ffw, fa = agent
    least = ffw.least_approximant()
    revised = stable_revision(fa, least)
    # hand enumeration: the ALB stays at no-knowledge, the AUB tightens
    # to the two belief states fixing q true (r known either way)
    qr = set_id([set_id(["p", "q", "r"]), set_id(["q", "r"])])
    q_only = set_id([set_id(["p", "q"]), set_id(["q"])])
    assert revised.alb == least.alb
    assert revised.aub == tuple(sorted((qr, q_only)))
    assert ffw.leq_p(least, revised) and revised != least


def test_exact_reliable_iff_supported():
    program = parse_program(["p :- p"])
    _, fw, fit, _ = _interval_setup(program)
    for y in fw.exact.elements:
        e = fw.exact_approximant(y)
        assert is_reliable(fit, e) == (fit.apply(e) == e)


def test_every_induction_is_one_lfp_call_on_a_rebuildable_operator(monkeypatch, data_dir):
    """KK and WF are one `lfp` call each, and each stable revision two,
    its lower and its upper induction.  An operator rebuilt as
    `type(op)(op.domain, g)`, as the benchmark's step counter rebuilds
    it, keeps its order and still runs."""
    program = NormalLogicProgram.from_json(json.loads((data_dir / "even_loop.json").read_text()))
    _, fw, fit, ult = _interval_setup(program)
    lfp, revise = engine.lfp, engine.stable_revision
    calls, revisions = [], []

    def counted_lfp(op, **kwargs):
        calls.append(op)
        return lfp(type(op)(op.domain, op.apply), **kwargs)

    def counted_revision(a, x):
        revisions.append(x)
        return revise(a, x)

    monkeypatch.setattr(engine, "lfp", counted_lfp)
    monkeypatch.setattr(engine, "stable_revision", counted_revision)
    for a in (fit, ult):
        calls.clear()
        revisions.clear()
        result = compute_semantics(a)
        assert revisions and len(calls) == 2 + 2 * len(revisions)
        assert result.wf == fw.least_approximant()
        assert result.stable == ["{p}", "{q}"]


def test_the_step_cap_bounds_the_inner_inductions(monkeypatch):
    """A fact's lower and upper inductions each rise once, from {} to
    {p}, so they need two iterations: one step is not enough."""
    _, fw, fit, _ = _interval_setup(parse_program(["p"]))
    least = fw.least_approximant()
    assert engine.lower_stable_bound(fit, least) == engine.upper_stable_bound(fit, least) == "{p}"
    monkeypatch.setattr(engine, "_step_cap", lambda fw: 1)
    for bound in (engine.lower_stable_bound, engine.upper_stable_bound):
        with pytest.raises(MonotonicityError, match="no fixpoint within 1 steps"):
            bound(fit, least)


# -- reliability and prudence ---------------------------------------------------


def test_least_approximant_reliable_and_prudent(agent):
    op, ifw, ia, ffw, fa = agent
    for fw, a in ((ifw, ia), (ffw, fa)):
        least = fw.least_approximant()
        assert is_reliable(a, least)
        assert is_prudent(a, least)


def test_kk_is_reliable_and_prudent():
    program = parse_program(["p :- not q", "q :- q"])
    _, fw, fit, ult = _interval_setup(program)
    for a in (fit, ult):
        kk = kripke_kleene(a)
        assert is_reliable(a, kk)
        assert is_prudent(a, kk)


def test_any_fixpoint_is_reliable():
    program = parse_program(["p :- not q", "q :- not p"])
    _, fw, fit, _ = _interval_setup(program)
    for x in fw.enumerate_approximants():
        if fit.apply(x) == x:
            assert is_reliable(fit, x)


# -- the four semantics ----------------------------------------------------------


def test_single_fact_program():
    program = parse_program(["p"])
    _, fw, fit, ult = _interval_setup(program)
    exact_p = fw.exact_approximant("{p}")
    assert kripke_kleene(fit) == exact_p
    assert kripke_kleene(ult) == exact_p
    assert supported_fixpoints(fit) == ["{p}"]
    assert stable_fixpoints(fit, well_founded(fit, kripke_kleene(fit)), ["{p}"]) == ["{p}"]


def test_positive_loop_semantics():
    program = parse_program(["p :- p"])
    _, fw, fit, _ = _interval_setup(program)
    assert supported_fixpoints(fit) == ["{p}", "{}"]
    assert stable_fixpoints(fit, well_founded(fit, kripke_kleene(fit)), ["{p}", "{}"]) == ["{}"]


def test_even_loop_semantics_and_oracle():
    program = parse_program(["p :- not q", "q :- not p"])
    _, fw, fit, _ = _interval_setup(program)
    oracle = lp_oracle(program)
    wf = well_founded(fit, kripke_kleene(fit))
    sup = supported_fixpoints(fit)
    assert {set_id(s) for s in oracle.answer_sets} == set(stable_fixpoints(fit, wf, sup))
    assert sup == stable_fixpoints(fit, wf, sup)
    assert wf == fw.least_approximant()
    assert set_id(oracle.wf_true) == wf.alb
    assert set_id(oracle.wf_possible) == wf.aub


def test_odd_loop_well_founded():
    program = parse_program(["p :- not p"])
    _, fw, fit, _ = _interval_setup(program)
    wf = well_founded(fit, kripke_kleene(fit))
    assert (wf.alb, wf.aub) == ("{}", "{p}")
    assert stable_fixpoints(fit, wf, supported_fixpoints(fit)) == []
    oracle = lp_oracle(program)
    assert oracle.answer_sets == ()


def test_agent_flower_well_founded_is_the_intended_state(agent):
    op, _, _, ffw, fa = agent
    kk = kripke_kleene(fa)
    wf = well_founded(fa, kk)
    intended = set_id([set_id(["p", "q"]), set_id(["q"])])  # q true, r false
    assert ffw.is_exact(wf)
    assert ffw.exact_value(wf) == intended
    assert kk == wf
    assert image(op, intended) == intended


def test_compute_semantics_bundle():
    program = parse_program(["p :- not q"])
    _, fw, fit, _ = _interval_setup(program)
    result = compute_semantics(fit)
    assert result.kk == fw.exact_approximant("{p}")
    assert result.wf == result.kk
    assert result.supported == ["{p}"] and result.stable == ["{p}"]
    payload = result.to_json(fw)
    assert payload["kk"]["members"] == ["{p}"]
    with pytest.raises(PreconditionError):
        compute_semantics(fit, ["nonsense"])


def test_kk_below_wf_and_stable_subset_supported():
    rng = random.Random(11)
    for _ in range(25):
        program = random_program(("p", "q", "r"), rng)
        _, fw, fit, ult = _interval_setup(program)
        for a in (fit, ult):
            kk = kripke_kleene(a)
            wf = well_founded(a, kk)
            assert fw.leq_p(kk, wf)
            sup = supported_fixpoints(a)
            assert set(stable_fixpoints(a, wf, sup)) <= set(sup)


def test_fitting_below_ultimate_pointwise():
    rng = random.Random(5)
    for _ in range(10):
        program = random_program(("p", "q"), rng)
        _, fw, fit, ult = _interval_setup(program)
        for x in fw.enumerate_approximants():
            assert fw.leq_p(fit.apply(x), ult.apply(x))


def test_reliable_prudent_closed_under_revision():
    program = parse_program(["p :- not q", "q :- r", "r :- p"])
    _, fw, fit, _ = _interval_setup(program)
    for x in fw.enumerate_approximants():
        if is_reliable(fit, x) and is_prudent(fit, x):
            y = stable_revision(fit, x)
            assert fw.leq_p(x, y)
            assert is_reliable(fit, y) and is_prudent(fit, y)


# -- shared frameworks --------------------------------------------------------------


def _answers(*approximators):
    """Each approximator's four semantics, as `solve` prints them, with
    the supported and stable lists."""
    out = []
    for a in approximators:
        r = compute_semantics(a)
        out.append((r.to_json(a.space), r.supported, r.stable))
    return out


def test_a_shared_interval_framework_changes_no_answer():
    """Programs over one atom set run on one framework, as a corpus sweep
    runs them, and answer as each does on a fresh framework."""
    rng = random.Random(21)
    programs = [parse_program(["p :- not q", "q :- not p"]), parse_program(["p :- not p"])]
    programs += [random_program(tuple("pqrst"[:n]), rng) for n in range(1, 6) for _ in range(8)]
    shared = {}

    def answers(program, fw):
        op = lp_operator(program, fw.exact)
        return _answers(fitting_approximator(program, fw), ultimate_approximator(fw, op))

    for program in programs:
        exact = lp_exact_space(program)
        if program.atoms not in shared:
            shared[program.atoms] = build_interval_framework(exact)
        fresh = build_interval_framework(exact)
        assert answers(program, shared[program.atoms]) == answers(program, fresh), program


def test_a_shared_flower_framework_changes_no_answer():
    """Three theories over the agent's atoms on one flower framework."""
    theories = [agent_theory()] + [
        AelTheory.from_json({"atoms": ["p", "q", "r"], "sentences": sentences}) for sentences in (
            [["iff", ["atom", "p"], ["K", ["atom", "q"]]], ["iff", ["atom", "q"], ["K", ["atom", "p"]]]],
            [["iff", ["atom", "p"], ["not", ["K", ["atom", "p"]]]], ["or", ["atom", "q"], ["atom", "r"]]],
        )
    ]
    ops = [ael_operator(t) for t in theories]
    shared = build_flower_framework(ops[0].domain)
    for op in ops:
        fresh = build_flower_framework(op.domain)
        assert _answers(ultimate_approximator(shared, op)) == _answers(ultimate_approximator(fresh, op))


# -- refinements ------------------------------------------------------------------


def test_image_is_application_refinement():
    program = parse_program(["p :- not q"])
    _, fw, fit, _ = _interval_setup(program)
    least = fw.least_approximant()
    assert is_application_refinement(fit, least, fit.apply(least))


def test_incomparable_is_no_refinement():
    program = parse_program(["p :- not q", "q :- not p"])
    _, fw, fit, _ = _interval_setup(program)
    x = fw.recompose("{p}", "{p}")
    y = fw.recompose("{q}", "{q}")
    assert not is_application_refinement(fit, x, y)
    assert not is_grounding_refinement(fit, x, y)


def test_agent_grounding_step_not_knowing_p(agent):
    op, _, _, ffw, fa = agent
    least = ffw.least_approximant()
    interps = [set_id(s) for s in ([], ["q"], ["r"], ["q", "r"])]
    unaware_of_p = tuple(sorted(set_id([i]) for i in interps))
    refined = ffw.recompose(least.alb, unaware_of_p)
    assert is_grounding_refinement(fa, least, refined)
    assert refined != least and ffw.leq_p(least, refined)


def test_grounding_candidates_are_grounding_refinements(agent):
    op, _, _, ffw, fa = agent
    least = ffw.least_approximant()
    for y in grounding_refinements(fa, least):
        assert is_grounding_refinement(fa, least, y)
        assert ffw.leq_p(least, y) and y != least


# -- well-founded inductions --------------------------------------------------------


def test_random_strategies_converge(agent):
    op, _, _, ffw, fa = agent
    wf = well_founded(fa, kripke_kleene(fa))
    for seed in range(6):
        trace = run_wf_induction(fa, random_wf_strategy(random.Random(seed)))
        assert trace[-1] == wf


def test_wf_is_terminal_and_a_random_induction_ends_there():
    program = parse_program(["p"])
    _, fw, fit, _ = _interval_setup(program)
    wf = well_founded(fit, kripke_kleene(fit))
    assert is_terminal_wf(fit, wf)
    assert run_wf_induction(fit, random_wf_strategy(random.Random(0)))[-1] == wf


def test_terminal_iff_no_refinements(agent):
    op, _, _, ffw, fa = agent
    wf = well_founded(fa, kripke_kleene(fa))
    assert is_terminal_wf(fa, wf)
    assert not application_refinements(fa, wf)
    assert not grounding_refinements(fa, wf)
    assert not is_terminal_wf(fa, ffw.least_approximant())


def test_bad_strategy_raises(agent):
    op, _, _, ffw, fa = agent

    def rogue(step, x, apps, grounds):
        return ffw.exact_approximant(ffw.exact.elements[0])

    with pytest.raises(InvalidRefinementError):
        run_wf_induction(fa, rogue)


def test_stalling_strategy_hits_the_stated_bound():
    program = parse_program(["p :- not q"])
    _, fw, fit, _ = _interval_setup(program)
    bound = 2 * len(fw.exact)
    message = rf"within {bound} steps \(the bound 2\*\|exact\| is {bound}\)"
    with pytest.raises(MonotonicityError, match=message):
        run_wf_induction(fit, lambda step, x, apps, grounds: x)


def test_every_induction_step_is_a_refinement(agent):
    op, _, _, ffw, fa = agent
    trace = run_wf_induction(fa, random_wf_strategy(random.Random(3)))
    for x, y in zip(trace, trace[1:]):
        assert is_application_refinement(fa, x, y) or is_grounding_refinement(fa, x, y)
        assert ffw.leq_p(x, y)
