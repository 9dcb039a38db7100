"""Framework axioms, the approximates-relation, and approximant lubs."""

import functools
import itertools
import json
import random

import pytest

from genaft import (
    Approximant,
    Caps,
    ExactOperator,
    FinitePoset,
    build_flower_framework,
    build_interval_framework,
    check_abstract_ilp,
    check_approximates_relation,
    check_chain_ilp,
    check_composition_poset,
    check_framework,
    check_glb_property,
    check_preamble,
    check_weak_ilp,
    compute_semantics,
    powerset_lattice,
    report_ok,
    report_to_json,
    ultimate_approximator,
)
from genaft import framework
from genaft.errors import PreconditionError, RecomposeUndefinedError
from genaft.flowers import FlowerFramework
from genaft.framework import DEFAULT_CAPS, MAX_SUBSET_POOL, ApproximationFramework, CheckResult
from genaft.intervals import IntervalFramework
from corpus import (
    WrongElevenMeet,
    claw_poset,
    random_bounded_complete_cpo,
    twelve_pool_poset,
    vee_poset,
    with_top,
)


def test_interval_two_chain_composition_poset():
    two = FinitePoset(["0", "1"], [("0", "1")])
    report = check_composition_poset(build_interval_framework(two), DEFAULT_CAPS, random.Random(0))
    assert report_ok(report)
    assert {r.axiom for r in report} == {
        "composition.1_defined_when_compatible",
        "composition.2_recompose_tightens_bounds",
        "composition.3_monotone_in_alb",
        "composition.4_antitone_in_aub",
        "composition.5_decompose_recompose_identity",
    }


def test_flower_vee_composition_poset(fig):
    report = check_composition_poset(build_flower_framework(fig), DEFAULT_CAPS, random.Random(0))
    assert report_ok(report)
    assert all(r.status == "pass" for r in report)


@pytest.mark.parametrize("atoms", [["p"], ["p", "q"], ["p", "q", "r"]])
def test_interval_lattices_satisfy_the_four_properties(atoms):
    fw = build_interval_framework(powerset_lattice(atoms))
    for check in (check_chain_ilp, check_weak_ilp, check_abstract_ilp, check_glb_property):
        assert check(fw, DEFAULT_CAPS, random.Random(0)).ok


def test_sixteen_element_lattice_all_axioms():
    fw = build_interval_framework(powerset_lattice(["a", "b", "c", "d"]))
    report = check_framework(fw)
    assert report_ok(report)


def test_preamble_on_both_spaces(fig, fig_lattice):
    assert report_ok(check_preamble(build_flower_framework(fig), DEFAULT_CAPS, random.Random(0)))
    assert report_ok(check_preamble(build_interval_framework(fig_lattice), DEFAULT_CAPS,
                                    random.Random(0)))


def test_approximates_relation_interval(fig_lattice):
    report = check_approximates_relation(build_interval_framework(fig_lattice), DEFAULT_CAPS,
                                         random.Random(0))
    assert report_ok(report)


def test_approximates_relation_flower(fig):
    report = check_approximates_relation(build_flower_framework(fig), DEFAULT_CAPS,
                                         random.Random(0))
    assert report_ok(report)


class _ApproximatesNothing(FlowerFramework):
    """Mutant: the approximates-relation is empty."""

    def members_mask(self, x):
        return 0


def test_empty_relation_fails_exactness_bullet(fig):
    mutant = _ApproximatesNothing(fig, enumerable=True)
    report = check_approximates_relation(mutant, DEFAULT_CAPS, random.Random(0))
    failing = {r.axiom for r in report if not r.ok}
    assert "approximates.4_exact_iff_unique" in failing


def test_is_exact_examples(fig, fig_lattice):
    ffw = build_flower_framework(fig)
    assert ffw.is_exact(ffw.approximant_from_members({"a"}))
    assert not ffw.is_exact(ffw.approximant_from_members({"bot", "a", "b"}))
    ifw = build_interval_framework(fig_lattice)
    assert ifw.is_exact(ifw.recompose("a", "a"))
    assert not ifw.is_exact(ifw.least_approximant())


def test_lub_of_nested_flowers(fig):
    fw = build_flower_framework(fig)
    x = fw.approximant_from_members({"bot", "a", "b"})
    y = fw.approximant_from_members({"bot", "a"})
    lub = fw.lub_p([x, y])
    assert fw.members(lub) == {"bot", "a"}


def test_lub_with_shared_aub_joins_albs(fig):
    fw = build_flower_framework(fig)
    # both flowers have the AUB {a}; their lub joins the ALBs
    x = fw.approximant_from_members({"bot", "a"})
    y = fw.approximant_from_members({"a"})
    lub = fw.lub_p([x, y])
    assert lub.aub == ("a",)
    assert lub.alb == fig.lub(["bot", "a"])


def test_U_greatest_and_U_least_are_the_units_of_meet_and_join(fig):
    fw = build_flower_framework(fig)
    top, bot = fw.U_greatest(), fw.U_least()
    for u in fw.enumerate_aubs():
        assert fw.meet_U(u, top) == fw.meet_U(top, u) == u
        assert fw.join_U(u, bot) == fw.join_U(bot, u) == u


def test_report_serialisation(fig):
    report = check_framework(build_flower_framework(fig))
    data = report_to_json(report)
    assert all(set(d) <= {"axiom", "status", "counterexample", "note"} for d in data)
    parsed = json.loads(json.dumps(data, sort_keys=True, indent=2))
    assert parsed == sorted(data, key=lambda d: d["axiom"]) or parsed == data


def test_least_approximant_covers_everything(fig):
    fw = build_flower_framework(fig)
    least = fw.least_approximant()
    assert fw.members(least) == frozenset(fig.elements)
    for x in fw.enumerate_approximants():
        assert fw.leq_p(least, x)


def test_precision_bound_nesting(fig):
    fw = build_flower_framework(fig)
    xs = fw.enumerate_approximants()
    for x in xs:
        for y in xs:
            if fw.leq_p(x, y):
                assert fw.alb_leq(x.alb, y.alb)
                assert fw.cross_leq(y.alb, y.aub)
                assert fw.aub_leq(y.aub, x.aub)


@pytest.mark.parametrize("seed", range(12))
def test_full_check_suite_on_random_cpos(seed):
    rng = random.Random(seed)
    poset = random_bounded_complete_cpo(rng, max_elements=6)
    report = check_framework(build_flower_framework(poset), rng=rng)
    assert report_ok(report), [r for r in report if not r.ok]


def test_sampled_status_on_large_spaces():
    lattice = powerset_lattice([f"a{i}" for i in range(8)])
    fw = build_flower_framework(lattice)  # 256 elements: no enumeration
    assert fw.enumerate_aubs() is None
    rng = random.Random(0)
    result = check_chain_ilp(fw, DEFAULT_CAPS, rng)
    assert result.ok and result.status == "sampled"


def _counting(fw, name):
    """Replace the method `name` of `fw` by a wrapper counting its calls."""
    calls = [0]
    method = getattr(fw, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    setattr(fw, name, counted)
    return calls


def test_sampled_quantifiers_draw_at_most_caps_samples():
    k = 20
    caps = Caps(samples=k)
    lattice = powerset_lattice([f"a{i}" for i in range(8)])  # 256 elements

    flowers = build_flower_framework(lattice)
    aubs_drawn = _counting(flowers, "sample_aub")
    assert check_glb_property(flowers, caps, random.Random(0)).status == "sampled"
    assert aubs_drawn[0] <= k

    intervals = build_interval_framework(lattice)
    joins = _counting(intervals, "join_L")
    assert check_weak_ilp(intervals, caps, random.Random(0)).status == "sampled"
    assert joins[0] <= k

    exactness_tests = _counting(intervals, "is_exact")
    report = {r.axiom: r.status for r in check_approximates_relation(intervals, caps, random.Random(0))}
    assert report["approximates.1_antitone_in_precision"] == "sampled"
    assert report["approximates.4_exact_iff_unique"] == "sampled"
    assert exactness_tests[0] <= k


def test_exhaustive_preamble_compares_each_pair_of_bounds_once():
    fw = build_flower_framework(vee_poset())
    n = len(fw.albs()) + len(fw.enumerate_aubs())
    comparisons = _counting(fw, "bound_leq")
    report = check_preamble(fw, DEFAULT_CAPS, random.Random(0))
    assert all(r.status == "pass" for r in report)
    assert comparisons[0] <= 2 * n * n


@pytest.mark.parametrize("poset", [vee_poset, claw_poset], ids=["vee", "claw"])
def test_the_order_rows_are_built_once_per_framework(poset):
    """The preamble and the composition checks share one set of rows, so a
    whole check asks bound_leq once per pair of bounds, plus the
    preamble's three linear scans; a second framework builds its own."""
    exact = poset()
    fw = build_flower_framework(exact)
    n = len(fw.albs()) + len(fw.enumerate_aubs())
    comparisons = _counting(fw, "bound_leq")
    assert report_ok(check_framework(fw))
    assert comparisons[0] <= n * n + 3 * n
    other = build_flower_framework(exact)
    others = _counting(other, "bound_leq")
    assert report_ok(check_framework(other))
    assert n * n <= others[0] <= n * n + 3 * n
    assert comparisons[0] == others[0]


def test_glb_property_reports_the_least_subset_that_reaches_a_deep_wrong_meet():
    fw = WrongElevenMeet(twelve_pool_poset(), enumerable=True)
    pool = [u for u in fw.enumerate_aubs() if fw.cross_leq("x", u)]
    assert len(pool) == MAX_SUBSET_POOL
    # The first eleven members fold to {x}, the first of them; {x} with the
    # last member, {a,b,d}, is the least subset that reaches the wrong meet.
    assert (pool[0], pool[-1]) == (("x",), ("a", "b", "d"))
    assert functools.reduce(fw.meet_U, pool[:-1]) == ("x",)
    result = check_glb_property(fw, DEFAULT_CAPS, random.Random(0))
    assert result.status == "fail"
    assert result.counterexample == {"alb": "x", "aubs": ["{x}", "{a,b,d}"], "glb": "{bot}"}


def test_glb_property_meets_within_the_closure_and_tests_each_distinct_glb_once():
    """Per ALB, at most |pool|·|closure| meets, none for a pool above
    MAX_SUBSET_POOL, and one compatibility test per distinct glb."""
    fw = build_flower_framework(twelve_pool_poset())
    albs, aubs = fw.albs(), fw.enumerate_aubs()
    meets = glbs = 0
    for l in albs:
        pool = [u for u in aubs if fw.cross_leq(l, u)]
        if len(pool) > MAX_SUBSET_POOL:
            glbs += 1
            continue
        closure = {fw.U_greatest()} | {
            functools.reduce(fw.meet_U, [u for k, u in enumerate(pool) if m >> k & 1])
            for m in range(1, 1 << len(pool))}
        meets, glbs = meets + len(pool) * len(closure), glbs + len(closure)
    meet_calls, compatibility = _counting(fw, "meet_U"), _counting(fw, "cross_leq")
    assert check_glb_property(fw, DEFAULT_CAPS, random.Random(0)).status == "pass"
    assert meet_calls[0] <= meets
    assert compatibility[0] == len(albs) * len(aubs) + glbs


class _OneWrongMeet(FlowerFramework):
    """Flowers whose meet of the pair `wrong_pair` is `wrong`."""

    wrong_pair, wrong = None, None

    def meet_U(self, u1, u2):
        if sorted((u1, u2)) == self.wrong_pair:
            return self.wrong
        return super().meet_U(u1, u2)


def _glb_property_by_every_subset(fw) -> CheckResult:
    """check_glb_property on an enumerated space, by its definition: every
    subset of each ALB's compatible AUBs in bitmask order, each with the
    left fold of meet_U over its members as its glb, U's greatest for
    none; above MAX_SUBSET_POOL, the whole set alone, with the greatest
    AUB below every member as its glb."""
    aubs, note, leq = fw.enumerate_aubs(), "", fw.aub_leq
    for l in fw.albs():
        pool = [u for u in aubs if fw.cross_leq(l, u)]
        if len(pool) > MAX_SUBSET_POOL:
            note = "large pools covered by the dominating full set"
            glb = _extremum(aubs, lambda v: all(leq(v, u) for u in pool), lambda u, v: leq(v, u))
            cases = [(pool, glb)]
        else:
            subsets = [[u for k, u in enumerate(pool) if m >> k & 1] for m in range(1 << len(pool))]
            cases = [(s, functools.reduce(fw.meet_U, s) if s else fw.U_greatest()) for s in subsets]
        for subset, glb in cases:
            if not fw.cross_leq(l, glb):
                return CheckResult("interlattice_glb", "fail", {
                    "alb": l, "aubs": ["{" + ",".join(u) + "}" for u in subset],
                    "glb": "{" + ",".join(glb) + "}"})
    return CheckResult("interlattice_glb", "pass", None, note)


def test_glb_property_matches_a_scan_of_every_subset_under_one_wrong_meet():
    statuses = []
    for seed in range(40):
        rng = random.Random(seed)
        fw = _OneWrongMeet(random_bounded_complete_cpo(rng), enumerable=True)
        aubs = fw.enumerate_aubs()
        u1, u2 = rng.choice(aubs), rng.choice(aubs)
        fw.wrong = rng.choice([v for v in aubs if v != fw.meet_U(u1, u2)] or aubs)
        fw.wrong_pair = sorted((u1, u2))
        result = check_glb_property(fw, DEFAULT_CAPS, random.Random(0))
        assert result == _glb_property_by_every_subset(fw), seed
        statuses.append(result.status)
    assert {"pass", "fail"} <= set(statuses)


def _with_one_wrong_answer(fw, rng: random.Random,
                           kinds=("aub_leq", "cross_leq", "recompose", "join_L")) -> str:
    """Give `fw` one seeded wrong answer of one of `kinds` (aub_leq,
    cross_leq, recompose, join_L or members_mask), and name which.  An
    interval's bound_leq reads the lattice directly, so it is made the
    base dispatch over the three relations, which keeps the order rows
    the mutant's order."""
    albs, aubs = list(fw.albs()), fw.enumerate_aubs()
    fw.bound_leq = functools.partial(ApproximationFramework.bound_leq, fw)
    kind = rng.choice(kinds)
    if kind in ("aub_leq", "cross_leq"):
        true, pair = getattr(fw, kind), (rng.choice(albs if kind == "cross_leq" else aubs), rng.choice(aubs))
        setattr(fw, kind, lambda a, b: true(a, b) != ((a, b) == pair))
    elif kind == "recompose":
        true, l = fw.recompose, rng.choice(albs)
        u = rng.choice([u for u in aubs if fw.cross_leq(l, u)])
        x = rng.choice(fw.enumerate_approximants())
        # Undefined, some approximant, or on flowers one whose AUB is spelled
        # off the order rows, with a member repeated.
        wrong = rng.choice([None, x] + ([x._replace(aub=x.aub + x.aub[:1])] if isinstance(x.aub, tuple) else []))

        def recompose(a, b):
            if (a, b) != (l, u):
                return true(a, b)
            if wrong is None:
                raise RecomposeUndefinedError("rejected")
            return wrong

        fw.recompose = recompose
    elif kind == "members_mask":
        true, x = fw.members_mask, rng.choice(fw.enumerate_approximants())
        wrong = true(x) ^ 1 << rng.randrange(len(fw.exact))
        fw.members_mask = lambda y: wrong if y == x else true(y)
    else:
        true, pair = fw.join_L, {rng.choice(albs), rng.choice(albs)}
        wrong = rng.choice([None, *albs])
        fw.join_L = lambda a, b: wrong if {a, b} == pair else true(a, b)
    return kind


def _joined_albs(fw, ls):
    """The lub of the non-empty ALBs ls: the left fold of join_L, which None absorbs."""
    return functools.reduce(lambda lub, l: lub if lub is None else fw.join_L(lub, l), ls[1:], ls[0])


def _result_by_scan(axiom: str, counterexamples) -> CheckResult:
    cx = next(counterexamples, None)
    return CheckResult(axiom, "pass" if cx is None else "fail", cx)


def _scans_with_framework_calls(fw) -> list[CheckResult]:
    """approximates.1, the chain ILP and composition bullets 3 and 4 on an
    enumerated space, by one framework call per instance, in each
    quantifier's order."""
    albs, aubs, xs = list(fw.albs()), fw.enumerate_aubs(), fw.enumerate_approximants()
    show = framework._show

    def attempt(l, u):
        try:
            return fw.recompose(l, u)
        except RecomposeUndefinedError:
            return None

    def precision():
        for x, y in itertools.permutations(xs, 2):
            if fw.leq_p(x, y) and fw.members_mask(y) & ~fw.members_mask(x):
                yield {"less_precise": show(x), "more_precise": show(y)}

    def chains():
        every, _ = framework._chains(fw, DEFAULT_CAPS, random.Random(0))
        for chain, u in itertools.product(every, aubs):
            if all(fw.cross_leq(l, u) for l in chain):
                lub = _joined_albs(fw, chain) if chain else fw.L_least()
                if lub is None or not fw.cross_leq(lub, u):
                    yield {"chain": [show(c) for c in chain], "aub": show(u), "lub": show(lub)}

    def monotone():
        for l1, l2, u in itertools.product(albs, albs, aubs):
            if fw.alb_leq(l1, l2) and fw.cross_leq(l1, u) and fw.cross_leq(l2, u):
                x1, x2 = attempt(l1, u), attempt(l2, u)
                if x1 is None or x2 is None or not fw.leq_p(x1, x2):
                    cx = {"alb1": show(l1), "alb2": show(l2), "aub": show(u)}
                    yield cx | ({} if x1 and x2 else framework._undefined(l1 if x1 is None else l2, u))

    def antitone():
        for u1, u2, l in itertools.product(aubs, aubs, albs):
            if fw.aub_leq(u1, u2) and fw.cross_leq(l, u1):
                x1, x2 = attempt(l, u1), attempt(l, u2)
                if x1 is None or x2 is None or not fw.leq_p(x2, x1):
                    cx = {"alb": show(l), "aub1": show(u1), "aub2": show(u2)}
                    yield cx | ({} if x1 and x2 else framework._undefined(l, u1 if x1 is None else u2))

    return [_result_by_scan("approximates.1_antitone_in_precision", precision()),
            _result_by_scan("chain_interlattice_lub", chains()),
            _result_by_scan("composition.3_monotone_in_alb", monotone()),
            _result_by_scan("composition.4_antitone_in_aub", antitone())]


def _checked(fw) -> list[CheckResult]:
    rng = random.Random(0)
    composition = check_composition_poset(fw, DEFAULT_CAPS, rng)
    return [check_approximates_relation(fw, DEFAULT_CAPS, rng)[0],
            check_chain_ilp(fw, DEFAULT_CAPS, rng), *composition[2:4]]


class _TooPreciseOffTheRows(FlowerFramework):
    """Flowers whose recomposition of (bot, {a,b}) is <bot|{bot,bot}>: too
    precise, and with its AUB spelled off the order rows."""

    def recompose(self, l, u):
        x = super().recompose(l, u)
        return x._replace(aub=("bot", "bot")) if (l, u) == ("bot", ("a", "b")) else x


def test_exhaustive_checkers_match_a_scan_with_one_call_per_instance_under_one_wrong_answer():
    """approximates.1, the chain ILP and composition bullets 3 and 4 give
    the result and the first counterexample of a scan that asks the
    framework once per instance, on 40 seeded cpos with one wrong answer
    and on the vee with a recomposition off the rows."""
    off_the_rows = _TooPreciseOffTheRows(vee_poset(), enumerable=True)
    checked = _checked(off_the_rows)
    assert checked == _scans_with_framework_calls(off_the_rows)
    assert checked[2].counterexample == {"alb1": "bot", "alb2": "a", "aub": "{a,b}"}
    kinds, statuses = set(), set()
    for seed in range(40):
        rng = random.Random(seed)
        cpo = random_bounded_complete_cpo(rng)
        spaces = [FlowerFramework(cpo, enumerable=True)]
        if cpo.classify().is_complete_lattice:
            spaces.append(IntervalFramework(cpo))
        for fw in spaces:
            kinds.add(_with_one_wrong_answer(fw, rng))
            checked = _checked(fw)
            assert checked == _scans_with_framework_calls(fw), (seed, fw.kind)
            statuses |= {r.status for r in checked}
    assert kinds == {"aub_leq", "cross_leq", "recompose", "join_L"}
    assert statuses == {"pass", "fail"}


def _abstract_ilp_by_every_subset(fw) -> CheckResult:
    """check_abstract_ilp on an enumerated space, by its definition: every
    non-empty subset of each AUB's group in bitmask order, whose lub_p
    must keep the AUB and have the left fold of join_L over the subset's
    ALBs as its ALB."""
    show = framework._show
    for u in fw.enumerate_aubs():
        group = []
        for l in fw.albs():
            if fw.cross_leq(l, u):
                try:
                    x = fw.recompose(l, u)
                except RecomposeUndefinedError:
                    continue
                if x.aub == u:
                    group.append(x)
        assert len(group) <= MAX_SUBSET_POOL
        for m in range(1, 1 << len(group)):
            subset = [x for k, x in enumerate(group) if m >> k & 1]
            lub, alb = fw.lub_p(subset), _joined_albs(fw, [x.alb for x in subset])
            if lub is None or lub.aub != u or alb is None or lub.alb != alb:
                return CheckResult("abstract_interlattice_lub", "fail", {
                    "aub": show(u), "albs": [show(x.alb) for x in subset], "lub": show(lub)})
    return CheckResult("abstract_interlattice_lub", "pass", None)


def test_abstract_ilp_matches_a_scan_of_every_subset_under_one_wrong_answer():
    """The join-closure gives the result and the first counterexample of a
    scan of every subset in bitmask order, on 40 seeded cpos whose
    flowers and intervals each have one wrong answer."""
    kinds, statuses = set(), set()
    for seed in range(40):
        rng = random.Random(seed)
        cpo = random_bounded_complete_cpo(rng)
        spaces = [FlowerFramework(cpo, enumerable=True)]
        if cpo.classify().is_complete_lattice:
            spaces.append(IntervalFramework(cpo))
        for fw in spaces:
            kinds.add(_with_one_wrong_answer(fw, rng, ("join_L", "members_mask", "recompose", "cross_leq")))
            result = check_abstract_ilp(fw, DEFAULT_CAPS, random.Random(0))
            assert result == _abstract_ilp_by_every_subset(fw), (seed, fw.kind)
            statuses.add(result.status)
    assert kinds == {"join_L", "members_mask", "recompose", "cross_leq"}
    assert statuses == {"pass", "fail"}


@pytest.mark.parametrize("build, poset", [
    (build_flower_framework, claw_poset),
    (build_flower_framework, twelve_pool_poset),
    (build_interval_framework, lambda: with_top(twelve_pool_poset())),
], ids=["claw", "twelve-pool", "twelve-pool-with-top"])
def test_abstract_ilp_joins_within_the_closure_and_tests_each_distinct_state_once(build, poset):
    """Per AUB group, at most |group|·|closure| joins and one closure per
    distinct state, where a state is the members' common mask and the
    fold of join_L over their ALBs."""
    fw, joins, closures = build(poset()), 0, 0
    for u in fw.enumerate_aubs():
        group = [x for l in fw.albs() if fw.cross_leq(l, u) and (x := fw.recompose(l, u)).aub == u]
        states = set()
        for m in range(1, 1 << len(group)):
            subset = [x for k, x in enumerate(group) if m >> k & 1]
            states.add((functools.reduce(int.__and__, map(fw.members_mask, subset)),
                        _joined_albs(fw, [x.alb for x in subset])))
        joins += len(group) * len(states)
        closures += len(states)
    join_calls, closure_calls = _counting(fw, "join_L"), _counting(fw, "closure")
    assert check_abstract_ilp(fw, DEFAULT_CAPS, random.Random(0)).status == "pass"
    assert 0 < join_calls[0] <= joins
    assert closure_calls[0] == closures


def test_abstract_ilp_draws_subsets_only_for_groups_above_the_pool_bound(monkeypatch):
    """On a 14-chain every ALB at or below u groups with u, so only the
    groups of the two top elements, 13 and 14 ALBs, are drawn."""
    chain = FinitePoset([str(i) for i in range(14)], [(str(i), str(i + 1)) for i in range(13)])
    drawn, subsets = [], framework._subsets

    def counted(pool, caps, rng):
        drawn.append(len(pool))
        return subsets(pool, caps, rng)

    monkeypatch.setattr(framework, "_subsets", counted)
    result = check_abstract_ilp(build_interval_framework(chain), DEFAULT_CAPS, random.Random(0))
    assert (result.status, drawn) == ("sampled", [13, 14])


class _AubBelowBot(FlowerFramework):
    """Flowers whose bound_leq alone puts the AUB {a} below {bot}, which
    aub_leq denies: off the contract, under which bound_leq only
    dispatches over the three relations."""

    def bound_leq(self, side1, b1, side2, b2):
        flipped = (side1, b1, side2, b2) == ("U", ("a",), "U", ("bot",))
        return flipped or super().bound_leq(side1, b1, side2, b2)


def test_the_order_rows_are_the_precision_order_of_the_exhaustive_checkers():
    """approximates.1 reads precision from the order rows, which are
    bound_leq, so an overridden bound_leq moves it where leq_p does not."""
    fw = _AubBelowBot(vee_poset(), enumerable=True)
    x, y = fw.recompose("bot", ("bot",)), fw.recompose("a", ("a",))
    assert not fw.leq_p(x, y)
    result = check_approximates_relation(fw, DEFAULT_CAPS, random.Random(0))[0]
    assert result.counterexample == {"less_precise": str(x), "more_precise": str(y)}
    assert _scans_with_framework_calls(fw)[0].status == "pass"


def test_flower_antichains_are_computed_once_per_mask(monkeypatch):
    fw = build_flower_framework(vee_poset())
    fw.enumerate_approximants()  # read from the order: no max-set is computed yet
    masks = []
    max_mask = FinitePoset._max_mask

    def counted(poset, mask):
        masks.append(mask)
        return max_mask(poset, mask)

    monkeypatch.setattr(FinitePoset, "_max_mask", counted)
    assert report_ok(check_framework(fw))
    assert masks and len(masks) == len(set(masks))


def test_is_exact_stops_at_the_second_exact_approximant():
    chain = FinitePoset([str(i) for i in range(6)], [(str(i), str(i + 1)) for i in range(5)])
    fw = build_interval_framework(chain)
    tests = _counting(fw, "leq_p")
    assert not fw.is_exact(Approximant(fw, "2", "3"))
    assert tests[0] == 2


@pytest.mark.parametrize("seed", range(15))
def test_closure_is_the_least_approximant_containing_a_set(seed):
    cpo = random_bounded_complete_cpo(random.Random(seed), max_elements=6)
    for fw in (build_flower_framework(cpo), build_interval_framework(with_top(cpo))):
        xs = fw.enumerate_approximants()
        for m in range(1, fw.exact._full + 1):
            x = fw.closure(m)
            assert x in xs and fw.members_mask(x) & m == m
            for y in xs:
                if fw.members_mask(y) & m == m:
                    assert fw.members_mask(x) & ~fw.members_mask(y) == 0
                    assert fw.leq_p(y, x)


def _least_upper_bound(fw, xs, group):
    """The precision-least approximant above every member of `group`,
    found by scanning the enumerated space `xs`; None when there is none."""
    ubs = [z for z in xs if all(fw.leq_p(x, z) for x in group)]
    least = [z for z in ubs if all(fw.leq_p(z, w) for w in ubs)]
    return least[0] if least else None


@pytest.mark.parametrize("seed", range(15))
def test_lub_p_is_the_least_upper_bound_by_enumeration(seed):
    rng = random.Random(seed)
    cpo = random_bounded_complete_cpo(rng, max_elements=7)
    lattice = with_top(cpo)
    for fw in (build_interval_framework(lattice), build_flower_framework(lattice),
               build_flower_framework(cpo)):
        xs = fw.enumerate_approximants()
        groups = [[x, y] for x in xs for y in xs]
        groups += [rng.sample(xs, 3) for _ in range(100) if len(xs) >= 3]
        for group in groups:
            assert fw.lub_p(group) == _least_upper_bound(fw, xs, group), group
        assert fw.lub_p([]) == fw.least_approximant()


def test_approximant_from_members_rejects_empty_and_foreign_sets(fig, fig_lattice):
    chain = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    for fw in (build_flower_framework(fig), build_interval_framework(fig_lattice),
               build_flower_framework(chain), build_interval_framework(chain)):
        with pytest.raises(PreconditionError, match="non-empty"):
            fw.approximant_from_members([])
    for fw, members in ((build_flower_framework(fig), {"a", "b"}),
                        (build_interval_framework(fig_lattice), {"bot", "a", "b"}),
                        (build_flower_framework(chain), {"0", "2"}),
                        (build_interval_framework(chain), {"0", "2"})):
        with pytest.raises(PreconditionError, match="convex"):
            fw.approximant_from_members(members)
    ifw = build_interval_framework(fig_lattice)
    x = ifw.approximant_from_members({"bot", "a", "b", "top"})
    assert (x.alb, x.aub) == ("bot", "top")


def _extremum(pool, ok, below):
    """The member of `pool` satisfying `ok` that is below (`below`) every
    other such member, found by scanning; None when there is none."""
    fits = [u for u in pool if ok(u)]
    least = [u for u in fits if all(below(u, v) for v in fits)]
    return least[0] if least else None


@pytest.mark.parametrize("seed", range(15))
def test_upper_space_matches_its_definition(seed):
    cpo = random_bounded_complete_cpo(random.Random(seed))
    lattice = with_top(cpo)
    for fw in (build_flower_framework(cpo), build_flower_framework(lattice),
               build_interval_framework(lattice)):
        aubs, leq = fw.enumerate_aubs(), fw.aub_leq

        def geq(u, v):
            return leq(v, u)

        assert fw.U_least() == _extremum(aubs, lambda u: True, leq)
        assert fw.U_greatest() == _extremum(aubs, lambda u: True, geq)
        for l in fw.albs():
            assert fw.least_aub_above(l) == _extremum(aubs, lambda u: fw.cross_leq(l, u), leq)
        for u1 in aubs:
            assert fw.aub_of_mask(fw.aub_mask(u1)) == u1
            for u2 in aubs:
                assert fw.meet_U(u1, u2) == _extremum(
                    aubs, lambda v: leq(v, u1) and leq(v, u2), geq)
                assert fw.join_U(u1, u2) == _extremum(
                    aubs, lambda v: leq(u1, v) and leq(u2, v), leq)
        for y in fw.exact.elements:
            assert fw.members(fw.exact_approximant(y)) == {y}


def test_constructors_reject_a_space_their_builders_reject():
    vee = FinitePoset(["b", "x", "y"], [("b", "x"), ("b", "y")])
    with pytest.raises(PreconditionError, match="lacks a greatest element"):
        IntervalFramework(vee)
    two_tops = FinitePoset(["x", "y"], [])
    with pytest.raises(PreconditionError, match="has no greatest lower bound"):
        FlowerFramework(two_tops, enumerable=True)


def test_an_approximant_is_its_framework_and_bounds():
    lattice = powerset_lattice(["p", "q"])
    fw, twin = build_interval_framework(lattice), build_interval_framework(lattice)
    x = fw.recompose("{p}", "{p,q}")
    # The same bounds in another framework over the same lattice differ.
    assert twin.recompose("{p}", "{p,q}") != x
    # A recomposition of the approximant's own bounds is the same dict key.
    table = {x: "found"}
    assert table[fw.recompose(x.alb, x.aub)] == "found"
    assert repr(x) == "Approximant(alb='{p}', aub='{p,q}')"
    assert str(x) == "[{p}, {p,q}]"
    ffw = build_flower_framework(lattice)
    flower = ffw.recompose("{}", ("{p}", "{q}"))
    assert {flower: "found"}[ffw.recompose(flower.alb, flower.aub)] == "found"
    assert repr(flower) == "Approximant(alb='{}', aub=('{p}', '{q}'))"
    assert str(flower) == "⟨{} | {{p},{q}}⟩"


def _recording(fw):
    """Replace `fw._recompose` by a wrapper listing the pairs it is asked."""
    pairs = []
    method = fw._recompose

    def recorded(l, u):
        pairs.append((l, u))
        return method(l, u)

    fw._recompose = recorded
    return pairs


@pytest.mark.parametrize("space", [build_interval_framework, build_flower_framework])
def test_recompose_and_closure_are_computed_once_and_never_for_an_incompatible_pair(space):
    fw = space(powerset_lattice(["p", "q"]))
    assert fw.closure(0b0110) is fw.closure(0b0110)
    pairs = _recording(fw)
    x = fw.recompose("{p}", fw.U_greatest())
    assert fw.recompose("{p}", fw.U_greatest()) is x
    assert pairs == [("{p}", fw.U_greatest())]
    stored = dict(fw._recomposed)
    below = fw.least_aub_above("{p}")
    for _ in range(2):
        with pytest.raises(RecomposeUndefinedError):
            fw.recompose("{p,q}", below)
    assert fw._recomposed == stored
    assert pairs[1:] == []


@pytest.mark.parametrize("build", [
    lambda: build_flower_framework(claw_poset()),
    lambda: build_interval_framework(powerset_lattice(["p", "q", "r"])),
    lambda: build_flower_framework(powerset_lattice(["p", "q", "r"])),
], ids=["claw-flower", "powerset3-interval", "powerset3-flower"])
def test_a_full_check_recomposes_each_pair_once(build):
    fw = build()
    pairs = _recording(fw)
    assert report_ok(check_framework(fw))
    assert pairs and len(pairs) == len(set(pairs))


@pytest.mark.parametrize("build", [
    lambda: build_interval_framework(powerset_lattice(["p", "q", "r"])),
    lambda: build_flower_framework(powerset_lattice(["p", "q", "r"])),
    lambda: build_flower_framework(claw_poset()),
], ids=["powerset3-interval", "powerset3-flower", "claw-flower"])
def test_member_masks_are_computed_once_per_framework(build, monkeypatch):
    """Each asked approximant's mask is stored once, as up(alb) &
    aub_mask(aub), and a second approximator on the framework reuses it
    without computing a mask again."""
    fw = build()
    exact = fw.exact
    rng = random.Random(5)
    op = ExactOperator(exact, [rng.randrange(len(exact)) for _ in exact.elements])
    compute_semantics(ultimate_approximator(fw, op))
    asked = dict(fw._members)
    assert asked
    up_masks = []
    up_mask = type(exact).up_mask
    monkeypatch.setattr(type(exact), "up_mask", lambda p, x: up_masks.append(x) or up_mask(p, x))
    compute_semantics(ultimate_approximator(fw, op))
    assert fw._members == asked and up_masks == []
    xs = fw.enumerate_approximants()
    for x in xs:
        assert fw.members_mask(x) == exact.up_mask(x.alb) & fw.aub_mask(x.aub)
        assert fw._members[x] == fw.members_mask(x)
    assert len(fw._members) == len(xs)


def _tables(n: int, rng: random.Random) -> dict[str, list[int]]:
    """A constant, the identity, a permutation and a few-valued table on n
    elements: one distinct value, n of them, and a few."""
    values = rng.sample(range(n), min(n, 3))
    return {
        "constant": [rng.randrange(n)] * n,
        "identity": list(range(n)),
        "permutation": rng.sample(range(n), n),
        "few-valued": [rng.choice(values) for _ in range(n)],
    }


def _assert_ultimate_map_is_the_closure_of_the_image(fw, rng: random.Random, sampled: bool = False) -> None:
    """Every enumerated approximant (sampled ones when the space is too
    large to enumerate, or when `sampled`), every exact one and the least
    one maps to the closure of its members' images."""
    exact = fw.exact
    every = None if sampled else fw.enumerate_approximants()
    xs = list(every or (fw.sample_approximant(rng) for _ in range(60)))
    xs += [fw.least_approximant(), *map(fw.exact_approximant, exact.elements)]
    for name, table in _tables(len(exact), rng).items():
        apply = fw.ultimate_map(table)
        for x in xs:
            image = exact.mask_of(exact.elements[table[exact.index(y)]] for y in fw.members(x))
            assert apply(x) == fw.closure(image), (name, x)


@pytest.mark.parametrize("seed", range(20))
def test_ultimate_map_is_the_closure_of_the_image_on_cpos(seed):
    rng = random.Random(seed)
    cpo = random_bounded_complete_cpo(rng)
    for poset in (cpo, with_top(cpo)):
        _assert_ultimate_map_is_the_closure_of_the_image(build_flower_framework(poset), rng)
        if poset.classify().is_complete_lattice:
            _assert_ultimate_map_is_the_closure_of_the_image(build_interval_framework(poset), rng)


@pytest.mark.parametrize("atoms", range(7))
def test_ultimate_map_is_the_closure_of_the_image_on_powersets(atoms):
    rng = random.Random(atoms)
    lattice = powerset_lattice([f"a{i}" for i in range(atoms)])
    for fw in (build_interval_framework(lattice), build_flower_framework(lattice)):
        _assert_ultimate_map_is_the_closure_of_the_image(fw, rng)


@pytest.mark.parametrize("atoms", [8, 10])
def test_ultimate_map_is_the_closure_of_the_image_on_wide_powersets(atoms):
    """256 and 1,024 elements: member masks wider than a machine word,
    on sampled approximants plus the least and every exact one."""
    rng = random.Random(atoms)
    lattice = powerset_lattice([f"a{i}" for i in range(atoms)])
    for fw in (build_interval_framework(lattice), build_flower_framework(lattice)):
        _assert_ultimate_map_is_the_closure_of_the_image(fw, rng, sampled=True)
