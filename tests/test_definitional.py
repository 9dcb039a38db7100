"""The four semantics against their definitions, and the iteration
cap's margin on the corpus.

The supported/stable oracle applies the approximator to the exact
approximant of every exact element, with no use of the exact operator's
table, so it checks the engine's scan over the table's fixed points from
outside; it covers tables, logic programs, auto-epistemic theories and
wADFs.  The KK/WF oracle enumerates every approximant and takes the
precision-least fixpoint of the approximator and of stable revision,
with none of the engine's iterations.
"""

import itertools
import random

import pytest

from genaft import (
    Approximator,
    ExactOperator,
    build_flower_framework,
    build_interval_framework,
    compute_semantics,
    is_reliable,
    kripke_kleene,
    stable_fixpoints,
    stable_revision,
    supported_fixpoints,
    ultimate_approximator,
    well_founded,
)
from genaft import engine
from genaft.encoders import (
    AelTheory,
    Wadf,
    ael_operator,
    fitting_approximator,
    lp_exact_space,
    lp_operator,
    wadf_operator,
)
from genaft.errors import PreconditionError
from genaft.fixpoints import lfp
from genaft.hierarchy import induce_coarse, induce_fine, interval_flower_witness
from corpus import (
    VEE,
    grammar_programs,
    random_bounded_complete_cpo,
    random_poset,
    random_program,
)


def _by_definition(a: Approximator) -> tuple[list[str], list[str]]:
    """Supported: exact approximants the approximator fixes.  Stable:
    those of them that stable revision fixes."""
    fw = a.space
    supported, stable = [], []
    for y in fw.exact.elements:
        e = fw.exact_approximant(y)
        if a.apply(e) == e:
            supported.append(y)
            if stable_revision(a, e) == e:
                stable.append(y)
    return sorted(supported), sorted(stable)


def _assert_definitional(a: Approximator) -> None:
    wf = well_founded(a, kripke_kleene(a))
    sup = supported_fixpoints(a)
    assert (sup, stable_fixpoints(a, wf, sup)) == _by_definition(a), a.name


def _cpos(rng: random.Random):
    drawn = (random_poset(rng) for _ in range(300))
    yield from (p for p in drawn if p.classify().is_bounded_complete)
    for _ in range(300):
        yield random_bounded_complete_cpo(rng)


def _table_with_fixed_points(n: int, rng: random.Random) -> list[int]:
    table = [rng.randrange(n) for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(0, n)):
        table[i] = i
    return table


def test_random_tables_on_cpos_match_the_definition():
    rng = random.Random(404)
    lattices = 0
    for poset in _cpos(rng):
        op = ExactOperator(poset, _table_with_fixed_points(len(poset), rng))
        spaces = [build_flower_framework(poset)]
        if poset.classify().is_complete_lattice:
            lattices += 1
            spaces.append(build_interval_framework(poset))
        for fw in spaces:
            _assert_definitional(ultimate_approximator(fw, op))
            # The least precise approximator of any operator: it fixes
            # no exact approximant but on a one-element space.
            least = fw.least_approximant()
            _assert_definitional(Approximator(fw, lambda x, least=least: least, op))
    assert lattices >= 50


def test_random_programs_match_the_definition():
    rng = random.Random(405)
    for size in range(1, 6):
        atoms = tuple("abcde"[:size])
        for _ in range(30):
            program = random_program(atoms, rng)
            op = lp_operator(program, lp_exact_space(program))
            ifw = build_interval_framework(op.domain)
            _assert_definitional(fitting_approximator(program, ifw))
            _assert_definitional(ultimate_approximator(build_flower_framework(op.domain), op))


def test_induced_approximators_match_the_definition():
    rng = random.Random(406)
    for size in range(1, 4):
        for _ in range(20):
            program = random_program(tuple("abc"[:size]), rng)
            op = lp_operator(program, lp_exact_space(program))
            wit = interval_flower_witness(op.domain, build_interval_framework(op.domain))
            fine = induce_fine(fitting_approximator(program, wit.coarse), wit)
            coarse = induce_coarse(ultimate_approximator(wit.fine, op), wit)
            assert fine.exact.table == coarse.exact.table == op.table
            _assert_definitional(fine)
            _assert_definitional(coarse)


def test_supported_applies_only_at_the_tables_fixed_points():
    rng = random.Random(407)
    for poset in _cpos(rng):
        op = ExactOperator(poset, _table_with_fixed_points(len(poset), rng))
        a = ultimate_approximator(build_flower_framework(poset), op)
        seen = []
        apply = a.apply
        a.apply = lambda x: seen.append(x) or apply(x)
        supported_fixpoints(a)
        fixed = [y for i, y in enumerate(poset.elements) if op.table[i] == i]
        assert seen == [a.space.exact_approximant(y) for y in fixed]


def test_approximator_rejects_an_operator_on_another_space(fig, fig_lattice):
    fw = build_interval_framework(fig_lattice)
    op = ExactOperator(fig, list(range(len(fig))))
    with pytest.raises(PreconditionError, match="different exact spaces"):
        Approximator(fw, lambda x: x, op)


def test_corpus_finishes_within_half_the_stated_cap(monkeypatch):
    """The stated cap is each framework's 2·|exact|; every corpus
    program's KK and WF finish under |exact|.  Every induction is seen
    to run under the halved cap."""
    caps = []

    def capped_lfp(op, *, start, step_cap):
        caps.append(step_cap)
        return lfp(op, start=start, step_cap=step_cap)

    monkeypatch.setattr(engine, "lfp", capped_lfp)
    frameworks = {}
    for program in grammar_programs():
        if program.atoms not in frameworks:
            space = lp_exact_space(program)
            ifw, ffw = build_interval_framework(space), build_flower_framework(space)
            for fw in (ifw, ffw):
                assert fw.step_cap == 2 * len(space)
                fw.step_cap = len(space)
            frameworks[program.atoms] = (space, ifw, ffw)
        space, ifw, ffw = frameworks[program.atoms]
        op = lp_operator(program, space)
        approximators = (
            fitting_approximator(program, ifw),
            ultimate_approximator(ifw, op),
            ultimate_approximator(ffw, op),
        )
        for a in approximators:
            caps.clear()
            well_founded(a, kripke_kleene(a))
            assert caps and set(caps) == {len(space)}


# -- Kripke-Kleene and well-founded by enumeration ------------------------------


def _least(fw, xs: list) -> object:
    """The precision-least element of `xs`, which must exist."""
    least = [x for x in xs if all(fw.leq_p(x, y) for y in xs)]
    assert len(least) == 1, [str(x) for x in xs]
    return least[0]


def _kk_wf_by_enumeration(a: Approximator) -> tuple:
    """KK is the precision-least approximant `a` fixes; WF is the
    precision-least reliable approximant stable revision fixes."""
    fw = a.space
    xs = fw.enumerate_approximants()
    fixed = [x for x in xs if a.apply(x) == x]
    revision_fixed = [x for x in xs if is_reliable(a, x) and stable_revision(a, x) == x]
    return _least(fw, fixed), _least(fw, revision_fixed)


def _assert_kk_wf_by_enumeration(a: Approximator) -> None:
    kk = kripke_kleene(a)
    assert (kk, well_founded(a, kk)) == _kk_wf_by_enumeration(a), a.name


def test_kk_wf_of_random_tables_on_cpos_match_enumeration():
    rng = random.Random(408)
    lattices = 0
    for poset in _cpos(rng):
        op = ExactOperator(poset, [rng.randrange(len(poset)) for _ in poset.elements])
        _assert_kk_wf_by_enumeration(ultimate_approximator(build_flower_framework(poset), op))
        if poset.classify().is_complete_lattice:
            lattices += 1
            _assert_kk_wf_by_enumeration(ultimate_approximator(build_interval_framework(poset), op))
    assert lattices >= 50


def test_kk_wf_of_fitting_match_enumeration():
    rng = random.Random(409)
    for size in range(1, 4):
        for _ in range(30):
            program = random_program(tuple("abc"[:size]), rng)
            fw = build_interval_framework(lp_exact_space(program))
            _assert_kk_wf_by_enumeration(fitting_approximator(program, fw))


def _random_formula(rng: random.Random, depth: int, modal: bool) -> list:
    """A formula over the atom p; K wraps objective formulas only."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return ["atom", "p"]
    if modal and r < 0.5:
        return ["K", _random_formula(rng, depth - 1, False)]
    if r < 0.7:
        return ["not", _random_formula(rng, depth - 1, modal)]
    op = rng.choice(["and", "or", "iff"])
    return [op, _random_formula(rng, depth - 1, modal), _random_formula(rng, depth - 1, modal)]


def test_kk_wf_of_one_atom_theories_match_enumeration():
    rng = random.Random(410)
    for _ in range(40):
        sentences = [_random_formula(rng, 3, True) for _ in range(rng.randint(1, 2))]
        op = ael_operator(AelTheory.from_json({"atoms": ["p"], "sentences": sentences}))
        _assert_kk_wf_by_enumeration(ultimate_approximator(build_flower_framework(op.domain), op))
        _assert_kk_wf_by_enumeration(ultimate_approximator(build_interval_framework(op.domain), op))


def _random_acceptance(rng: random.Random, depth: int = 0) -> list:
    """Constants, parents, glbs and tables over the vee; no lub, which a
    and b lack."""
    r = rng.random()
    if r < 0.2:
        return ["const", rng.choice(VEE["elements"])]
    if r < 0.45:
        return ["parent", rng.choice("xy")]
    if r < 0.65 and depth == 0:
        return ["glb", _random_acceptance(rng, 1), _random_acceptance(rng, 1)]
    rows = [[[u, v], rng.choice(VEE["elements"])] for u in VEE["elements"] for v in VEE["elements"]]
    return ["table", ["x", "y"], rows]


def test_kk_wf_of_two_argument_wadfs_match_enumeration():
    rng = random.Random(411)
    for _ in range(60):
        wadf = Wadf.from_json({
            "arguments": ["x", "y"],
            "values": VEE,
            "acceptance": {"x": _random_acceptance(rng), "y": _random_acceptance(rng)},
        })
        op = wadf_operator(wadf)
        _assert_kk_wf_by_enumeration(ultimate_approximator(build_flower_framework(op.domain), op))


def test_supported_and_stable_of_theories_and_wadfs_match_the_definition(theory, wadf):
    rng = random.Random(412)
    ops = [ael_operator(theory), wadf_operator(wadf)]
    for _ in range(40):
        sentences = [_random_formula(rng, 3, True) for _ in range(rng.randint(1, 2))]
        ops.append(ael_operator(AelTheory.from_json({"atoms": ["p"], "sentences": sentences})))
        ops.append(wadf_operator(Wadf.from_json({
            "arguments": ["x", "y"],
            "values": VEE,
            "acceptance": {"x": _random_acceptance(rng), "y": _random_acceptance(rng)},
        })))
    for op in ops:
        _assert_definitional(ultimate_approximator(build_flower_framework(op.domain), op))
        if op.domain.classify().is_complete_lattice:
            _assert_definitional(ultimate_approximator(build_interval_framework(op.domain), op))


# -- compute_semantics: every request against the oracles ----------------------

SEMANTICS = ("kk", "wf", "supported", "stable")


def _assert_compute_semantics(a: Approximator) -> None:
    """The full run equals both oracles, and every non-empty request
    returns the full run's entries and leaves the rest unset."""
    full = compute_semantics(a)
    assert (full.kk, full.wf) == _kk_wf_by_enumeration(a), a.name
    assert (full.supported, full.stable) == _by_definition(a), a.name
    for size in range(1, len(SEMANTICS)):
        for parts in itertools.combinations(SEMANTICS, size):
            got = compute_semantics(a, parts)
            for name in SEMANTICS:
                expected = getattr(full, name) if name in parts else None
                assert getattr(got, name) == expected, (a.name, parts, name)


def test_compute_semantics_of_random_tables_on_cpos_match_the_oracles():
    rng = random.Random(413)
    lattices = 0
    for poset in _cpos(rng):
        op = ExactOperator(poset, _table_with_fixed_points(len(poset), rng))
        spaces = [build_flower_framework(poset)]
        if poset.classify().is_complete_lattice:
            lattices += 1
            spaces.append(build_interval_framework(poset))
        for fw in spaces:
            _assert_compute_semantics(ultimate_approximator(fw, op))
            least = fw.least_approximant()
            _assert_compute_semantics(Approximator(fw, lambda x, least=least: least, op))
    assert lattices >= 50


def test_compute_semantics_of_programs_theories_and_wadfs_match_the_oracles():
    rng = random.Random(414)
    for size in range(1, 6):
        for _ in range(20):
            program = random_program(tuple("abcde"[:size]), rng)
            op = lp_operator(program, lp_exact_space(program))
            fw = build_interval_framework(op.domain)
            _assert_compute_semantics(fitting_approximator(program, fw))
            _assert_compute_semantics(ultimate_approximator(fw, op))
    for _ in range(40):
        sentences = [_random_formula(rng, 3, True) for _ in range(rng.randint(1, 2))]
        op = ael_operator(AelTheory.from_json({"atoms": ["p"], "sentences": sentences}))
        _assert_compute_semantics(ultimate_approximator(build_flower_framework(op.domain), op))
        _assert_compute_semantics(ultimate_approximator(build_interval_framework(op.domain), op))
        op = wadf_operator(Wadf.from_json({
            "arguments": ["x", "y"],
            "values": VEE,
            "acceptance": {"x": _random_acceptance(rng), "y": _random_acceptance(rng)},
        }))
        _assert_compute_semantics(ultimate_approximator(build_flower_framework(op.domain), op))
