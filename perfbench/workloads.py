"""The three workloads: set-up, instances, and the check of each answer.

`setup(inputs, workdir)` imports genaft afresh, turns the generated
inputs into library objects and builds the exact spaces the workload
shares; it returns the instances of one round.  An instance's `run` is
the timed work.  Its `check` runs after the clock stops.  The first
answer of an instance is checked in full against `reference` and
`lp_oracle`; the answers of later rounds must repeat it exactly, which
genaft's deterministic semantics and canonical output promise.

Instances reach genaft through module attributes at call time
(`genaft.kripke_kleene`, never a name bound at set-up), so the traced
run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from inputs import VEE, worked
from reference import (
    BeliefOrder,
    ProductOrder,
    SubsetOrder,
    ValueOrder,
    ael_table,
    check_lp,
    check_semantics,
    expect,
    fixpoints,
    lp_table,
    precision_leq,
    set_ident,
    wadf_table,
)

# Frozen by the acceptance suite.
AGENT_WF = "{{p,q},{q}}"
REVIEW_KK = "(accept|borderline|tendency_accept)"

# Sampling budget of the checks on the mid-size space.  The default of 150
# probes makes one interlattice-glb check take 7 s there; below about 50,
# some compatible-AUB pools fall under the subset-enumeration limit and are
# enumerated in full, so the check's time swings with its seed.
MID_SAMPLES = 60


@dataclass
class Instance:
    kind: str
    run: Callable[[], Any]
    full_check: Callable[[Any], None]
    # The repr of the answer that passed the full check; a string, so the
    # answers kept for comparison add nothing to the garbage collector's work.
    verified: str | None = field(default=None, repr=False)

    def check(self, out: Any) -> None:
        text = repr(out)
        if text == self.verified:
            return
        self.full_check(out)
        self.verified = text


def _genaft():
    genaft = importlib.import_module("genaft")
    return genaft, importlib.import_module("genaft.encoders")


def _semantics_json(result) -> dict:
    """A SemanticsResult in the shape of the CLI's JSON output."""
    def bounds(x):
        return {"alb": x.alb, "aub": x.aub if isinstance(x.aub, str) else list(x.aub)}

    return {
        "kk": bounds(result.kk),
        "wf": bounds(result.wf),
        "supported": list(result.supported),
        "stable": list(result.stable),
    }


def _lp_expected(program: dict, encoders) -> dict:
    """lp_oracle's answers, with supported models from the table built here."""
    oracle = encoders.lp_oracle(encoders.NormalLogicProgram.from_json(program))
    supported = fixpoints(lp_table(program))
    expect(
        sorted(set_ident(s) for s in oracle.supported) == supported,
        "lp_oracle's supported models differ from the table fixpoints",
    )
    return {
        "answer_sets": sorted(set_ident(s) for s in oracle.answer_sets),
        "wf_true": set_ident(oracle.wf_true),
        "wf_possible": set_ident(oracle.wf_possible),
        "supported": supported,
    }


# -- corpus_sweep ------------------------------------------------------------------


def setup_corpus_sweep(inputs: dict, workdir: pathlib.Path) -> list[Instance]:
    """Every program, both approximators, all four semantics, on interval
    spaces shared per atom set."""
    genaft, encoders = _genaft()
    programs = [encoders.NormalLogicProgram.from_json(p) for p in inputs["programs"]]
    spaces = {}
    for p in programs:
        if p.atoms not in spaces:
            exact = genaft.powerset_lattice(p.atoms, "subset")
            spaces[p.atoms] = (exact, genaft.build_interval_framework(exact))

    def instance(data: dict, program) -> Instance:
        exact, fw = spaces[program.atoms]

        def run():
            fitting = genaft.compute_semantics(encoders.fitting_approximator(program, fw))
            ultimate = genaft.compute_semantics(
                genaft.ultimate_approximator(fw, encoders.lp_operator(program, exact))
            )
            return fitting, ultimate

        def full_check(out):
            fitting, ultimate = (_semantics_json(r) for r in out)
            expected = _lp_expected(data, encoders)
            check_lp(fitting, "fitting", expected)
            check_lp(ultimate, "ultimate", expected)
            order = SubsetOrder()
            for key in ("kk", "wf"):
                expect(precision_leq(order, fitting[key], ultimate[key]), f"Fitting {key} above ultimate")

        return Instance(f"lp{len(program.atoms)}", run, full_check)

    return [instance(d, p) for d, p in zip(inputs["programs"], programs)]


# -- large_solve -------------------------------------------------------------------

COMMANDS = {
    "solve-interval": ["solve", "--space", "interval"],
    "solve-flower": ["solve", "--space", "flower"],
    "compare": ["compare"],
}


def _order_of(kind: str, data: dict):
    if kind == "lp":
        return SubsetOrder()
    if kind == "ael":
        return BeliefOrder()
    return ProductOrder(ValueOrder(data["values"]))


def _table_of(kind: str, data: dict) -> dict[str, str]:
    if kind == "lp":
        return lp_table(data)
    if kind == "ael":
        return ael_table(data)
    return wadf_table(data, ValueOrder(data["values"]))


def _check_job(job: dict, payload: dict, encoders) -> None:
    kind, data = job["kind"], job["data"]
    order = _order_of(kind, data)
    sides = [payload["a"], payload["b"]] if job["command"] == "compare" else [payload]
    if kind == "lp":
        expected = _lp_expected(data, encoders)
        for side in sides:
            check_lp(side["semantics"], side["approximator"], expected)
    else:
        supported = fixpoints(_table_of(kind, data))
        for side in sides:
            check_semantics(side["semantics"], order, supported)
    if job["command"] == "compare":
        verdicts = payload["verdicts"]
        a, b = payload["a"]["semantics"], payload["b"]["semantics"]
        for key in ("kk", "wf"):
            expect(verdicts[f"{key}_a_leq_b"] is True, f"{key}_a_leq_b is not true")
            expect(precision_leq(order, a[key], b[key]), f"side a {key} above side b")
        expect(verdicts["supported_equal"] is True, "supported models differ between sides")
        expect(verdicts["stable_a_subset_b"] is True, "Fitting stable models not ultimate-stable")
    if job["name"] == "agent_theory":
        wf = payload["semantics"]["wf"]
        expect((wf["alb"], wf["aub"]) == (AGENT_WF, [AGENT_WF]), f"agent theory WF is {wf}")
    if job["name"] == "review_wadf":
        kk = payload["semantics"]["kk"]
        expect((kk["alb"], kk["aub"]) == (REVIEW_KK, [REVIEW_KK]), f"review wADF KK is {kk}")


def setup_large_solve(inputs: dict, workdir: pathlib.Path) -> list[Instance]:
    """`genaft solve` / `compare` in-process, one CLI call per instance."""
    _, encoders = _genaft()
    cli = importlib.import_module("genaft.cli")
    workdir.mkdir(parents=True, exist_ok=True)

    def instance(job: dict) -> Instance:
        path = workdir / f"{job['name']}.json"
        path.write_text(json.dumps(job["data"]))
        argv = [*COMMANDS[job["command"]], str(path), "--format", "json"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def full_check(out):
            code, stdout, stderr = out
            expect(code == 0, f"exit code {code}: {stderr.strip()}")
            _check_job(job, json.loads(stdout), encoders)

        return Instance(f"{job['name'].split('-')[0]}-{job['command']}", run, full_check)

    return [instance(job) for job in inputs["jobs"]]


# -- axiom_check -------------------------------------------------------------------


def _report(results) -> list:
    return [(r.axiom, r.status, r.counterexample is not None) for r in results]


def _expect_pass(report: list) -> None:
    failing = [axiom for axiom, status, _ in report if status == "fail"]
    expect(not failing, f"axioms fail on a valid space: {failing}")


def _mutant_classes(flowers):
    class SwappedRecompose(flowers.FlowerFramework):
        """Exchanges the recompositions of a and bot: decompose-recompose breaks."""

        def recompose(self, l, u):
            x = super().recompose(l, u)
            if (x.alb, x.aub) == ("a", ("a",)):
                return super().recompose("bot", ("bot",))
            if (x.alb, x.aub) == ("bot", ("bot",)):
                return super().recompose("a", ("a",))
            return x

    class NoSideCondition(flowers.FlowerFramework):
        """Compares lower closures only, so an antichain may sit below an element."""

        def bound_leq(self, side1, b1, side2, b2):
            mask1 = self.exact.down_mask(b1) if side1 == "L" else self.aub_mask(b1)
            mask2 = self.exact.down_mask(b2) if side2 == "L" else self.aub_mask(b2)
            return mask1 & ~mask2 == 0

    return {"swapped_recompose": SwappedRecompose, "no_side_condition": NoSideCondition}


def _is_lattice(poset: dict) -> bool:
    """The generated cpos have a least element; a lattice also has a greatest."""
    above = {x: {x} for x in poset["elements"]}
    for _ in poset["elements"]:
        for lo, hi in poset["pairs"]:
            above[lo] |= above[hi]
    return any(all(x in above[y] for y in poset["elements"]) for x in poset["elements"])


def setup_axiom_check(inputs: dict, workdir: pathlib.Path) -> list[Instance]:
    """Framework axioms, transfer theorems and well-founded inductions."""
    genaft, encoders = _genaft()
    flowers = importlib.import_module("genaft.flowers")
    values = genaft.FinitePoset.from_json(worked("review_wadf")["values"])
    mid = genaft.build_flower_framework(genaft.product_poset([values] * 3))
    mid_caps = genaft.Caps(samples=MID_SAMPLES)
    vee = genaft.FinitePoset.from_json(VEE)
    three = genaft.powerset_lattice(("p", "q", "r"), "subset")
    witness = genaft.interval_flower_witness(three, coarse=genaft.build_interval_framework(three))
    agent = encoders.ael_operator(encoders.AelTheory.from_json(worked("agent_theory")))
    agent_ultimate = genaft.ultimate_approximator(genaft.build_flower_framework(agent.domain), agent)
    mutants = _mutant_classes(flowers)
    out: list[Instance] = []

    for item in inputs["cpos"]:
        def run(poset=item["poset"], seed=item["seed"]):
            exact = genaft.FinitePoset(poset["elements"], [tuple(p) for p in poset["pairs"]])
            rng = random.Random(seed)
            reports = {"flower": genaft.check_framework(genaft.build_flower_framework(exact), rng=rng)}
            if exact.classify().is_complete_lattice:
                reports["interval"] = genaft.check_framework(genaft.build_interval_framework(exact), rng=rng)
            return {space: _report(r) for space, r in reports.items()}

        def full_check(reports, poset=item["poset"]):
            spaces = {"flower", "interval"} if _is_lattice(poset) else {"flower"}
            expect(set(reports) == spaces, f"checked spaces {sorted(reports)}, expected {sorted(spaces)}")
            for report in reports.values():
                _expect_pass(report)

        out.append(Instance(f"cpo{len(item['poset']['elements'])}", run, full_check))

    for item in inputs["mid_checks"]:
        def run(name=item["checker"], seed=item["seed"]):
            result = getattr(genaft, f"check_{name}")(mid, mid_caps, random.Random(seed))
            return _report(result if isinstance(result, list) else [result])

        out.append(Instance(f"mid-{item['checker']}", run, _expect_pass))

    for name in inputs["mutants"]:
        def run(cls=mutants[name]):
            return _report(genaft.check_framework(cls(vee, enumerable=True)))

        def full_check(report):
            failing = [r for r in report if r[1] == "fail"]
            expect(bool(failing), "a mutant framework passes every axiom")
            expect(all(has_cx for _, _, has_cx in failing), "a failure without counterexample")

        out.append(Instance(f"mutant-{name}", run, full_check))

    for item in inputs["transfer"]:
        program = encoders.NormalLogicProgram.from_json(item["program"])

        def run(program=program, seed=item["seed"]):
            rng = random.Random(seed)
            op = encoders.lp_operator(program, three)
            fitting = encoders.fitting_approximator(program, witness.coarse)
            composition = genaft.check_ultimate_composition(witness, op, rng=rng)
            flower_ultimate = genaft.ultimate_approximator(witness.fine, op)
            theorems = genaft.verify_transfer_theorems(witness, a1=fitting, a2=flower_ultimate, rng=rng)
            return _report([composition, *theorems])

        out.append(Instance("transfer", run, _expect_pass))

    # Fixed approximators, so inductions after the first run cache-hot:
    # index 0 is the agent theory's, the others Fitting's for random programs.
    fixed = [(agent_ultimate, None)]
    for data in inputs["induction_programs"]:
        program = encoders.NormalLogicProgram.from_json(data)
        fixed.append((encoders.fitting_approximator(program, witness.coarse), data))

    for item in inputs["inductions"]:
        approximator, data = fixed[item["approximator"]]

        def run(approximator=approximator, seeds=item["seeds"]):
            limits = []
            for seed in seeds:
                strategy = genaft.random_wf_strategy(random.Random(seed))
                limit = genaft.run_wf_induction(approximator, strategy)[-1]
                limits.append((limit.alb, limit.aub))
            return limits

        def full_check(limits, data=data):
            if data is None:
                expected = (AGENT_WF, (AGENT_WF,))
            else:
                oracle = _lp_expected(data, encoders)
                expected = (oracle["wf_true"], oracle["wf_possible"])
            wrong = [limit for limit in limits if limit != expected]
            expect(not wrong, f"inductions ended at {wrong}, not at WF {expected}")

        out.append(Instance("induction", run, full_check))
    return out


SETUPS = {
    "corpus_sweep": setup_corpus_sweep,
    "large_solve": setup_large_solve,
    "axiom_check": setup_axiom_check,
}
