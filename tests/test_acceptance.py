"""End-to-end acceptance battery.

One test per shipped guarantee, each printing a single pass line with
its runtime. Every expected value is either a documented fixed point,
an independent recomputation inside this file, or an exhaustive check.
"""

import json
import time
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

from mvcond.cli import main
from mvcond.parser import parse, print_formula
from mvcond.proof import check_derivation, derivation_from_json, load_derivation
from mvcond.search import (
    SearchBounds,
    check_preservation,
    countermodel_search,
    filtrate,
    is_L_tautology,
    random_model,
    value_under,
)
from mvcond.semantics import (
    Evaluator,
    KripkeModel,
    Proposition,
    check_fid,
    eval_formula,
    valid_in_model,
)
from mvcond.syntax import (
    And,
    Cond,
    I,
    Iff,
    Imp,
    J,
    Not,
    OTimes,
    Top,
    Var,
    imp_chain,
    mk_I,
    mk_J,
    subformula_closure,
)
from mvcond.truthvalues import TruthValue, chain

from formula_gen import random_formula

DATA = Path(__file__).parent / "data"

P, Q, R = Var("p"), Var("q"), Var("r")


def report(number: int, name: str, started: float, detail: str = "") -> float:
    elapsed = time.monotonic() - started
    suffix = f", {detail}" if detail else ""
    print(f"criterion {number} ({name}): PASS ({elapsed:.1f}s{suffix})")
    return elapsed


# --- criterion 1: theorem corpus ---------------------------------------------


def theorem_corpus(m: int) -> list[tuple[str, object]]:
    """The 21 schema families instantiated over distinct atoms p, q, r."""
    values = [Fraction(k, m - 1) for k in range(m)]
    top = Fraction(1)
    out: list[tuple[str, object]] = []

    out.append(("(1)", imp_chain([P] * (m - 1), J(top, P))))
    out.append(("(2)", Imp(And(P, Q), And(Q, P))))
    for a in values:
        ja = J(a, P)
        out.append((f"(3) a={a}", Imp(Imp(ja, Imp(ja, Q)), Imp(ja, Q))))
    out.append(
        ("(4)", imp_chain([Imp(J(c, P), Q) for c in values], Q))
    )
    out.append(("(5)", Imp(J(top, P), P)))
    out.append(("(6)", Imp(Imp(P, Imp(Q, R)), Imp(Q, Imp(P, R)))))
    out.append(("(7)", Imp(And(P, Q), P)))
    out.append(("(8)", Iff(P, Not(Not(P)))))
    out.append(("(9)", Imp(P, Imp(Q, P))))
    out.append(("(10)", Imp(OTimes(Q, Imp(Q, R)), R)))
    out.append(("(11)", Iff(Imp(OTimes(P, Q), R), Imp(P, Imp(Q, R)))))
    out.append(
        ("(12)", Imp(Imp(P, Q), Imp(Imp(P, R), Imp(P, And(Q, R)))))
    )
    for a in values:
        for b in values:
            if a < b:
                out.append((f"(13) a={a},b={b}", Imp(J(a, Q), Not(I(b, Q)))))
    out.append(
        ("(14)", imp_chain([Iff(J(c, P), J(c, Q)) for c in values], Iff(P, Q)))
    )
    for a in values:
        out.append(
            (
                f"(15) a={a}",
                imp_chain([Iff(P, Q)] * (m - 1), Iff(J(a, P), J(a, Q))),
            )
        )
    for a in values:
        out.append((f"(16) a={a}", Iff(J(top, J(a, Q)), J(a, Q))))
    for a in values:
        ia = I(a, P)
        out.append((f"(17) a={a}", Imp(Imp(ia, Imp(ia, Q)), Imp(ia, Q))))
    for a in values:
        out.append(
            (f"(18) a={a}", Iff(I(a, And(P, Q)), And(I(a, P), I(a, Q))))
        )
    for a in values:
        for b in values:
            for c in values:
                lhs = Imp(I(a, P), Imp(I(b, Q), I(c, R)))
                rhs = Imp(And(I(a, P), I(b, Q)), I(c, R))
                out.append((f"(19) a={a},b={b},c={c}", Iff(lhs, rhs)))
    for a in values:
        out.append((f"(20) a={a}", Iff(J(top, Not(I(a, P))), Not(I(a, P)))))
    for a in values:
        for b in values:
            if a >= b:
                out.append((f"(21) a={a},b={b}", Imp(I(a, Q), I(b, Q))))
    return out


def test_criterion_1_theorem_corpus():
    started = time.monotonic()
    checked = 0
    for m in (3, 5):
        for label, phi in theorem_corpus(m):
            assert is_L_tautology(phi, m), f"{label} fails at m={m}"
            checked += 1
    # guard: the one-step congruence variant of (15) must NOT pass at m=3,
    # which is why the corpus carries the chained form
    single_step = Imp(Iff(P, Q), Iff(J(Fraction(1, 2), P), J(Fraction(1, 2), Q)))
    assert not is_L_tautology(single_step, 3)
    elapsed = report(1, "theorem corpus", started, f"{checked} instances")
    assert elapsed < 60


# --- criterion 2: graded constructions ----------------------------------------


def test_criterion_2_graded_tests_exhaustive():
    started = time.monotonic()
    checked = 0
    for m in range(2, 8):
        for k in range(m):
            a = Fraction(k, m - 1)
            j_expansion = mk_J(a, P, m)
            i_expansion = mk_I(a, P, m)
            for v in chain(m):
                env = {"p": v}
                want_j = TruthValue.top(m) if v.numerator == k else TruthValue.bottom(m)
                want_i = TruthValue.top(m) if v.numerator >= k else TruthValue.bottom(m)
                assert value_under(j_expansion, env, m) == want_j
                assert value_under(i_expansion, env, m) == want_i
                assert value_under(J(a, P), env, m) == want_j
                assert value_under(I(a, P), env, m) == want_i
                checked += 4
    elapsed = report(2, "graded value tests", started, f"{checked} table entries")
    assert elapsed < 30


# --- criterion 3: soundness battery -------------------------------------------


def axiom_instances() -> list[object]:
    atoms = (P, Q, R)
    out = []
    for phi, psi, theta in product(atoms, repeat=3):
        out.append(
            Imp(Cond(phi, And(psi, theta)), And(Cond(phi, psi), Cond(phi, theta)))
        )
        out.append(
            Imp(And(Cond(phi, psi), Cond(phi, theta)), Cond(phi, And(psi, theta)))
        )
    for phi in atoms:
        out.append(Cond(phi, Top()))
    return out


def test_criterion_3_axiom_soundness_on_random_models():
    started = time.monotonic()
    instances = axiom_instances()
    assert len(instances) == 57
    violations = 0
    for seed in range(500):
        model = random_model(seed, 3, 1 + seed % 3, ("p", "q", "r"), seed % 2)
        evaluator = Evaluator(model)
        for phi in instances:
            for world in model.worlds:
                if not evaluator.value(world, phi).is_designated:
                    violations += 1
    assert violations == 0
    elapsed = report(3, "axiom soundness", started, "500 models x 57 instances")
    assert elapsed < 60


def test_criterion_3_axiom_soundness_by_exhaustive_search():
    """No model of up to 2 worlds at m=3 that meets the identity frame
    condition refutes an axiom instance or p => p; the candidates of every
    search are counted, to the last one."""
    started = time.monotonic()
    instances = axiom_instances() + [Cond(P, P)]
    total = 0
    for phi in instances:
        outcome = countermodel_search(phi, 3, SearchBounds(max_worlds=2), require_fid=True)
        assert outcome.found is None and not outcome.exhausted, print_formula(phi)
        total += outcome.candidates
    assert total == 954_108
    elapsed = report(3, "axiom soundness by search", started, f"{len(instances)} formulas")
    assert elapsed < 30


# --- criterion 4: CK fails end to end -----------------------------------------


def test_criterion_4_ck_countermodel_via_cli(capsys, tmp_path):
    started = time.monotonic()
    ck = "(p => (q -> r)) -> ((p => q) -> (p => r))"
    code = main(["search", "--m", "3", "--max-worlds", "2", "--formula", ck])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["status"] == "countermodel"

    model_file = tmp_path / "ck_countermodel.json"
    model_file.write_text(json.dumps(payload))
    code = main(
        [
            "eval",
            "--model",
            str(model_file),
            "--world",
            payload["witness_world"],
            "--formula",
            ck,
        ]
    )
    evaluated = json.loads(capsys.readouterr().out)
    assert code == 0
    assert evaluated["designated"] is False
    assert evaluated["value"] == payload["value"]
    elapsed = report(4, "CK countermodel", started)
    assert elapsed < 120


# --- criterion 5: identity axiom under the frame condition --------------------


def clamp_to_fid(model: KripkeModel) -> KripkeModel:
    """Lower relation entries until the identity frame condition holds.

    An entry with numerator e pointing at a world in cell j (1-based)
    is admissible iff e <= j - 1, so clamping to that ceiling is the
    least destructive repair.
    """
    relations = {}
    for prop, matrix in model.relations.items():
        cell_of = {}
        for j, cell in enumerate(prop.cells, start=1):
            for w in cell:
                cell_of[w] = j
        rows = []
        for xi, _ in enumerate(model.worlds):
            row = []
            for yi, y in enumerate(model.worlds):
                ceiling = cell_of[y] - 1
                entry = matrix[xi][yi]
                row.append(
                    entry
                    if entry.numerator <= ceiling
                    else TruthValue(ceiling, model.m)
                )
            rows.append(tuple(row))
        relations[prop] = tuple(rows)
    return KripkeModel(
        m=model.m,
        worlds=model.worlds,
        vars=model.vars,
        valuation=model.valuation,
        relations=relations,
        default_policy=model.default_policy,
    )


def test_criterion_5_identity_conditional_and_fid():
    started = time.monotonic()
    identity = Cond(P, P)
    for seed in range(200):
        model = clamp_to_fid(
            random_model(seed, 3, 1 + seed % 3, ("p", "q"), seed % 2)
        )
        assert check_fid(model) == []
        assert valid_in_model(model, identity)

    outcome = countermodel_search(identity, 3, SearchBounds(max_worlds=1))
    assert outcome.found is not None
    model, witness = outcome.found
    assert len(model.worlds) == 1
    assert not eval_formula(model, witness, identity).is_designated
    elapsed = report(5, "identity conditional under fid", started, "200 models")
    assert elapsed < 60


# --- criterion 6: filtration preservation -------------------------------------


def test_criterion_6_filtration_preserves_sigma_values():
    started = time.monotonic()
    sigma_plain = subformula_closure(parse("p => q"))
    sigma_mixed = subformula_closure(parse("(p & J{1/2}(q)) => (q -> r)"))
    checked = 0
    for seed in range(200):
        model = random_model(seed, 3, 1 + seed % 4, ("p", "q", "r"), seed % 3)
        for sigma in (sigma_plain, sigma_mixed):
            quotient, class_map = filtrate(model, sigma)
            assert check_preservation(model, quotient, class_map, sigma) == []
            assert len(quotient.worlds) <= 3 ** len(sigma)
            checked += 1
    elapsed = report(6, "filtration preservation", started, f"{checked} filtrations")
    assert elapsed < 120


# --- criterion 7: classical degeneration at m=2 -------------------------------


def classical_truth(model: KripkeModel, world: str, phi) -> bool:
    """Independent two-valued evaluation, conditionals by the textbook clause."""
    from mvcond import syntax as s

    if isinstance(phi, s.Var):
        return model.valuation[phi.name][world].numerator == 1
    if isinstance(phi, s.Top):
        return True
    if isinstance(phi, s.Bot):
        return False
    if isinstance(phi, s.Not):
        return not classical_truth(model, world, phi.child)
    if isinstance(phi, s.Imp):
        return (not classical_truth(model, world, phi.left)) or classical_truth(
            model, world, phi.right
        )
    if isinstance(phi, s.And):
        return classical_truth(model, world, phi.left) and classical_truth(
            model, world, phi.right
        )
    if isinstance(phi, s.Or):
        return classical_truth(model, world, phi.left) or classical_truth(
            model, world, phi.right
        )
    if isinstance(phi, s.Cond):
        truth_set = tuple(
            w for w in model.worlds if classical_truth(model, w, phi.left)
        )
        false_set = tuple(w for w in model.worlds if w not in truth_set)
        matrix = model.relations.get(Proposition((false_set, truth_set)))
        x = model.worlds.index(world)
        if matrix is None:
            accessible = []
        else:
            accessible = [
                y
                for yi, y in enumerate(model.worlds)
                if matrix[x][yi].numerator == 1
            ]
        return all(classical_truth(model, y, phi.right) for y in accessible)
    raise TypeError(f"unexpected node {phi!r}")


def test_criterion_7_two_valued_degeneration():
    started = time.monotonic()
    antecedents = [P, Q, Not(P), And(P, Q), parse("p | q")]
    consequents = [P, Q, parse("p -> q"), Not(Q)]
    compared = 0
    for seed in range(200):
        model = random_model(seed, 2, 1 + seed % 3, ("p", "q"), seed % 2)
        for alpha in antecedents:
            for beta in consequents:
                phi = Cond(alpha, beta)
                for world in model.worlds:
                    chain_value = eval_formula(model, world, phi)
                    assert chain_value.numerator in (0, 1)
                    assert chain_value.is_designated == classical_truth(
                        model, world, phi
                    )
                    compared += 1
    elapsed = report(7, "classical degeneration", started, f"{compared} comparisons")
    assert elapsed < 30


# --- criterion 8: proof checker gauntlet --------------------------------------

RCEC_GOAL = "(p => (q & r)) -> (p => (r & q))"
RA_GOAL = "I{0}(p => s) -> (I{1/2}(p => r) -> (I{1}(p => q) -> I{1}(p => q)))"

# (line index, field, replacement, expected failing line); every
# replacement changes exactly one token of the original document
RCEC_MUTATIONS = [
    (0, "formula", "q & r <-> r & r", 1),
    (0, "formula", "q | r <-> r & q", 1),
    (0, "formula", "q & r <-> q & q", 1),
    (0, "formula", "q & r <-> r | q", 1),
    (0, "rule", "A1", 1),
    (1, "formula", "(p => (q & r)) <-> (q => (r & q))", 2),
    (1, "formula", "(p => (q & r)) <-> (p => (r & p))", 2),
    (1, "formula", "(p => (q & r)) -> (p => (r & q))", 2),
    (1, "formula", "(p => (q & p)) <-> (p => (r & q))", 2),
    (1, "rule", "RCEA", 2),
    (1, "args:i", 2, 2),
    (2, "formula",
     "((p => (q & r)) <-> (p => (r & q))) -> ((p => (q & r)) -> (p => (r & r)))",
     3),
    (2, "formula",
     "((p => (q & r)) <-> (p => (r & q))) <-> ((p => (q & r)) -> (p => (r & q)))",
     3),
    (2, "rule", "LID", 3),
    (2, "rule", "A2", 3),
    (3, "formula", "(p => (q & r)) -> (p => (q & q))", 4),
    (3, "rule", "RCEC", 4),
    (3, "args:i", 1, 4),
    (3, "args:j", 1, 4),
    (3, "args:j", 5, 4),
]

RA_MUTATIONS = [
    (0, "formula", "I{0}(s) -> (I{1/2}(r) -> (I{1}(q) -> I{1}(p)))", 1),
    (0, "formula", "I{0}(s) -> (I{1}(r) -> (I{1}(q) -> I{1}(q)))", 4),
    (0, "formula", "I{0}(p) -> (I{1/2}(r) -> (I{1}(q) -> I{1}(q)))", 4),
    (0, "rule", "A3", 1),
    (1, "formula", "I{0}(s) -> (I{0}(r) -> (I{0}(q) -> I{1/2}(q)))", 2),
    (1, "formula", "I{0}(s) -> (I{1/2}(r) -> (I{1/2}(q) -> I{1/2}(q)))", 4),
    (1, "rule", "LID", 2),
    (2, "formula", "I{0}(s) -> (I{0}(r) -> (I{0}(q) -> I{0}(r)))", 4),
    (2, "formula", "I{1/2}(s) -> (I{0}(r) -> (I{0}(q) -> I{0}(q)))", 4),
    (2, "formula", "I{0}(s) -> (I{0}(s) -> (I{0}(q) -> I{0}(q)))", 4),
    (3, "args:a", "1/2", 4),
    (3, "args:gamma", "r", 4),
    (3, "args:gammas", ["q", "r", "r"], 4),
    (3, "args:premise_lines", [2, 2, 3], 4),
    (3, "args:premise_lines", [1, 3, 2], 4),
    (3, "args:premise_lines", [1, 2, 4], 4),
    (3, "args:phi", "q", 4),
    (3, "formula", "I{0}(q => s) -> (I{1/2}(p => r) -> (I{1}(p => q) -> I{1}(p => q)))", 4),
    (3, "formula", "I{0}(p => s) -> (I{1/2}(p => r) -> (I{1}(p => q) -> I{1/2}(p => q)))", 4),
    (3, "formula", "I{1/2}(p => s) -> (I{1/2}(p => r) -> (I{1}(p => q) -> I{1}(p => q)))", 4),
]


def apply_mutation(doc: dict, line_index: int, field: str, value) -> dict:
    out = json.loads(json.dumps(doc))
    entry = out["lines"][line_index]
    if field.startswith("args:"):
        entry["args"][field.split(":", 1)[1]] = value
    else:
        entry[field] = value
    return out


def test_criterion_8_proof_checker_gauntlet():
    started = time.monotonic()
    cases = [
        ("rcec_mp.json", RCEC_GOAL, RCEC_MUTATIONS),
        ("ra_level_one.json", RA_GOAL, RA_MUTATIONS),
    ]
    for filename, goal_text, mutations in cases:
        path = DATA / "derivations" / filename
        goal = parse(goal_text)
        derivation = load_derivation(str(path))
        verdict = check_derivation(derivation, goal)
        assert verdict.ok, f"{filename}: {verdict.message}"

        assert len(mutations) == 20
        doc = json.loads(path.read_text(encoding="utf-8"))
        for line_index, field, value, expected_line in mutations:
            mutated = derivation_from_json(
                apply_mutation(doc, line_index, field, value)
            )
            verdict = check_derivation(mutated, goal)
            label = f"{filename} line {line_index + 1} {field}={value!r}"
            assert not verdict.ok, f"{label} was accepted"
            assert verdict.line == expected_line, (
                f"{label}: failed at line {verdict.line}, "
                f"expected {expected_line} ({verdict.message})"
            )
    elapsed = report(8, "proof checker gauntlet", started, "2 samples, 40 mutations")
    assert elapsed < 10


# --- criterion 9: parser round trip -------------------------------------------


def test_criterion_9_parser_round_trip():
    started = time.monotonic()
    rng = Random(90125)
    for _ in range(1000):
        phi = random_formula(rng, rng.randrange(0, 9))
        printed = print_formula(phi)
        assert parse(printed) == phi, printed
    elapsed = report(9, "parser round trip", started, "1000 formulas")
    assert elapsed < 10
