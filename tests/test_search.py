"""Tautology tables, bounded countermodel search, filtration, generators."""

import hashlib
import json
import time
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from mvcond.parser import parse
from mvcond.search import (
    ConditionalPresentError,
    SearchBounds,
    SearchError,
    SigmaNotClosedError,
    abstract_conditionals,
    check_preservation,
    countermodel_search,
    falsifying_assignment,
    filtrate,
    is_L_tautology,
    random_model,
    value_under,
)
from mvcond.semantics import (
    eval_formula,
    model_to_json,
    proposition_of,
    validate_model,
)
from mvcond.syntax import Cond, Imp, Not, Or, Var, free_vars, subformula_closure
from mvcond.truthvalues import ScaleMismatchError, TruthValue, chain

from formula_gen import chain_formula

P, Q, R = Var("p"), Var("q"), Var("r")


def classical_value(phi, env):
    """Independent two-valued table used to cross-check the m=2 chain."""
    from mvcond import syntax as s

    if isinstance(phi, s.Var):
        return env[phi.name]
    if isinstance(phi, s.Top):
        return True
    if isinstance(phi, s.Bot):
        return False
    if isinstance(phi, s.Not):
        return not classical_value(phi.child, env)
    if isinstance(phi, s.Imp):
        return (not classical_value(phi.left, env)) or classical_value(phi.right, env)
    if isinstance(phi, (s.And, s.OTimes)):
        return classical_value(phi.left, env) and classical_value(phi.right, env)
    if isinstance(phi, (s.Or, s.OPlus)):
        return classical_value(phi.left, env) or classical_value(phi.right, env)
    if isinstance(phi, s.OMinus):
        return classical_value(phi.left, env) and not classical_value(phi.right, env)
    if isinstance(phi, s.Iff):
        return classical_value(phi.left, env) == classical_value(phi.right, env)
    raise TypeError(f"unexpected node {phi!r}")


def test_tautology_examples():
    for m in (3, 4, 5):
        assert is_L_tautology(parse("p -> (q -> p)"), m)
    assert not is_L_tautology(parse("p | ~p"), 3)
    assert is_L_tautology(parse("(p => q) -> (p => q)"), 3, abstract_conditionals=True)


def test_tautology_requires_abstraction_for_conditionals():
    with pytest.raises(ConditionalPresentError):
        is_L_tautology(parse("(p => q) -> (p => q)"), 3)
    with pytest.raises(ConditionalPresentError):
        value_under(Cond(P, Q), {"p": TruthValue(0, 3), "q": TruthValue(0, 3)}, 3)


def test_falsifying_assignment_is_first_in_ascending_order():
    hit = falsifying_assignment(parse("p | ~p"), 3)
    assert hit == {"p": TruthValue(1, 3)}
    hit = falsifying_assignment(parse("p -> q"), 3)
    assert hit == {"p": TruthValue(1, 3), "q": TruthValue(0, 3)}
    assert falsifying_assignment(parse("p -> p"), 7) is None


def test_abstraction_shares_identical_conditionals():
    phi = Imp(Cond(P, Q), Cond(P, Q))
    rewritten, mapping = abstract_conditionals(phi)
    assert rewritten == Imp(Var("_c0"), Var("_c0"))
    assert list(mapping.values()) == [Var("_c0")]

    two = Or(Cond(P, Q), Cond(Q, P))
    rewritten, mapping = abstract_conditionals(two)
    assert rewritten == Or(Var("_c0"), Var("_c1"))
    assert len(mapping) == 2


def test_chain_tautology_at_m2_matches_classical_logic():
    rng = Random(404)
    for _ in range(120):
        phi = chain_formula(rng, 4, 2, names=("p", "q"))
        names = sorted(free_vars(phi))
        classical = all(
            classical_value(
                phi, dict(zip(names, [bool(b >> i & 1) for i in range(len(names))]))
            )
            for b in range(2 ** len(names))
        ) if not _has_graded(phi) else None
        if classical is None:
            continue
        assert is_L_tautology(phi, 2) == classical


def _has_graded(phi):
    from mvcond.syntax import I, J, children

    if isinstance(phi, (J, I)):
        return True
    return any(_has_graded(child) for child in children(phi))


def test_identity_conditional_has_the_documented_one_world_refutation():
    outcome = countermodel_search(
        parse("p => p"), 3, SearchBounds(max_worlds=1)
    )
    assert outcome.found is not None
    model, witness = outcome.found
    assert witness == "w0"
    assert outcome.value == TruthValue(0, 3)
    assert outcome.candidates == 1
    assert outcome.exhausted is False
    doc = model_to_json(model)
    assert doc["worlds"] == ["w0"]
    assert doc["valuation"] == {"p": {"w0": 0}}
    assert doc["relations"] == [
        {"prop": [["w0"], [], []], "matrix": {"w0": {"w0": 2}}}
    ]
    assert doc["default_relation"] == 0
    assert eval_formula(model, witness, parse("p => p")) == TruthValue(0, 3)


def test_ck_instance_has_the_documented_first_countermodel():
    phi = parse("(p => (q -> r)) -> ((p => q) -> (p => r))")
    outcome = countermodel_search(phi, 3, SearchBounds(max_worlds=2))
    assert outcome.found is not None
    model, witness = outcome.found
    assert outcome.candidates == 11
    assert witness == "w0"
    assert outcome.value == TruthValue(1, 3)
    doc = model_to_json(model)
    assert doc["worlds"] == ["w0"]
    assert doc["valuation"] == {"p": {"w0": 0}, "q": {"w0": 1}, "r": {"w0": 0}}
    assert doc["relations"] == [
        {"prop": [["w0"], [], []], "matrix": {"w0": {"w0": 1}}}
    ]
    assert eval_formula(model, witness, phi) == TruthValue(1, 3)


def test_axiom_instance_has_no_countermodel_within_bounds():
    phi = parse("(p => (q & r)) -> ((p => q) & (p => r))")
    outcome = countermodel_search(phi, 3, SearchBounds(max_worlds=1))
    assert outcome.found is None
    assert outcome.exhausted is False
    # 27 valuations of p, q, r over one world times 3 matrices for |p|
    assert outcome.candidates == 81


def test_budget_exhaustion_is_distinct_from_no_countermodel():
    phi = parse("(p => (q & r)) -> ((p => q) & (p => r))")
    short = countermodel_search(phi, 3, SearchBounds(max_worlds=1, max_candidates=10))
    assert short.found is None
    assert short.exhausted is True
    assert short.candidates == 10

    zero = countermodel_search(
        parse("p => p"), 3, SearchBounds(max_worlds=1, max_candidates=0)
    )
    assert zero.found is None
    assert zero.exhausted is True
    assert zero.candidates == 0


def test_search_respects_fid_restriction():
    outcome = countermodel_search(
        parse("p => p"), 3, SearchBounds(max_worlds=2), require_fid=True
    )
    assert outcome.found is None
    assert outcome.exhausted is False


def test_search_with_restricted_relation_values():
    outcome = countermodel_search(
        parse("p => p"), 3, SearchBounds(max_worlds=1, relation_values=(0,))
    )
    assert outcome.found is None
    within = countermodel_search(
        parse("p => p"), 3, SearchBounds(max_worlds=1, relation_values=(0, 2))
    )
    assert within.found is not None
    with pytest.raises(ValueError):
        countermodel_search(
            parse("p => p"), 3, SearchBounds(max_worlds=1, relation_values=(5,))
        )


def test_search_is_deterministic():
    phi = parse("(p => (q -> r)) -> ((p => q) -> (p => r))")
    first = countermodel_search(phi, 3, SearchBounds(max_worlds=2))
    second = countermodel_search(phi, 3, SearchBounds(max_worlds=2))
    assert first.candidates == second.candidates
    assert model_to_json(first.found[0]) == model_to_json(second.found[0])


def test_search_rejects_deep_conditional_nesting():
    deep = Cond(P, Cond(P, Cond(P, Cond(P, Q))))
    with pytest.raises(SearchError):
        countermodel_search(deep, 3, SearchBounds(max_worlds=1))


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_worlds=0)
    with pytest.raises(ValueError):
        SearchBounds(relation_values=())
    with pytest.raises(ValueError):
        SearchBounds(max_candidates=-1)


def test_nested_conditional_search_reaches_a_fixed_point():
    phi = parse("(p => q) => q")
    outcome = countermodel_search(phi, 3, SearchBounds(max_worlds=1))
    assert outcome.found is not None
    model, witness = outcome.found
    assert eval_formula(model, witness, phi) == outcome.value
    assert not outcome.value.is_designated


def test_filtrate_merges_agreeing_worlds_with_supremum_relations():
    from mvcond.semantics import KripkeModel

    sigma = subformula_closure(parse("p => q"))
    model = KripkeModel(
        m=3,
        worlds=("x1", "x2", "y"),
        vars=("p", "q"),
        valuation={
            "p": {
                "x1": TruthValue(2, 3),
                "x2": TruthValue(2, 3),
                "y": TruthValue(0, 3),
            },
            "q": {
                "x1": TruthValue(0, 3),
                "x2": TruthValue(0, 3),
                "y": TruthValue(2, 3),
            },
        },
        relations={},
        default_policy=TruthValue(0, 3),
    )
    prop = proposition_of(model, P)
    model.relations[prop] = (
        (TruthValue(0, 3), TruthValue(0, 3), TruthValue(0, 3)),
        (TruthValue(0, 3), TruthValue(0, 3), TruthValue(1, 3)),
        (TruthValue(0, 3), TruthValue(0, 3), TruthValue(0, 3)),
    )
    quotient, class_map = filtrate(model, sigma)
    assert class_map == {"x1": "c0", "x2": "c0", "y": "c2"}
    assert quotient.worlds == ("c0", "c2")
    assert quotient.vars == ("p", "q")
    doc = model_to_json(quotient)
    assert doc["relations"] == [
        {
            "prop": [["c2"], [], ["c0"]],
            "matrix": {
                "c0": {"c0": 0, "c2": 1},
                "c2": {"c0": 0, "c2": 0},
            },
        }
    ]
    assert check_preservation(model, quotient, class_map, sigma) == []
    assert len(quotient.worlds) <= 3 ** len(sigma)


def test_filtrate_distinguishable_worlds_stay_apart():
    model = random_model(8, 3, 3, ("p", "q"), 0)
    sigma = [P, Q]
    quotient, class_map = filtrate(model, sigma)
    signatures = {
        w: (
            model.valuation["p"][w].numerator,
            model.valuation["q"][w].numerator,
        )
        for w in model.worlds
    }
    assert len(quotient.worlds) == len(set(signatures.values()))
    assert check_preservation(model, quotient, class_map, sigma) == []


def test_filtrate_requires_subformula_closure():
    with pytest.raises(SigmaNotClosedError):
        filtrate(random_model(1, 3, 2, ("p", "q"), 0), [Cond(P, Q)])
    with pytest.raises(SigmaNotClosedError):
        filtrate(random_model(1, 3, 2, ("p",), 0), [])


def test_filtrate_keeps_default_policy_and_drops_foreign_vars():
    model = random_model(21, 3, 4, ("p", "q", "r"), 1)
    sigma = subformula_closure(parse("p => q"))
    quotient, class_map = filtrate(model, sigma)
    assert quotient.default_policy == model.default_policy
    assert quotient.vars == ("p", "q")
    assert set(class_map) == set(model.worlds)
    assert validate_model(quotient) == []
    assert check_preservation(model, quotient, class_map, sigma) == []


def test_filtration_preserves_values_on_random_models():
    sigma_simple = subformula_closure(parse("p => q"))
    mixed = parse("(p & q) => (q -> r)")
    sigma_mixed = subformula_closure(mixed)
    for seed in range(40):
        model = random_model(seed, 3, 1 + seed % 4, ("p", "q", "r"), seed % 3)
        for sigma in (sigma_simple, sigma_mixed):
            quotient, class_map = filtrate(model, sigma)
            assert check_preservation(model, quotient, class_map, sigma) == []
            assert len(quotient.worlds) <= 3 ** len(sigma)


def test_random_model_is_deterministic_and_well_formed():
    one = random_model(13, 4, 3, ("p", "q"), 2)
    two = random_model(13, 4, 3, ("p", "q"), 2)
    assert one == two
    assert validate_model(one) == []
    assert one.default_policy == TruthValue(0, 4)
    assert len(one.relations) >= 2


def test_random_model_keeps_duplicate_names_for_validation_to_report():
    model = random_model(1, 3, 2, ("p", "p"))
    assert model.vars == ("p", "p")
    assert "duplicate variable names" in validate_model(model)


def test_random_model_rejects_a_negative_relation_count():
    with pytest.raises(ValueError, match="n_extra_relations must be non-negative, got -1"):
        random_model(1, 3, 2, ("p",), -1)
    assert random_model(1, 3, 2, ("p",), 0) == random_model(1, 3, 2, ("p",))


def test_random_model_distinct_seeds_differ():
    docs = {
        seed: model_to_json(random_model(seed, 3, 3, ("p", "q"), 1))
        for seed in range(6)
    }
    assert any(docs[0] != docs[s] for s in range(1, 6))


def test_value_under_covers_every_connective():
    env = {"p": TruthValue(2, 4), "q": TruthValue(1, 4)}
    cases = {
        "p & q": 1,
        "p | q": 2,
        "p -> q": 2,
        "~p": 1,
        "p (+) q": 3,
        "p (*) q": 0,
        "p (-) q": 1,
        "p <-> q": 2,
        "T": 3,
        "F": 0,
        "J{2/3}(p)": 3,
        "I{1/3}(q)": 3,
        "I{2/3}(q)": 0,
    }
    for text, want in cases.items():
        assert value_under(parse(text), env, 4) == TruthValue(want, 4)
    with pytest.raises(ValueError):
        value_under(Var("zz"), env, 4)


@pytest.mark.parametrize("m", [1, 0, -1])
def test_chain_size_below_2_is_rejected_first(m):
    with pytest.raises(ValueError, match="m must be at least 2"):
        falsifying_assignment(parse("p -> p"), m)
    with pytest.raises(ValueError, match="m must be at least 2"):
        is_L_tautology(parse("p => p"), m)  # before the conditional is seen
    with pytest.raises(ValueError, match="m must be at least 2"):
        countermodel_search(parse("p => p"), m, SearchBounds(max_candidates=0))


def test_value_under_rejects_values_from_another_chain():
    with pytest.raises(ScaleMismatchError):
        value_under(parse("~p"), {"p": TruthValue(3, 5)}, 3)


def test_truth_table_memory_does_not_grow_with_m_squared():
    """Each block holds O(m) values per input, not a tuple per chain value."""
    phi = parse("p -> p")
    tracemalloc.start()
    try:
        assert falsifying_assignment(phi, 3000) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_truth_table_slabs_are_capped_in_cells():
    """A 10,000-leaf & chain over 12 variables at m=2 is falsified in row 0,
    so the table ends after its first slab. That slab is a few rows wide,
    not all 4,096 rows over 10,011 slots (about 41 million values)."""
    names = "abcdefghijkl"
    phi = parse(" & ".join(names[i % 12] for i in range(10_000)))
    tracemalloc.start()
    try:
        hit = falsifying_assignment(phi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit == {v: TruthValue(0, 2) for v in names}
    assert peak < 8 * 2**20


def test_search_without_conditionals_builds_no_relation_matrices():
    """The 3^9 matrices of 3 worlds are needed only for some antecedent."""
    phi = parse("p -> p")
    tracemalloc.start()
    try:
        outcome = countermodel_search(phi, 3, SearchBounds(max_worlds=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.found, outcome.candidates) == (None, 39)
    assert peak < 1_000_000


def test_nested_search_set_up_shares_the_rows():
    """A nested search to 3 worlds at m=3 builds its 3^9 matrices as
    triples of the 27 shared rows, not as slices of 3^9 nine-entry tuples,
    and its identity frame test reads those rows, so with the condition or
    without it builds nothing per matrix."""
    phi = parse("p => (p => (p -> p))")
    assert countermodel_search(phi, 3, SearchBounds(2)).candidates == 738  # 3 worlds reached
    outcomes = []
    for require_fid in (False, True):
        tracemalloc.start()
        try:
            outcomes.append(countermodel_search(phi, 3, SearchBounds(3, None, 2000), require_fid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.5 MiB; 3.9 MiB under require_fid with a column maximum kept per
        # matrix, 7.5 MiB when sliced from one n*n-entry product
        assert peak < 2.5 * 2**20, require_fid
    outcome = outcomes[0]
    assert (outcome.found, outcome.value, outcome.exhausted, outcome.candidates) == (
        None, None, True, 2000
    )
    assert outcomes[1] == outcome


GOLDEN = Path(__file__).parent / "data" / "search_golden.json"


def test_search_workload_outcomes_match_the_recorded_ones():
    """The 114 queries of the benchmark's search workload on seeds 1, 2, 3
    and 101, with the outcomes the candidate-by-candidate search gave."""
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(records) == 4 * 114
    for record in records:
        bounds = SearchBounds(
            max_worlds=record["max_worlds"], max_candidates=record["max_candidates"]
        )
        outcome = countermodel_search(
            parse(record["formula"]), record["m"], bounds, require_fid=record["fid"]
        )
        found = outcome.found
        digest = None
        if found is not None:
            document = json.dumps(model_to_json(found[0]), sort_keys=True)
            digest = hashlib.sha256(document.encode()).hexdigest()
        got = {
            "candidates": outcome.candidates,
            "exhausted": outcome.exhausted,
            "witness": None if found is None else found[1],
            "value": None if outcome.value is None else outcome.value.numerator,
            "model_sha256": digest,
        }
        assert got == {key: record[key] for key in got}, record["formula"]


def test_three_world_search_of_a1_is_exhaustive_in_seconds():
    """m^(3n) valuations of p, q, r, each with 3^(n^2) matrices for |p|."""
    phi = parse("(p => (q & r)) -> ((p => q) & (p => r))")
    started = time.monotonic()
    outcome = countermodel_search(phi, 3, SearchBounds(max_worlds=3))
    elapsed = time.monotonic() - started
    total = sum(3 ** (3 * n) * 3 ** (n * n) for n in (1, 2, 3))
    assert total == 387_479_619
    assert (outcome.found, outcome.exhausted, outcome.candidates) == (None, False, total)
    assert elapsed < 10


@pytest.mark.parametrize(
    "text,m,fid,total",
    [
        # 3^n valuations of p, each with 3^(n^2) matrices for |p|, n = 1..4
        ("p => p", 3, True, 3**2 + 3**6 + 3**12 + 3**20),
        # 2^(3n) valuations of p, q, r, each with 2^(n^2) matrices for |p|
        ("(p => (q & r)) -> ((p => q) & (p => r))", 2, False, 2**4 + 2**10 + 2**18 + 2**28),
    ],
)
def test_four_world_searches_count_every_candidate_in_closed_form(text, m, fid, total):
    """Only the least valuation of each orbit under permutations of the
    worlds is evaluated; the others add the same closed-form count."""
    started = time.monotonic()
    outcome = countermodel_search(parse(text), m, SearchBounds(max_worlds=4), require_fid=fid)
    elapsed = time.monotonic() - started
    assert (outcome.found, outcome.exhausted, outcome.candidates) == (None, False, total)
    assert elapsed < 5


def test_identity_under_fid_at_m4_and_three_worlds_builds_no_matrices():
    """The 4^9 three-world matrices are never built; rows are enough."""
    started = time.monotonic()
    tracemalloc.start()
    try:
        outcome = countermodel_search(
            Cond(P, P), 4, SearchBounds(max_worlds=3), require_fid=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.monotonic() - started
    total = sum(4**n * 4 ** (n * n) for n in (1, 2, 3))
    assert total == 16_781_328
    assert (outcome.found, outcome.exhausted, outcome.candidates) == (None, False, total)
    assert peak < 1_000_000
    assert elapsed < 5
