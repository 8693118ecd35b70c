"""The search workload: countermodel_search on many tiny models.

Seeded substitution instances of the LCR axioms A1, A2, A3 and of p => p
under --fid are searched exhaustively and must yield no countermodel
(soundness). Known non-theorems stop at their first countermodel, which
the reference semantics re-evaluates. Substitutions are conditional-free
and use exactly k variables, so each instance enumerates the same number
of candidates whatever the seed; only the substituted formulas vary.
"""

from __future__ import annotations

import functools
import json
import random

import gen
import oracle
from common import Op, import_mvcond

A, B, C = "A", "B", "C"

SCHEMAS = {
    "A1": ("imp", ("cond", A, ("and", B, C)),
           ("and", ("cond", A, B), ("cond", A, C))),
    "A2": ("imp", ("and", ("cond", A, B), ("cond", A, C)),
           ("cond", A, ("and", B, C))),
    "A3": ("cond", A, ("top",)),
    "LID": ("cond", A, A),
}

# (schema, m, max_worlds, variables, substitution size, copies, fid); every
# instance holds. Candidates per instance are fixed by m, max_worlds and
# the number of variables, and each instance's connectives are dealt from
# one multiset, so an instance costs about the same on every seed. The
# list is ordered heaviest first, in blocks of about equal cost. With the
# non-theorems below there are 114 operations: the six heaviest sit above
# the 90th percentile of operation latency, which falls among the 14 next
# (about 25-40 ms each); the median falls among the 20 lightest instances
# (3-5 ms each), with as many operations above them as below. Under --fid the cost grows with the candidates
# that pass FID, so FID instances are kept only if their antecedent lets
# as many pass as `p` does.
AXIOM_QUERIES = [
    ("A1", 2, 2, 2, 2, 2, False),
    ("A2", 2, 2, 2, 2, 2, False),
    ("A3", 3, 2, 1, 2, 1, False),
    ("LID", 3, 2, 1, 2, 1, True),
    ("A3", 2, 2, 2, 2, 4, False),
    ("A1", 4, 1, 3, 1, 3, False),
    ("A2", 4, 1, 3, 1, 3, False),
    ("A1", 2, 2, 1, 2, 2, False),
    ("A2", 2, 2, 1, 2, 2, False),
    ("LID", 2, 2, 2, 2, 2, True),
    ("A1", 3, 1, 3, 1, 4, False),
    ("A2", 3, 1, 3, 1, 4, False),
    ("A3", 2, 2, 1, 2, 4, False),
    ("LID", 2, 2, 1, 2, 4, True),
    ("A1", 3, 1, 2, 1, 6, False),
    ("A2", 3, 1, 2, 1, 6, False),
    ("A1", 2, 1, 3, 1, 4, False),
    ("A2", 2, 1, 3, 1, 4, False),
    ("A3", 4, 1, 2, 1, 4, False),
]

# (formula, m values, fid); each has a countermodel within 2 worlds.
NON_THEOREMS = [
    ("(p => (q -> r)) -> ((p => q) -> (p => r))", (3, 4), False),
    ("(p => q) -> (p -> q)", (2, 3, 4), False),
    ("(p => q) -> ((p & r) => q)", (2, 3, 4), False),
    ("((p => q) & (q => r)) -> (p => r)", (2, 3, 4), False),
    ("(p => q) -> (~q => ~p)", (2, 3, 4), False),
    ("(p => q) | (p => ~q)", (3, 4), False),
    ("p -> (q => p)", (2,), False),
    ("(p => q) -> (q => p)", (2, 3, 4), False),
    ("(p -> q) -> (p => q)", (2, 3, 4), False),
    ("((p | q) => r) -> (p => r)", (2, 3, 4), False),
    ("(p => q) -> (p => (q & r))", (2, 3, 4), False),
    ("(p => q) & (q => p) -> (p <-> q)", (2, 3, 4), False),
    ("q -> (p => q)", (2, 3), False),
    ("(p => ~p) -> ~p", (2, 3, 4), False),
    ("((p => q) & (p => r)) -> ((p & q) => r)", (3, 4), False),
    ("(p => (q -> r)) -> ((p => q) -> (p => r))", (3,), True),
    ("((p => q) & (q => r)) -> (p => r)", (3,), True),
    ("(p => q) -> ((p & r) => q)", (3,), True),
    ("(p => q) -> (q => p)", (3,), True),
    ("((p | q) => r) -> (p => r)", (3,), True),
    ("(p => q) -> (p => (q & r))", (3, 4), True),
    ("(p => q) -> (q => p)", (2, 4), True),
    ("(p => q) & (q => p) -> (p <-> q)", (3,), True),
    ("(p => ~p) -> ~p", (2, 3, 4), True),
]

POOL = ("p", "q", "r")
# Far above any query's count (at most 738 today), so it never binds on a
# correct program; a program that stops finding countermodels runs out of
# budget and is reported, instead of searching for minutes.
BUDGET = 20_000


def _fid_passing(antecedent, names, m, max_worlds):
    """Candidates of an exhaustive `a => a` search over names that satisfy FID.

    Entry (x, y) may take any degree up to the antecedent's value at y,
    so a valuation admits prod_y (v(y) + 1)^n matrices; worlds are valued
    independently, which makes the sum over valuations a power.
    """
    table = oracle.table_model(list(names), m)
    values = oracle.evaluate(table, antecedent)
    return sum(
        sum((v + 1) ** n for v in values) ** n for n in range(1, max_worlds + 1)
    )


class Workload:
    def __init__(self, seed: int, workdir, tr):
        self.mv, self.import_s = import_mvcond()
        rng = random.Random(seed)
        queries = []  # (kind, text, instance or None, m, max_worlds, fid, refutable)
        for schema, m, worlds, k, size, copies, fid in AXIOM_QUERIES:
            for _ in range(copies):
                pool = POOL[:k]
                while True:
                    instance = gen.covering(lambda: gen.substitute(
                        SCHEMAS[schema], gen.random_substitution(rng, (A, B, C), size, pool)), pool)
                    # Under --fid the cost grows with the candidates that pass
                    # FID, so keep antecedents that let as many pass as `p` does.
                    if not fid or (_fid_passing(instance[1], pool, m, worlds)
                                   == _fid_passing(gen.var("p"), pool, m, worlds)):
                        break
                queries.append((schema, gen.render(instance), instance, m, worlds, fid, False))
        for text, ms, fid in NON_THEOREMS:
            for m in ms:
                queries.append(("non-theorem", text, None, m, 2, fid, True))
        path = workdir / "search_queries.json"
        path.write_text(json.dumps([q[1] for q in queries]))
        if json.loads(path.read_text()) != [q[1] for q in queries]:
            raise RuntimeError(f"{path} does not read back")
        parse = self.mv.parser.parse
        self.ops = []
        for kind, text, instance, m, worlds, fid, refutable in queries:
            phi = parse(text)
            bounds = self.mv.search.SearchBounds(max_worlds=worlds, max_candidates=BUDGET)
            self.ops.append(self._op(kind, phi, instance, m, bounds, fid, refutable))

    def _op(self, kind, phi, instance, m, bounds, fid, refutable):
        search = self.mv.search.countermodel_search
        to_json = self.mv.semantics.model_to_json
        exhaustive_fid = fid and not refutable
        passing = functools.cache(
            lambda: _fid_passing(instance[1], oracle.free_vars(instance), m, bounds.max_worlds))

        def run(tr):
            with tr.span("search.countermodel_search") as sp:
                out = search(phi, m, bounds, require_fid=fid)
            sp.add(candidates=out.candidates)
            if exhaustive_fid:
                sp.add(fid_candidates=out.candidates, fid_passing=passing())
            return out

        def check(out):
            if out.exhausted:
                return [f"{kind} m={m}: search ran out of budget"]
            if not refutable:
                if out.found is not None:
                    return [f"{kind} m={m}: countermodel to a valid formula"]
                return []
            if out.found is None:
                return [f"{kind} m={m}: no countermodel to a non-theorem"]
            model, witness = out.found
            doc = to_json(model)
            ref = oracle.Model.from_doc(doc)
            values = oracle.evaluate(ref, instance or oracle.from_program(phi))
            w = ref.worlds.index(witness)
            problems = []
            if values[w] == m - 1 or values[w] != out.value.numerator:
                problems.append(f"{kind} m={m}: witness value {values[w]} disagrees")
            if fid and oracle.fid_violations(ref):
                problems.append(f"{kind} m={m}: countermodel violates FID")
            return problems

        def digest(out):
            witness = out.found[1] if out.found else None
            value = out.value.numerator if out.value else None
            return (out.candidates, out.exhausted, witness, value)

        return Op(f"search.{kind}", run, check, digest)


    @staticmethod
    def layer_metrics(tr, rounds: int) -> dict:
        entry = tr.by_name()["search.countermodel_search"]
        counts = entry["counts"]
        return {
            "search.candidates": (counts["candidates"] / rounds, "count"),
            "search.us_per_candidate": (sum(entry["ns"]) / 1e3 / counts["candidates"], "us"),
            "search.fid_pass_ratio": (counts["fid_passing"] / counts["fid_candidates"], "ratio"),
        }
