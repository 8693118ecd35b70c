"""The formulas workload: parser, printer, normalize, truth tables, proofs.

No search and no large models: it stresses the parser, syntax, truth-table
and proof layers and the cost of hashing large trees (chain evaluation on
one 8-world model grows quadratically in the chain length today). It also
keeps a fixed handful of deeply nested inputs that raise RecursionError
today; they do not depend on the seed, fail on every run, and are counted
as failed operations until the recursion is removed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
import statistics
from fractions import Fraction

import gen
import oracle
from common import Op, import_mvcond, slope

POOL = ("p", "q", "r", "s")
TAUT_POOL = ("p", "q", "r")
PARSE_INDICES = tuple(sorted({Fraction(a, b) for b in (1, 2, 3, 4) for a in range(b + 1)}))
GRADED = [  # (operator, index, m) for normalize; mk_J cost depends on both
    ("J", Fraction(1, 2), 3), ("I", Fraction(1, 2), 3),
    ("J", Fraction(1, 4), 5), ("I", Fraction(3, 4), 5),
    ("J", Fraction(1, 2), 9), ("I", Fraction(3, 4), 9),
    ("J", Fraction(3, 8), 9), ("I", Fraction(7, 8), 9),
]
TAUT_SCHEMAS = [  # Lukasiewicz tautologies on every finite chain
    ("imp", "A", ("imp", "B", "A")),
    ("imp", ("imp", "A", "B"), ("imp", ("imp", "B", "C"), ("imp", "A", "C"))),
    ("imp", ("imp", ("imp", "A", "B"), "B"), ("imp", ("imp", "B", "A"), "A")),
    ("imp", ("imp", ("not", "A"), ("not", "B")), ("imp", "B", "A")),
    ("imp", ("and", "A", "B"), ("or", "A", "C")),
]
# p | ~p first fails in the middle row, the last one only in the last row
NON_TAUTOLOGIES = [("p | ~p", 3), ("(p -> q) -> (q -> p)", 5), ("~(I{1}(p) & I{1}(q))", 3)]
CHAIN_SIZES = (64, 128, 256)
# Fixed inputs nested past the default recursion limit of 1000 frames.
# Each is about a tenth deeper than the least depth that fails at the
# benchmark's call sites today (parentheses: past 100, where 65 already
# fail), so that once the recursion is gone it costs as little as it
# can. Parsing uses about one frame per level of ~ or ->, print_formula
# one per level of &, normalize about four, and Evaluator.value and
# subformula_closure about two.
DEEP_PARENS = 120
DEEP_PARSE = 1100  # ~ prefixes, and -> chain length
DEEP_PRINT_AND = 1100
DEEP_NORMALIZE_AND = 300
DEEP_EVAL_AND = 550  # Evaluator.value and subformula_closure
CORE_NODES = {"Var", "Not", "Imp", "Cond"}
# One match per formula node: atoms, ~, J, I and the binary connectives.
NODE_TOKEN = re.compile(r"[a-z][A-Za-z0-9_]*|[TFJI~&|]|\([+*-]\)|<->|->|=>")


def _sample_model(rng, names, m, rows=24):
    """A model over sampled assignments, with a constant relation default."""
    val = {v: [rng.randrange(m) for _ in range(rows)] for v in names}
    return oracle.Model(m, [str(i) for i in range(rows)], val, {}, m // 2)


class Workload:
    def __init__(self, seed: int, workdir, tr):
        self.mv, self.import_s = import_mvcond()
        mv = self.mv
        rng = random.Random(seed)
        parse = mv.parser.parse
        self.ops = []

        # parse and print: random formulas over every connective, and chains
        texts = [
            gen.render(gen.random_formula(rng, 40, POOL, gen.ALL_BINARY, unary=8,
                                          graded=PARSE_INDICES, constants=True))
            for _ in range(21)
        ]
        for op in ("and", "or"):
            texts.append(gen.render(gen.left_chain(op, [gen.var(rng.choice(POOL)) for _ in range(150)])))
        texts.append(gen.render(gen.right_chain("imp", [gen.var(rng.choice(POOL)) for _ in range(150)])))
        for text in texts:
            self.ops.append(self._parse_op(text, text))
        for text in texts:
            self.ops.append(self._print_op(parse(text), text))

        # normalize: cheap connectives, graded operators, nested <->, a chain
        normal = [(gen.random_formula(rng, 30, POOL, unary=6, constants=True), 5) for _ in range(8)]
        for tag, index, m in GRADED:
            normal.append(((tag, index, gen.random_formula(rng, 3, POOL, gen.PLAIN_BINARY)), m))
        for _ in range(2):
            subs = gen.random_substitution(rng, "xyz", 4, POOL)
            normal.append((("iff", ("iff", subs["x"], subs["y"]), subs["z"]), 5))
        normal.append((gen.left_chain("and", [gen.var(rng.choice(POOL)) for _ in range(100)]), 5))
        for phi, m in normal:
            self.ops.append(self._normalize_op(parse(gen.render(phi)), phi, m, rng))

        # truth tables over exactly three variables at m = 3, 5, 9. The ten
        # m = 9 instances share one schema and substitution size, so they
        # cost about the same; the 90th percentile of latency falls among them.
        graded_leaves = {"graded": gen.ON_ALL_CHAINS, "unary": 1}
        tables = [(schema, m, graded_leaves) for schema in TAUT_SCHEMAS for m in (3, 5)]
        tables += [(TAUT_SCHEMAS[1], 9, {})] * 10
        for schema, m, unary in tables:
            phi = gen.covering(lambda: gen.substitute(
                schema, gen.random_substitution(rng, "ABC", 2, TAUT_POOL, **unary)), TAUT_POOL)
            self.ops.append(self._taut_op(parse(gen.render(phi)), phi, m))
        for text, m in NON_TAUTOLOGIES:
            phi = parse(text)
            self.ops.append(self._taut_op(phi, oracle.from_program(phi), m))

        # derivations: short graded-rule ones and a long congruence one
        docs = [("short", *gen.ra_derivation(rng, m, TAUT_POOL, 2)) for m in (3, 3, 5, 5)]
        docs.append(("long", *gen.rcec_derivation(rng, 3, TAUT_POOL, 150)))
        for k, (length, doc, goal) in enumerate(docs):
            path = workdir / f"derivation{k}.json"
            path.write_text(json.dumps(doc))
            derivation = mv.proof.load_derivation(str(path))
            self.ops.append(self._proof_op(length, derivation, parse(goal), doc, rng))

        # chain evaluation on one 8-world model
        with tr.span("search.random_model"):
            model = mv.search.random_model(seed, 5, 8, POOL)
        ref = functools.cache(lambda: oracle.Model.from_doc(mv.semantics.model_to_json(model)))
        for op, chain in (("and", gen.left_chain), ("imp", gen.right_chain)):
            for n in CHAIN_SIZES:
                phi = chain(op, [gen.var(rng.choice(POOL)) for _ in range(n)])
                self.ops.append(self._eval_op(f"{op}{n}", model, ref, parse(gen.render(phi)), phi, n))

        # fixed inputs nested past the recursion limit
        parens = "(" * DEEP_PARENS + "p" + ")" * DEEP_PARENS
        nots = "~" * DEEP_PARSE + "p"
        imps = " -> ".join(POOL[i % 4] for i in range(DEEP_PARSE))
        for text, expected in ((parens, "p"), (nots, nots), (imps, imps)):
            self.ops.append(self._parse_op(text, expected, known_fault=True))
        deep = {}
        for n in (DEEP_PRINT_AND, DEEP_NORMALIZE_AND, DEEP_EVAL_AND):
            ref_phi = gen.left_chain("and", [gen.var(POOL[i % 4]) for i in range(n)])
            deep[n] = (ref_phi, gen.render(ref_phi), parse(gen.render(ref_phi)))
        ref_phi, text, phi = deep[DEEP_PRINT_AND]
        self.ops.append(self._print_op(phi, text, known_fault=True))
        ref_phi, text, phi = deep[DEEP_NORMALIZE_AND]
        self.ops.append(self._normalize_op(phi, ref_phi, 5, rng, known_fault=True))
        ref_phi, text, phi = deep[DEEP_EVAL_AND]
        self.ops.append(self._eval_op("deep", model, ref, phi, ref_phi, DEEP_EVAL_AND,
                                      known_fault=True))
        self.ops.append(self._closure_op(phi, ref_phi, DEEP_EVAL_AND))
        self.ops.append(self._cli_parse_op(parens))

    # operations ----------------------------------------------------------
    # Reference results are computed on first use, in the check round, so
    # set-up times only mvcond and the building of inputs.

    def _parse_op(self, text, expected, known_fault=False):
        """parse(text) must give the tree whose reference rendering is expected."""
        parse = self.mv.parser.parse
        nodes = len(NODE_TOKEN.findall(text))

        def run(tr):
            with tr.span("parser.parse") as sp:
                phi = parse(text)
            sp.add(nodes=nodes)
            return phi

        def check(phi):
            return [] if _same_text(phi, expected) else [f"parse: {text[:40]}... read back wrong"]

        return Op("formulas.parse", run, check, _shape, known_fault)

    def _print_op(self, phi, text, known_fault=False):
        print_formula = self.mv.parser.print_formula
        parse = self.mv.parser.parse
        nodes = functools.cache(lambda: oracle.tree_size(oracle.from_program(phi)))

        def run(tr):
            with tr.span("parser.print_formula") as sp:
                out = print_formula(phi)
            sp.add(nodes=nodes())
            return out

        def check(out):
            # equal reference renderings mean equal trees, compared without recursion
            if not (_same_text(phi, text) and _same_text(parse(out), text)):
                return [f"print: parse(print_formula(phi)) != phi for {text[:40]}..."]
            return []

        return Op("formulas.print", run, check, lambda out: out, known_fault)

    def _normalize_op(self, phi, ref_phi, m, rng, known_fault=False):
        normalize = self.mv.syntax.normalize
        model = _sample_model(rng, oracle.free_vars(ref_phi), m)

        def run(tr):
            with tr.span("syntax.normalize"):
                return normalize(phi, m)

        def check(out):
            kinds = oracle.program_node_kinds(out)
            problems = []
            if not kinds <= CORE_NODES:
                problems.append(f"normalize left {sorted(kinds - CORE_NODES)} nodes")
            if oracle.evaluate(model, oracle.from_program(out)) != oracle.evaluate(model, ref_phi):
                problems.append(f"normalize changed values at m={m}")
            return problems

        return Op("formulas.normalize", run, check, _shape, known_fault)

    def _taut_op(self, phi, ref_phi, m):
        is_taut = self.mv.search.is_L_tautology
        hit = functools.cache(lambda: oracle.first_falsifying(ref_phi, m))

        def run(tr):
            with tr.span("search.is_L_tautology") as sp:
                verdict = is_taut(phi, m)
            sp.add(assignments=m ** len(oracle.free_vars(ref_phi)) if verdict else hit()[0] + 1)
            return verdict

        def check(verdict):
            if verdict != (hit() is None):
                return [f"taut: verdict {verdict} at m={m} disagrees with the truth table"]
            return []

        return Op(f"formulas.taut.m{m}", run, check, repr)

    def _proof_op(self, length, derivation, goal, doc, rng):
        proof = self.mv.proof
        lines = len(derivation.lines)
        # a corrupted copy must be rejected at the corrupted line
        bad_line = rng.randrange(1, lines)
        bad_doc = json.loads(json.dumps(doc))
        bad_doc["lines"][bad_line - 1]["formula"] = (
            "(p => q) <-> (r => q)" if bad_doc["lines"][bad_line - 1]["rule"] != "LTaut" else "p -> q"
        )
        bad = proof.derivation_from_json(bad_doc)

        def run(tr):
            with tr.span(f"proof.check_derivation:{length}") as sp:
                verdict = proof.check_derivation(derivation, goal)
            sp.add(lines=lines)
            return verdict

        def check(verdict):
            problems = [] if verdict.ok else [f"proof: {length} derivation rejected: {verdict.message}"]
            rejected = proof.check_derivation(bad, goal)
            if rejected.ok or rejected.line != bad_line:
                problems.append(f"proof: corruption at line {bad_line} reported at {rejected.line}")
            return problems

        return Op(f"formulas.proof.{length}", run, check, lambda v: (v.ok, v.line))

    def _eval_op(self, label, model, ref, phi, ref_phi, n, known_fault=False):
        evaluator = self.mv.semantics.Evaluator

        def run(tr):
            with tr.span(f"semantics.Evaluator.value:{label}") as sp:
                value = evaluator(model).value("w0", phi)
            sp.add(chain_n=n)
            return value

        def check(value):
            if value.numerator != oracle.evaluate(ref(), ref_phi)[0]:
                return [f"chain {label}: value disagrees"]
            return []

        return Op("formulas.chain_eval", run, check, lambda v: v.numerator, known_fault)

    def _closure_op(self, phi, ref_phi, n):
        closure = self.mv.syntax.subformula_closure

        def run(tr):
            with tr.span("syntax.subformula_closure"):
                return closure(phi)

        def check(out):
            nodes = oracle.postorder(ref_phi)  # distinct by identity: every leaf is its own tuple
            names = {node for node in nodes if node[0] == "var"}
            expected = len(nodes) - n + len(names)
            return [] if len(out) == expected else ["closure: wrong number of subformulas"]

        return Op("formulas.closure", run, check, len, known_fault=True)

    def _cli_parse_op(self, text):
        main = self.mv.cli.main

        def run(tr):
            out = io.StringIO()
            with tr.span("cli.main"), contextlib.redirect_stdout(out):
                code = main(["parse", "--formula", text])
            return code, json.loads(out.getvalue())

        def check(result):
            code, doc = result
            return [] if code == 0 and doc.get("formula") == "p" else ["cli parse: wrong output"]

        return Op("formulas.cli_parse", run, check, repr, known_fault=True)

    # per-layer metrics ----------------------------------------------------

    @staticmethod
    def layer_metrics(tr, rounds: int) -> dict:
        spans = tr.by_name()

        def per(name, key, scale=1e3):
            entry = spans[name]
            return sum(entry["ns"]) / scale / entry["counts"][key]

        normalize = spans["syntax.normalize"]["ns"]
        slopes = []
        for op in ("and", "imp"):
            xs, ys = [], []
            for n in CHAIN_SIZES:
                ns = spans[f"semantics.Evaluator.value:{op}{n}"]["ns"]
                xs.append(math.log(n))
                ys.append(math.log(statistics.median(ns)))
            slopes.append(slope(xs, ys))
        return {
            "parser.parse_us_per_node": (per("parser.parse", "nodes"), "us"),
            "parser.print_us_per_node": (per("parser.print_formula", "nodes"), "us"),
            "syntax.normalize_ms": (sum(normalize) / len(normalize) / 1e6, "ms"),
            "search.taut_us_per_assignment": (per("search.is_L_tautology", "assignments"), "us"),
            "proof.check_us_per_line_short": (per("proof.check_derivation:short", "lines"), "us"),
            "proof.check_us_per_line_long": (per("proof.check_derivation:long", "lines"), "us"),
            "semantics.chain_eval_exponent": (statistics.mean(slopes), "1"),
        }


def _shape(phi):
    """Cheap digest of a formula: its size as a tree, counted without recursion."""
    return oracle.tree_size(oracle.from_program(phi))


def _same_text(phi, text):
    """phi, rendered by the reference printer, reads as text does."""
    return gen.render(oracle.from_program(phi)) == text
