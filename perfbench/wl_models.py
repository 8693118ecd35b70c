"""The models workload: few large models, the CLI and model I/O.

Five seeded random_models with 16 to 64 worlds at m = 3 and 5. On each it
evaluates formulas with nested => at every world, checks an entailment,
filtrates by a subformula closure and checks preservation, runs check_fid
and the JSON round trip. It calls cli.main in-process on model files
written during set-up. It shares the Evaluator with the search workload
but on few large models instead of many tiny ones, and it is the only
workload that measures the cli layer and model I/O.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import statistics

import gen
import oracle
from common import Op, import_mvcond

POOL = ("p", "q", "r", "s")
# (worlds, m, substitutions, `mvcond eval` calls). Each substitution gives
# four every-world evaluations and an entailment check; every model also
# gets check_fid, and those up to 32 worlds filtrate and the JSON round
# trip. The CLI loads its model file on every call, so it runs on the
# three smaller models: eval, valid, entails and gen, and on the first
# also filtrate and fid-check. That makes 105 operations. Cost grows about
# as the cube of the world count: the 48 every-world evaluations on the
# two 16-world models cost about the same and hold the median, while the
# 90th percentile falls among about ten operations of 40-60 ms (48-world
# evaluations and entailment, 32-world CLI calls, 64-world check_fid).
MODELS = [
    (16, 3, 6, 1),
    (16, 5, 6, 1),
    (32, 5, 2, 1),
    (48, 3, 1, 0),
    (64, 5, 1, 0),
]
FILTRATE_MAX_WORLDS = 32
JSON_MAX_WORLDS = 32
EXTRA_RELATIONS = 4
TEMPLATES = [  # every-world evaluation; the last one is valid, for `mvcond valid`
    ("imp", ("cond", "A", ("cond", "B", "C")), ("cond", ("and", "A", "B"), "C")),
    ("or", ("cond", ("cond", "A", "B"), "C"), ("not", ("cond", "B", "A"))),
    ("imp", ("and", ("cond", "A", "B"), ("cond", "B", "C")), ("cond", "A", "C")),
    ("imp", ("cond", "A", ("and", "B", "C")), ("and", ("cond", "A", "B"), ("cond", "A", "C"))),
]
# A => B, A => C entail A => (B & C) in every model, so the entailment
# check and `mvcond entails` scan every world instead of stopping early.
PREMISES = [("cond", "A", "B"), ("cond", "A", "C")]
GOAL = ("cond", "A", ("and", "B", "C"))


def _witness(ref, sigma_refs, goal_ref):
    """First world where every premise is designated and the goal is not."""
    top = ref.m - 1
    premises = [oracle.evaluate(ref, f) for f in sigma_refs]
    values = oracle.evaluate(ref, goal_ref)
    for w, value in enumerate(values):
        if value != top and all(p[w] == top for p in premises):
            return ref.worlds[w], value
    return None


class Workload:
    def __init__(self, seed: int, workdir, tr):
        self.mv, self.import_s = import_mvcond()
        mv = self.mv
        rng = random.Random(seed)
        parse = mv.parser.parse
        self.workdir = workdir
        self.ops = []
        gen_ops = []
        for k, (n, m, n_subs, cli_evals) in enumerate(MODELS):
            model_seed = rng.randrange(2**31)
            with tr.span("search.random_model"):
                built = mv.search.random_model(model_seed, m, n, POOL, EXTRA_RELATIONS)
            path = workdir / f"model{k}.json"
            mv.semantics.save_model(built, str(path))
            model = mv.semantics.load_model(str(path))  # validates
            ref = functools.cache(
                lambda model=model: oracle.Model.from_doc(mv.semantics.model_to_json(model)))

            for i in range(n_subs):
                subs_i = gen.random_substitution(rng, "ABC", 2, POOL)
                formulas_i = [gen.substitute(t, subs_i) for t in TEMPLATES]
                for ref_phi in formulas_i:
                    self.ops.append(self._eval_op(model, ref, parse(gen.render(ref_phi)), ref_phi))
                sigma_refs_i = [gen.substitute(f, subs_i) for f in PREMISES]
                goal_ref_i = gen.substitute(GOAL, subs_i)
                self.ops.append(self._entails_op(
                    model, ref, [parse(gen.render(f)) for f in sigma_refs_i], sigma_refs_i,
                    parse(gen.render(goal_ref_i)), goal_ref_i))
                if i == 0:  # the CLI and filtration use the first substitution
                    subs, formulas = subs_i, formulas_i
                    sigma_refs, goal_ref = sigma_refs_i, goal_ref_i
            texts = [gen.render(f) for f in formulas]
            # random_model stores a matrix for each variable's proposition, so
            # a variable antecedent makes filtrate lift a stored relation
            filtrate_ref = ("imp", formulas[0], ("cond", gen.var(POOL[0]), subs["B"]))
            closure = mv.syntax.subformula_closure(parse(gen.render(filtrate_ref)))
            self.ops.append(self._fid_op(model, ref))
            if n <= FILTRATE_MAX_WORLDS:
                self.ops.append(self._filtrate_op(model, ref, closure))
            if n <= JSON_MAX_WORLDS:
                self.ops.append(self._json_op(model))

            if cli_evals:
                premises = workdir / f"premises{k}.txt"
                premises.write_text("".join(gen.render(f) + "\n" for f in sigma_refs))
                filtrate_sigma = workdir / f"sigma{k}.txt"
                filtrate_sigma.write_text(gen.render(filtrate_ref) + "\n")
                self.ops += self._cli_ops(k, str(path), model, ref, texts, formulas, cli_evals,
                                          str(premises), sigma_refs, gen.render(goal_ref),
                                          goal_ref, str(filtrate_sigma), closure)
                gen_ops.append(self._cli_gen_op(k, model_seed, n, m))
        self.ops += gen_ops

    # operations ----------------------------------------------------------

    # ref() is the model in the reference semantics; expectations are
    # computed on first use, in the check round, so set-up times only mvcond.

    def _eval_op(self, model, ref, phi, ref_phi):
        evaluator = self.mv.semantics.Evaluator
        closure = self.mv.syntax.subformula_closure
        world_nodes = functools.cache(lambda: len(model.worlds) * len(closure(phi)))

        def run(tr):
            with tr.span("semantics.Evaluator.value:every_world") as sp:
                ev = evaluator(model)
                values = [ev.value(w, phi).numerator for w in model.worlds]
            sp.add(world_nodes=world_nodes())
            return values

        def check(values):
            if values != oracle.evaluate(ref(), ref_phi):
                return ["eval: values disagree with the reference"]
            return []

        return Op("models.eval", run, check, tuple)

    def _entails_op(self, model, ref, sigma, sigma_refs, goal, goal_ref):
        evaluator = self.mv.semantics.Evaluator

        def run(tr):
            with tr.span("semantics.Evaluator.entailment_witness"):
                hit = evaluator(model).entailment_witness(sigma, goal)
            return None if hit is None else (hit[0], hit[1].numerator)

        def check(hit):
            if hit != _witness(ref(), sigma_refs, goal_ref):
                return ["entails: witness disagrees with the reference"]
            return []

        return Op("models.entails", run, check, repr)

    def _filtrate_op(self, model, ref, closure):
        search, to_json = self.mv.search, self.mv.semantics.model_to_json

        def run(tr):
            with tr.span("search.filtrate"):
                quotient, class_map = search.filtrate(model, closure)
            with tr.span("search.check_preservation"):
                discrepancies = search.check_preservation(model, quotient, class_map, closure)
            return quotient, class_map, discrepancies

        def check(result):
            quotient, class_map, discrepancies = result
            problems = ["filtrate: check_preservation reported discrepancies"] if discrepancies else []
            closure_refs = [oracle.from_program(phi) for phi in closure]
            qref = oracle.Model.from_doc(to_json(quotient))
            index = {c: i for i, c in enumerate(qref.worlds)}
            for phi in closure_refs:
                before, after = oracle.evaluate(ref(), phi), oracle.evaluate(qref, phi)
                if any(before[i] != after[index[class_map[w]]] for i, w in enumerate(model.worlds)):
                    problems.append("filtrate: a closure value changed in the quotient")
                    break
            if len(quotient.worlds) != len(set(oracle.signatures(ref(), closure_refs))):
                problems.append("filtrate: classes differ from distinct signatures")
            return problems

        def digest(result):
            quotient, class_map, discrepancies = result
            return len(quotient.worlds), len(quotient.relations), len(discrepancies)

        return Op("models.filtrate", run, check, digest)

    def _fid_op(self, model, ref):
        check_fid = self.mv.semantics.check_fid

        def run(tr):
            with tr.span("semantics.check_fid"):
                return check_fid(model)

        def check(violations):
            if len(violations) != oracle.fid_violations(ref()):
                return ["fid: violation count disagrees"]
            return []

        return Op("models.fid", run, check, len)

    def _json_op(self, model):
        sem = self.mv.semantics

        def run(tr):
            with tr.span("semantics.model_to_json"):
                text = json.dumps(sem.model_to_json(model))
            with tr.span("semantics.model_from_json"):
                back = sem.model_from_json(json.loads(text))
            with tr.span("semantics.validate_model"):
                problems = sem.validate_model(back)
            return back, problems

        def check(result):
            back, problems = result
            if problems or sem.model_to_json(back) != sem.model_to_json(model):
                return ["json: the round trip changed the model"]
            return []

        return Op("models.json", run, check, lambda r: (len(r[0].worlds), len(r[1])))

    def _cli(self, argv):
        main = self.mv.cli.main

        def run(tr):
            out = io.StringIO()
            with tr.span("cli.main"), contextlib.redirect_stdout(out):
                code = main(argv)
            return code, json.loads(out.getvalue())

        return run

    def _cli_ops(self, k, path, model, ref, texts, formulas, evals, premises, sigma_refs,
                 goal_text, goal_ref, sigma_path, closure):
        world = model.worlds[len(model.worlds) // 2]

        @functools.cache
        def want():
            """What each command must print, from the reference semantics."""
            top = model.m - 1
            valid = oracle.evaluate(ref(), formulas[3])
            failing = next((model.worlds[i] for i, v in enumerate(valid) if v != top), None)
            fids = oracle.fid_violations(ref())
            entailed = _witness(ref(), sigma_refs, goal_ref)
            closure_refs = [oracle.from_program(phi) for phi in closure]
            at = model.worlds.index(world)
            return {
                **{f"eval{i}": (0, oracle.evaluate(ref(), formulas[i])[at]) for i in range(evals)},
                "valid": (0, None) if failing is None else (1, failing),
                "entails": (0, None, None) if entailed is None else (1, *entailed),
                "filtrate": (0, len(set(oracle.signatures(ref(), closure_refs))), len(closure)),
                "fid-check": (1 if fids else 0, fids),
            }

        seen = {  # the part of each command's output that want() predicts
            "eval": lambda code, doc: (code, doc["value"]),
            "valid": lambda code, doc: (code, doc.get("world")),
            "entails": lambda code, doc: (code, doc.get("world"), doc.get("value")),
            "filtrate": lambda code, doc: (code, doc["classes"], doc["sigma_size"]),
            "fid-check": lambda code, doc: (code, doc.get("count", 0)),
        }
        quotient = str(self.workdir / f"quotient{k}.json")
        commands = {
            **{f"eval{i}": ["eval", "--model", path, "--world", world, "--formula", texts[i]]
               for i in range(evals)},
            "valid": ["valid", "--model", path, "--formula", texts[3]],
            "entails": ["entails", "--model", path, "--sigma", premises, "--formula", goal_text],
            "filtrate": ["filtrate", "--model", path, "--sigma", sigma_path, "--out", quotient],
            "fid-check": ["fid-check", "--model", path],
        }
        if k:  # printing every violation or the quotient makes these slow and seed-dependent
            del commands["filtrate"], commands["fid-check"]
        ops = []
        for key, argv in commands.items():
            kind = argv[0]

            def check(result, key=key, kind=kind):
                if seen[kind](*result) != want()[key]:
                    return [f"cli {kind}: output {result[1]} disagrees with the library"]
                return []
            ops.append(Op(f"models.cli.{kind}", self._cli(argv), check, repr))
        return ops

    def _cli_gen_op(self, k, model_seed, n, m):
        out = self.workdir / f"generated{k}.json"
        argv = ["gen", "--seed", str(model_seed), "--m", str(m), "--worlds", str(n),
                "--vars", ",".join(POOL), "--extra-relations", str(EXTRA_RELATIONS),
                "--out", str(out)]
        sem, search = self.mv.semantics, self.mv.search

        def check(result):
            code, _ = result
            expected = sem.model_to_json(search.random_model(model_seed, m, n, POOL, EXTRA_RELATIONS))
            if code != 0 or json.loads(out.read_text()) != expected:
                return ["cli gen: model differs from random_model"]
            return []

        return Op("models.cli.gen", self._cli(argv), check, repr)

    # per-layer metrics ----------------------------------------------------

    @staticmethod
    def layer_metrics(tr, rounds: int) -> dict:
        spans = tr.by_name()

        def mean_ms(*names):
            total = sum(sum(spans[name]["ns"]) for name in names)
            return total / len(spans[names[0]]["ns"]) / 1e6

        every = spans["semantics.Evaluator.value:every_world"]
        return {
            "semantics.eval_us_per_world_node": (
                sum(every["ns"]) / 1e3 / every["counts"]["world_nodes"], "us"),
            "semantics.model_io_ms": (mean_ms("semantics.model_to_json", "semantics.model_from_json",
                                              "semantics.validate_model"), "ms"),
            "semantics.fid_check_ms": (mean_ms("semantics.check_fid"), "ms"),
            "search.filtrate_ms": (mean_ms("search.filtrate"), "ms"),
            "search.random_model_ms": (mean_ms("search.random_model"), "ms"),
            "cli.main_ms_p50": (statistics.median(spans["cli.main"]["ns"]) / 1e6, "ms"),
        }
