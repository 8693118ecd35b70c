"""Command-line interface.

Every subcommand prints one JSON document to stdout with a top-level
"status" key; diagnostics go to stderr. Exit codes: 0 when the query
holds (or plain success), 1 when it fails or a countermodel was found,
2 for usage errors, 3 for malformed input, 4 when a search budget ran
out, 5 for an internal error (a fault in mvcond; the traceback goes to
stderr). Input nested too deeply to process counts as malformed input.
Output for equal inputs is byte-identical across runs; --pretty only
toggles indentation.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from functools import cache
from itertools import groupby
from operator import attrgetter

from .parser import ParseError, parse, print_formula
from .proof import (
    DerivationFormatError,
    check_derivation,
    load_derivation,
)
from .search import (
    SearchBounds,
    countermodel_search,
    check_preservation,
    falsifying_assignment,
    filtrate,
    random_model,
)
from .semantics import (
    Evaluator,
    check_fid,
    load_model,
    model_to_json,
    save_model,
    validate_model,
)
from .syntax import Formula, I, J, NodeTable, Var, children

__all__ = ["main", "build_parser"]


def _read_formula_lines(path: str) -> list[Formula]:
    """One formula per line; blank lines and #-comment lines are skipped."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append(parse(line))
    return out


def _ast(phi: Formula) -> dict:
    out: dict = {"node": type(phi).__name__}
    if isinstance(phi, Var):
        out["name"] = phi.name
    elif isinstance(phi, (J, I)):
        out["index"] = str(phi.index)
    kids = [_ast(child) for child in children(phi)]
    out.update(zip(("child",) if len(kids) == 1 else ("left", "right"), kids))
    return out


def _cmd_parse(args) -> tuple[int, dict]:
    phi = parse(args.formula)
    return 0, {"status": "ok", "formula": print_formula(phi), "ast": _ast(phi)}


def _cmd_taut(args) -> tuple[int, dict]:
    phi = parse(args.formula)
    witness = falsifying_assignment(
        phi, args.m, abstract=args.abstract_conditionals
    )
    base = {"status": "holds", "m": args.m, "formula": print_formula(phi)}
    if witness is None:
        return 0, base
    base["status"] = "fails"
    base["assignment"] = {name: witness[name].numerator for name in sorted(witness)}
    return 1, base


def _cmd_eval(args) -> tuple[int, dict]:
    model = load_model(args.model)
    phi = parse(args.formula)
    value = Evaluator(model).value(args.world, phi)
    return 0, {
        "status": "ok",
        "world": args.world,
        "value": value.numerator,
        "scale": model.m,
        "text": value.text(),
        "designated": value.is_designated,
    }


def _cmd_valid(args) -> tuple[int, dict]:
    model = load_model(args.model)
    phi = parse(args.formula)
    hit = Evaluator(model).failing_world(phi)
    if hit is None:
        return 0, {"status": "valid"}
    world, value = hit
    return 1, {"status": "invalid", "world": world, "value": value.numerator}


def _cmd_entails(args) -> tuple[int, dict]:
    model = load_model(args.model)
    sigma = _read_formula_lines(args.sigma)
    phi = parse(args.formula)
    hit = Evaluator(model).entailment_witness(sigma, phi)
    if hit is None:
        return 0, {"status": "entails", "premises": len(sigma)}
    world, value = hit
    return 1, {
        "status": "fails",
        "premises": len(sigma),
        "world": world,
        "value": value.numerator,
    }


def _cmd_search(args) -> tuple[int, dict]:
    phi = parse(args.formula)
    values = None
    if args.values is not None:
        values = tuple(int(piece) for piece in args.values.split(","))
    bounds = SearchBounds(
        max_worlds=args.max_worlds,
        relation_values=values,
        max_candidates=args.budget,
    )
    outcome = countermodel_search(phi, args.m, bounds, require_fid=args.fid)
    if outcome.found is not None:
        model, witness = outcome.found
        payload = {
            "status": "countermodel",
            "candidates": outcome.candidates,
            "value": outcome.value.numerator,
        }
        payload.update(model_to_json(model))
        payload["witness_world"] = witness
        return 1, payload
    if outcome.exhausted:
        return 4, {"status": "budget_exhausted", "candidates": outcome.candidates}
    return 0, {"status": "no_countermodel", "candidates": outcome.candidates}


def _power(m: int, k: int) -> int | str:
    """m ** k, or the string "m^k" once it has 4300 digits or more, which
    Python's integer-to-string limit would refuse to print."""
    bound = m**k
    return f"{m}^{k}" if bound >= 10**4299 else bound


def _cmd_filtrate(args) -> tuple[int, dict]:
    model = load_model(args.model)
    table = NodeTable()  # sigma is every subformula of the lines read
    for phi in _read_formula_lines(args.sigma):
        table.add(phi)
    sigma = table.nodes
    quotient, class_map = filtrate(model, sigma)
    discrepancies = check_preservation(model, quotient, class_map, sigma)
    save_model(quotient, args.out, extra={"class_map": class_map})
    payload = {
        "status": "ok" if not discrepancies else "preservation_failed",
        "sigma_size": len(sigma),
        "worlds_in": len(model.worlds),
        "classes": len(quotient.worlds),
        "bound": _power(model.m, len(sigma)),
        "out": args.out,
        "discrepancies": [
            {
                "formula": print_formula(d.formula),
                "world": d.world,
                "value_original": d.value_original.numerator,
                "value_quotient": d.value_quotient.numerator,
            }
            for d in discrepancies
        ],
    }
    return (0 if not discrepancies else 1), payload


def _cmd_fid_check(args) -> tuple[int, dict]:
    model = load_model(args.model)
    violations = check_fid(model)
    if not violations:
        return 0, {"status": "holds"}
    listed = []
    for prop, group in groupby(violations, key=attrgetter("prop")):
        cells = [list(cell) for cell in prop.cells]  # one listing per relation
        listed += [
            {
                "source": v.source,
                "target": v.target,
                "degree": v.degree.numerator,
                "target_cell": v.target_cell,
                "prop": cells,
            }
            for v in group
        ]
    return 1, {"status": "violations", "count": len(violations), "violations": listed}


def _cmd_proofcheck(args) -> tuple[int, dict]:
    derivation = load_derivation(args.file)
    goal = parse(args.goal)
    verdict = check_derivation(
        derivation, goal, rules_on_premises=args.rules_on_premises
    )
    if verdict.ok:
        return 0, {"status": "accepted", "lines": len(derivation.lines)}
    return 1, {
        "status": "rejected",
        "line": verdict.line,
        "message": verdict.message,
    }


def _cmd_gen(args) -> tuple[int, dict]:
    names = tuple(piece.strip() for piece in args.vars.split(",") if piece.strip())
    if not names:
        raise ValueError("--vars must name at least one variable")
    model = random_model(
        seed=args.seed,
        m=args.m,
        n_worlds=args.worlds,
        var_names=names,
        n_extra_relations=args.extra_relations,
    )
    problems = validate_model(model)
    if problems:
        raise ValueError("; ".join(problems))
    save_model(model, args.out)
    return 0, {
        "status": "ok",
        "out": args.out,
        "m": args.m,
        "worlds": len(model.worlds),
        "vars": list(names),
        "relations": len(model.relations),
    }


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="mvcond",
        description=(
            "Many-valued conditional logic: parsing, evaluation, tautology "
            "checking, countermodel search, filtration, and proof checking. "
            "All output is JSON on stdout."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and re-print a formula")
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser(
        "taut", parents=[common], help="truth-table tautology check on the chain"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument(
        "--abstract-conditionals",
        action="store_true",
        help="replace conditional subformulas by fresh shared atoms",
    )
    p.set_defaults(handler=_cmd_taut)

    p = sub.add_parser(
        "eval", parents=[common], help="evaluate a formula at a world of a model"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "valid", parents=[common], help="is the formula designated at every world"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_valid)

    p = sub.add_parser(
        "entails",
        parents=[common],
        help="do the premises force the formula at every world",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--sigma", required=True, help="file of premises, one per line")
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_entails)

    p = sub.add_parser(
        "search", parents=[common], help="bounded countermodel search"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=2)
    p.add_argument(
        "--fid",
        action="store_true",
        help="only consider models satisfying the identity frame condition",
    )
    p.add_argument(
        "--values",
        default=None,
        help="comma-separated relation numerators to enumerate (default: all)",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="candidate budget; exit 4 if hit"
    )
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser(
        "filtrate",
        parents=[common],
        help="quotient a model by agreement on a formula set",
    )
    p.add_argument("--model", required=True)
    p.add_argument(
        "--sigma",
        required=True,
        help="file of formulas, one per line; closed under subformulas automatically",
    )
    p.add_argument("--out", required=True, help="where to write the quotient model")
    p.set_defaults(handler=_cmd_filtrate)

    p = sub.add_parser(
        "fid-check",
        parents=[common],
        help="check the identity frame condition on a model",
    )
    p.add_argument("--model", required=True)
    p.set_defaults(handler=_cmd_fid_check)

    p = sub.add_parser(
        "proofcheck", parents=[common], help="check a derivation against a goal"
    )
    p.add_argument("--file", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument(
        "--rules-on-premises",
        action="store_true",
        help="allow congruence and graded rules on premise-dependent lines",
    )
    p.set_defaults(handler=_cmd_proofcheck)

    p = sub.add_parser(
        "gen", parents=[common], help="generate a seeded random model"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--extra-relations", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)

    return root


_parser = cache(build_parser)  # main's parser, built once: parsing leaves it as it is


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    try:
        # by name, so the parser built once calls the module's current handler
        code, payload = globals()[args.handler.__name__](args)
        text = json.dumps(payload, **layout)
    except (ValueError, OSError, RecursionError) as exc:
        error = f"input nested too deeply: {exc}" if isinstance(exc, RecursionError) else str(exc)
        text = json.dumps({"status": "error", "error": error}, **layout)
        code = 3
        print(error, file=sys.stderr)
    except Exception as exc:  # the last boundary: report, never leave with exit 1
        traceback.print_exc()
        error = f"internal error: {type(exc).__name__}: {exc}"
        text = json.dumps({"status": "error", "error": error}, **layout)
        code = 5
    print(text)
    return code
