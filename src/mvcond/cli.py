"""Command-line interface.

Every subcommand prints one JSON document to stdout with a top-level
"status" key; diagnostics go to stderr. Exit codes: 0 when the query
holds (or plain success), 1 when it fails or a countermodel was found,
2 for usage errors (a shortened flag too), 3 for malformed input or an
unwritable stdout, 4 when a search budget ran out, 5 for an internal
error (a fault in mvcond; the traceback goes to stderr). Input nested
too deeply to process counts as malformed input.
Output for equal inputs is byte-identical across runs; --pretty only
toggles indentation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from contextlib import suppress
from functools import cache
from itertools import groupby
from operator import attrgetter

from .parser import name_problem, parse, print_formula
from .proof import check_derivation, load_derivation
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
from .syntax import Formula, I, J, NodeTable, Var, _fold

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


def _ast(node: Formula, *kids: dict) -> dict:
    """One node's AST document, its children's already built (see _fold)."""
    out: dict = {"node": type(node).__name__}
    if isinstance(node, Var):
        out["name"] = node.name
    elif isinstance(node, (J, I)):
        out["index"] = str(node.index)
    out.update(zip(("child",) if len(kids) == 1 else ("left", "right"), kids))
    return out


def _cmd_parse(args) -> tuple[int, dict]:
    phi = parse(args.formula)
    return 0, {"status": "ok", "formula": print_formula(phi), "ast": _fold(phi, _ast, {})}


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
    problem = next(filter(None, map(name_problem, names)), None)
    if problem:
        raise ValueError(f"--vars: {problem}")
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


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_FORMULA = ("--formula", _REQUIRED)
_MODEL = ("--model", _REQUIRED)
_M = ("--m", _REQUIRED_INT)

# subcommand: (its help, its flags in --help order as (flag, add_argument
# keywords)); each also takes --pretty, and main runs _cmd_<subcommand>
# with - read as _
_COMMANDS = {
    "parse": ("parse and re-print a formula", [_FORMULA]),
    "taut": ("truth-table tautology check on the chain", [
        _M,
        _FORMULA,
        ("--abstract-conditionals", dict(
            action="store_true",
            help="replace conditional subformulas by fresh shared atoms",
        )),
    ]),
    "eval": ("evaluate a formula at a world of a model", [
        _MODEL,
        ("--world", _REQUIRED),
        _FORMULA,
    ]),
    "valid": ("is the formula designated at every world", [_MODEL, _FORMULA]),
    "entails": ("do the premises force the formula at every world", [
        _MODEL,
        ("--sigma", dict(required=True, help="file of premises, one per line")),
        _FORMULA,
    ]),
    "search": ("bounded countermodel search", [
        _M,
        _FORMULA,
        ("--max-worlds", dict(type=int, default=2)),
        ("--fid", dict(
            action="store_true",
            help="only consider models satisfying the identity frame condition",
        )),
        ("--values", dict(
            help="comma-separated relation numerators to enumerate (default: all)",
        )),
        ("--budget", dict(type=int, help="candidate budget; exit 4 if hit")),
    ]),
    "filtrate": ("quotient a model by agreement on a formula set", [
        _MODEL,
        ("--sigma", dict(
            required=True,
            help="file of formulas, one per line; closed under subformulas automatically",
        )),
        ("--out", dict(required=True, help="where to write the quotient model")),
    ]),
    "fid-check": ("check the identity frame condition on a model", [_MODEL]),
    "proofcheck": ("check a derivation against a goal", [
        ("--file", _REQUIRED),
        ("--goal", _REQUIRED),
        ("--rules-on-premises", dict(
            action="store_true",
            help="allow congruence and graded rules on premise-dependent lines",
        )),
    ]),
    "gen": ("generate a seeded random model", [
        ("--seed", _REQUIRED_INT),
        _M,
        ("--worlds", _REQUIRED_INT),
        ("--vars", dict(required=True, help="comma-separated variable names")),
        ("--extra-relations", dict(type=int, default=0)),
        ("--out", _REQUIRED),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="mvcond",
        allow_abbrev=False,
        description=(
            "Many-valued conditional logic: parsing, evaluation, tautology "
            "checking, countermodel search, filtration, and proof checking. "
            "All output is JSON on stdout."
        ),
    )
    sub = root.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
    return root


_parser = cache(build_parser)  # main's parser, built once: parsing leaves it as it is


def _diagnose(text: str) -> None:
    """text on stderr, if it can be written: a closed stderr changes neither
    stdout nor the exit code."""
    if sys.stderr is not None:  # None when the process started with stderr closed
        with suppress(OSError):
            print(text, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    try:
        # looked up per call, so a handler replaced on the module is the one run
        code, payload = globals()["_cmd_" + args.command.replace("-", "_")](args)
        text = json.dumps(payload, **layout)
    except (ValueError, OSError, RecursionError) as exc:
        error = f"input nested too deeply: {exc}" if isinstance(exc, RecursionError) else str(exc)
        text = json.dumps({"status": "error", "error": error}, **layout)
        code = 3
        _diagnose(error)
    except Exception as exc:  # the last boundary: report, never leave with exit 1
        _diagnose(traceback.format_exc().rstrip("\n"))
        error = f"internal error: {type(exc).__name__}: {exc}"
        text = json.dumps({"status": "error", "error": error}, **layout)
        code = 5
    if sys.stdout is not None:  # None when the process started with stdout closed
        try:
            print(text, flush=True)
            return code
        except OSError:  # its reader has gone: let the flush at exit write nowhere
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
    _diagnose("cannot write the result to stdout")
    return 3
