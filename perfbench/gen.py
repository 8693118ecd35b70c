"""Seeded input generators: formulas as oracle tuples, and their text.

Every generator takes a random.Random, so one workload seed fixes every
input. Shapes are balanced (each binary node gives each side at least a
quarter of its binary nodes), so depth stays near log4/3(size). The
connectives are dealt from a fixed multiset: the seed decides where each
one sits, not how many of each a formula has, so cost varies little from
seed to seed.
"""

from __future__ import annotations

from fractions import Fraction

from oracle import free_vars, postorder

# Binding strength, loosest first, as in the README's operator table.
_PREC = {
    "cond": 1, "iff": 2, "imp": 3, "or": 4, "and": 5,
    "oplus": 6, "otimes": 7, "ominus": 8,
}
_NOT_PREC = 9
_ATOM_PREC = 10
_SYMBOL = {
    "cond": "=>", "iff": "<->", "imp": "->", "or": "|", "and": "&",
    "oplus": "(+)", "otimes": "(*)", "ominus": "(-)",
}

PLAIN_BINARY = ("imp", "and", "or", "oplus", "otimes", "ominus")
CHEAP_BINARY = PLAIN_BINARY + ("cond",)
ALL_BINARY = CHEAP_BINARY + ("iff",)
ON_ALL_CHAINS = (Fraction(0), Fraction(1, 2), Fraction(1))  # on m = 3, 5, 9


def var(name: str) -> tuple:
    return ("var", name)


def leaf_names(rng, pool):
    """The shuffled pool first, so any formula with enough leaves uses all of it."""
    first = list(pool)
    rng.shuffle(first)
    yield from first
    while True:
        yield rng.choice(pool)


def deal(rng, kinds, n):
    """n items cycling through kinds, in seeded order: one multiset on every seed."""
    items = [kinds[i % len(kinds)] for i in range(n)]
    rng.shuffle(items)
    return iter(items)


def deal_unary(rng, n, graded=()):
    """n unary connectives: with graded, half of them (rounded up) J or I
    alternately, each with a seeded index from graded; the rest ~."""
    n_graded = (n + 1) // 2 if graded else 0
    items = [("JI"[i % 2], rng.choice(graded)) for i in range(n_graded)]
    items += [("not",)] * (n - n_graded)
    rng.shuffle(items)
    return iter(items)


def random_formula(rng, size, pool, binary=CHEAP_BINARY, unary=0,
                   graded=(), constants=False, ops=None, unaries=None):
    """A formula with exactly size connectives, unary of them unary.

    The binary connectives are dealt from binary and the unary ones by
    deal_unary, unless ops and unaries pass in a deal shared with other
    formulas; constants makes a tenth of the leaves T or F. The numbers of
    nodes of each kind are the same for every seed.
    """
    names = leaf_names(rng, pool)
    ops = ops if ops is not None else deal(rng, binary, size - unary)
    unaries = unaries if unaries is not None else deal_unary(rng, unary, graded)
    n_leaves = size - unary + 1
    n_constants = n_leaves // 10 if constants else 0
    leaves = deal(rng, ("top",) * n_constants + ("var",) * (n_leaves - n_constants),
                  n_leaves)

    def build(n_binary, n_unary):
        if n_unary and rng.randrange(n_binary + n_unary) < n_unary:
            child = build(n_binary, n_unary - 1)
            kind = next(unaries)
            return ("not", child) if kind[0] == "not" else (*kind, child)
        if n_binary == 0:
            if next(leaves) == "top":
                return ("top",) if rng.random() < 0.5 else ("bot",)
            return var(next(names))
        rest = n_binary - 1
        left = rng.randint(rest // 4, rest - rest // 4)
        left_unary = rng.randint(0, n_unary)
        return (next(ops), build(left, left_unary),
                build(rest - left, n_unary - left_unary))

    return build(size - unary, unary)


def random_substitution(rng, keys, size, pool, binary=PLAIN_BINARY, unary=0, graded=()):
    """One random_formula per key; the keys share one deal of connectives."""
    ops = deal(rng, binary, len(keys) * (size - unary))
    unaries = deal_unary(rng, len(keys) * unary, graded)
    return {key: random_formula(rng, size, pool, binary, unary, graded, ops=ops, unaries=unaries)
            for key in keys}


def substitute(schema, subs):
    """Replace each string placeholder of a schema by its formula in subs."""
    if isinstance(schema, str):
        return subs[schema]
    return (schema[0],) + tuple(substitute(part, subs) for part in schema[1:])


def covering(make, pool):
    """make() again until its formula uses every variable of pool.

    Inputs whose cost grows with the number of variables (truth tables,
    countermodel search) then cost the same on every seed.
    """
    while True:
        phi = make()
        if free_vars(phi) == sorted(pool):
            return phi


def left_chain(op, leaves):
    out = leaves[0]
    for leaf in leaves[1:]:
        out = (op, out, leaf)
    return out


def right_chain(op, leaves):
    out = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        out = (op, leaf, out)
    return out


def render(phi: tuple) -> str:
    """Text with minimal parentheses, built without recursion."""
    text: dict[int, tuple[str, int]] = {}
    for node in postorder(phi):
        tag = node[0]
        if tag == "var":
            text[id(node)] = (node[1], _ATOM_PREC)
        elif tag == "top":
            text[id(node)] = ("T", _ATOM_PREC)
        elif tag == "bot":
            text[id(node)] = ("F", _ATOM_PREC)
        elif tag == "not":
            body, prec = text[id(node[1])]
            inner = body if prec >= _NOT_PREC else f"({body})"
            text[id(node)] = ("~" + inner, _NOT_PREC)
        elif tag in ("J", "I"):
            body, _ = text[id(node[2])]
            text[id(node)] = (f"{tag}{{{node[1]}}}({body})", _ATOM_PREC)
        else:
            prec = _PREC[tag]
            (left, lp), (right, rp) = text[id(node[1])], text[id(node[2])]
            if tag in ("cond", "iff"):
                wrap_left, wrap_right = lp <= prec, rp <= prec
            elif tag == "imp":
                wrap_left, wrap_right = lp <= prec, rp < prec
            else:
                wrap_left, wrap_right = lp < prec, rp <= prec
            left = f"({left})" if wrap_left else left
            right = f"({right})" if wrap_right else right
            text[id(node)] = (f"{left} {_SYMBOL[tag]} {right}", prec)
    return text[id(phi)][0]


def imp_chain(antecedents, consequent):
    """a_k -> (... -> (a_1 -> consequent)), the order mvcond's graded rules use."""
    out = consequent
    for phi in antecedents:
        out = ("imp", phi, out)
    return out


def odot(a: Fraction, b: Fraction) -> Fraction:
    return max(Fraction(0), a + b - 1)


def ra_derivation(rng, m: int, pool, gamma_size: int) -> tuple[dict, str]:
    """A graded-rule derivation document and its goal text.

    m chain tautologies, one per b in descending order, then one Ra line
    at a seeded threshold. The rule's gamma is its first indexed formula,
    which makes every premise line I{b}(g1) -> ... -> I{a (*) b}(g1)
    designated, since a (*) b <= b.
    """
    a = Fraction(rng.randrange(m), m - 1)
    phi = random_formula(rng, 2, pool, PLAIN_BINARY)
    gammas = [random_formula(rng, gamma_size, pool, PLAIN_BINARY) for _ in range(m)]
    gamma = gammas[0]
    thresholds = [Fraction(m - i, m - 1) for i in range(1, m + 1)]
    lines = []
    for t in range(m):
        b = Fraction(m - 1 - t, m - 1)
        premise = imp_chain(
            [("I", odot(th, b), g) for th, g in zip(thresholds, gammas)],
            ("I", odot(a, b), gamma),
        )
        lines.append({"formula": render(premise), "rule": "LTaut", "args": {}})
    conclusion = imp_chain(
        [("I", th, ("cond", phi, g)) for th, g in zip(thresholds, gammas)],
        ("I", a, ("cond", phi, gamma)),
    )
    lines.append({
        "formula": render(conclusion),
        "rule": "Ra",
        "args": {
            "a": str(a),
            "phi": render(phi),
            "gammas": [render(g) for g in gammas],
            "gamma": render(gamma),
            "premise_lines": list(range(1, m + 1)),
        },
    })
    return {"m": m, "premises": [], "lines": lines}, render(conclusion)


def rcec_derivation(rng, m: int, pool, pairs: int) -> tuple[dict, str]:
    """pairs of lines: a commuted-conjunction equivalence, then RCEC on it.

    Each RCEC line cites the line just before it, so the derivation is
    long while every single line stays small.
    """
    lines = []
    goal = None
    for _ in range(pairs):
        x = random_formula(rng, 2, pool, PLAIN_BINARY)
        y = random_formula(rng, 2, pool, PLAIN_BINARY)
        left, right = ("and", x, y), ("and", y, x)
        lines.append({"formula": render(("iff", left, right)), "rule": "LTaut", "args": {}})
        ante = random_formula(rng, 1, pool, PLAIN_BINARY)
        goal = ("iff", ("cond", ante, left), ("cond", ante, right))
        lines.append({"formula": render(goal), "rule": "RCEC", "args": {"i": len(lines)}})
    return {"m": m, "premises": [], "lines": lines}, render(goal)
