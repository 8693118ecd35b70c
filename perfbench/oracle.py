"""Reference semantics for checking mvcond's outputs, independent of its code.

Formulas are plain tuples:

    ("var", name)  ("top",)  ("bot",)  ("not", a)
    (op, a, b)     op in imp, cond, and, or, oplus, otimes, ominus, iff
    ("J", index, a)  ("I", index, a)   index a Fraction in [0, 1]

Models are ``Model`` objects built from the documented JSON model format.
Values are integer numerators over top = m - 1, and a formula is evaluated
at every world at once: each node's value is a list with one entry per
world. The conditional is

    v[x] = min over y of min(top, top - R[x][y] + b[y])

where R is the matrix keyed by the partition the antecedent induces. A
truth table is the same evaluation over a model whose worlds are the m^k
assignments in ascending lexicographic order over the sorted variables.
Nothing here imports mvcond; ``from_program`` reads its formula nodes by
class name only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

BINARY = ("imp", "cond", "and", "or", "oplus", "otimes", "ominus", "iff")

# mvcond's node class names, mapped to the tuple tags above.
_CLASS_TAG = {
    "Imp": "imp",
    "Cond": "cond",
    "And": "and",
    "Or": "or",
    "OPlus": "oplus",
    "OTimes": "otimes",
    "OMinus": "ominus",
    "Iff": "iff",
}


class Model:
    """m, world names, per-variable value lists, partition-keyed matrices.

    A relation key is a tuple of m tuples of world indices; default is the
    numerator used for partitions without a matrix, or None for an error.
    """

    def __init__(self, m, worlds, val, rels, default):
        self.m = m
        self.worlds = list(worlds)
        self.val = val
        self.rels = rels
        self.default = default

    @classmethod
    def from_doc(cls, doc: dict) -> "Model":
        worlds = list(doc["worlds"])
        index = {w: i for i, w in enumerate(worlds)}
        val = {
            v: [doc["valuation"][v][w] for w in worlds] for v in doc["vars"]
        }
        rels = {}
        for entry in doc["relations"]:
            key = tuple(
                tuple(sorted(index[w] for w in cell)) for cell in entry["prop"]
            )
            rels[key] = [
                [entry["matrix"][x][y] for y in worlds] for x in worlds
            ]
        default = doc.get("default_relation", "error")
        return cls(doc["m"], worlds, val, rels, None if default == "error" else default)


def children(phi: tuple) -> tuple:
    tag = phi[0]
    if tag in BINARY:
        return phi[1], phi[2]
    if tag == "not":
        return (phi[1],)
    if tag in ("J", "I"):
        return (phi[2],)
    return ()


def postorder(phi: tuple) -> list:
    """Distinct nodes (by identity) of phi, children before parents."""
    out, seen, stack = [], set(), [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            out.append(node)
            continue
        stack.append((node, True))
        for child in children(node):
            if id(child) not in seen:
                stack.append((child, False))
    return out


def tree_size(phi: tuple) -> int:
    """Number of nodes of phi as a tree (shared subtrees counted each time)."""
    size = {}
    for node in postorder(phi):
        size[id(node)] = 1 + sum(size[id(c)] for c in children(node))
    return size[id(phi)]


def free_vars(phi: tuple) -> list:
    return sorted({node[1] for node in postorder(phi) if node[0] == "var"})


def graded_numerator(index: Fraction, m: int) -> int:
    scaled = Fraction(index) * (m - 1)
    if scaled.denominator != 1:
        raise ValueError(f"index {index} is not on the {m}-element chain")
    return int(scaled)


def evaluate(model: Model, phi: tuple) -> list:
    """Value of phi at every world of the model, as a list of numerators."""
    top = model.m - 1
    n = len(model.worlds)
    vals: dict[int, list] = {}
    for node in postorder(phi):
        tag = node[0]
        if tag == "var":
            if node[1] == "_t":  # mvcond's reserved atom, only ever seen in _t -> _t
                out = [0] * n
            else:
                out = model.val[node[1]]
        elif tag == "top":
            out = [top] * n
        elif tag == "bot":
            out = [0] * n
        elif tag == "not":
            out = [top - a for a in vals[id(node[1])]]
        elif tag in ("J", "I"):
            k = graded_numerator(node[1], model.m)
            a = vals[id(node[2])]
            if tag == "J":
                out = [top if x == k else 0 for x in a]
            else:
                out = [top if x >= k else 0 for x in a]
        else:
            a, b = vals[id(node[1])], vals[id(node[2])]
            if tag == "imp":
                out = [min(top, top - x + y) for x, y in zip(a, b)]
            elif tag == "and":
                out = [min(x, y) for x, y in zip(a, b)]
            elif tag == "or":
                out = [max(x, y) for x, y in zip(a, b)]
            elif tag == "oplus":
                out = [min(top, x + y) for x, y in zip(a, b)]
            elif tag == "otimes":
                out = [max(0, x + y - top) for x, y in zip(a, b)]
            elif tag == "ominus":
                out = [max(0, x - y) for x, y in zip(a, b)]
            elif tag == "iff":
                out = [top - abs(x - y) for x, y in zip(a, b)]
            else:  # cond
                key = tuple(
                    tuple(i for i, x in enumerate(a) if x == k)
                    for k in range(model.m)
                )
                matrix = model.rels.get(key)
                if matrix is None:
                    if model.default is None:
                        raise KeyError("no relation for antecedent partition")
                    matrix = [[model.default] * n for _ in range(n)]
                out = [
                    min(top, min(top - r + y for r, y in zip(row, b)))
                    for row in matrix
                ]
        vals[id(node)] = out
    return vals[id(phi)]


def table_model(names: list, m: int) -> Model:
    """One world per assignment to names, in ascending lexicographic order."""
    rows = list(product(range(m), repeat=len(names)))
    val = {v: [row[i] for row in rows] for i, v in enumerate(names)}
    return Model(m, [str(i) for i in range(len(rows))], val, {}, None)


def first_falsifying(phi: tuple, m: int):
    """(index, assignment) of the first non-designated row, or None."""
    names = free_vars(phi)
    model = table_model(names, m)
    for i, x in enumerate(evaluate(model, phi)):
        if x != m - 1:
            return i, {v: model.val[v][i] for v in names}
    return None


def fid_violations(model: Model) -> int:
    """Count of relation entries the identity frame condition forbids."""
    count = 0
    for key, matrix in model.rels.items():
        cell_of = {}
        for k, cell in enumerate(key):
            for y in cell:
                cell_of.setdefault(y, k)
        for row in matrix:
            for y, degree in enumerate(row):
                if degree and cell_of.get(y, -1) < degree:
                    count += 1
    return count


def signatures(model: Model, sigma: list) -> list:
    """Per world, the tuple of values of the sigma formulas."""
    columns = [evaluate(model, phi) for phi in sigma]
    return [tuple(col[w] for col in columns) for w in range(len(model.worlds))]


def from_program(phi) -> tuple:
    """Convert an mvcond formula node to the tuple form, without recursion."""
    memo: dict[int, tuple] = {}
    stack = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        name = type(node).__name__
        if name == "Var":
            memo[id(node)] = ("var", node.name)
        elif name == "Top":
            memo[id(node)] = ("top",)
        elif name == "Bot":
            memo[id(node)] = ("bot",)
        elif name in ("Not", "J", "I"):
            if not expanded:
                stack += [(node, True), (node.child, False)]
            elif name == "Not":
                memo[id(node)] = ("not", memo[id(node.child)])
            else:
                memo[id(node)] = (name, Fraction(node.index), memo[id(node.child)])
        else:
            if not expanded:
                stack += [(node, True), (node.right, False), (node.left, False)]
            else:
                memo[id(node)] = (
                    _CLASS_TAG[name], memo[id(node.left)], memo[id(node.right)]
                )
    return memo[id(phi)]


def program_node_kinds(phi) -> set:
    """Class names of every node of an mvcond formula."""
    kinds, seen, stack = set(), set(), [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kinds.add(type(node).__name__)
        for attr in ("child", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return kinds


# Hand-worked examples from the README, checked at the start of every run.

def selftest() -> list:
    """Problems found in the oracle itself; an empty list means it is sound."""
    problems = []
    p, q, r = ("var", "p"), ("var", "q"), ("var", "r")
    # p | ~p at m = 3: p = 0 gives max(0, 2) = 2, p = 1 gives max(1, 1) = 1.
    if first_falsifying(("or", p, ("not", p)), 3) != (1, {"p": 1}):
        problems.append("p | ~p should first fail at p = 1 for m = 3")
    # p -> (q -> p) holds on every chain.
    if first_falsifying(("imp", p, ("imp", q, p)), 5) is not None:
        problems.append("p -> (q -> p) should be a tautology at m = 5")
    # The CK countermodel: one world, p = 0, q = 1/2, r = 0, R[|p|] = 1/2.
    # p => (q -> r) = 1 -> ... = 1, p => q = 1, p => r = 1/2, so CK = 1/2.
    ck = ("imp", ("cond", p, ("imp", q, r)),
          ("imp", ("cond", p, q), ("cond", p, r)))
    model = Model.from_doc({
        "m": 3, "worlds": ["w0"], "vars": ["p", "q", "r"],
        "valuation": {"p": {"w0": 0}, "q": {"w0": 1}, "r": {"w0": 0}},
        "relations": [{"prop": [["w0"], [], []], "matrix": {"w0": {"w0": 1}}}],
        "default_relation": 0,
    })
    if evaluate(model, ck) != [1]:
        problems.append("the CK countermodel should give 1/2")
    # Degree 1 into cell 0 breaks the identity frame condition once.
    if fid_violations(model) != 1:
        problems.append("the CK countermodel has exactly one FID violation")
    # J{1/2}(p) and I{1/2}(p) at m = 3 over p = 0, 1/2, 1.
    table = table_model(["p"], 3)
    if evaluate(table, ("J", Fraction(1, 2), p)) != [0, 2, 0]:
        problems.append("J{1/2}(p) should be 1 only at p = 1/2")
    if evaluate(table, ("I", Fraction(1, 2), p)) != [0, 2, 2]:
        problems.append("I{1/2}(p) should be 1 from p = 1/2 up")
    return problems


if __name__ == "__main__":
    found = selftest()
    print("\n".join(found) if found else "oracle self-test passed")
    raise SystemExit(1 if found else 0)
