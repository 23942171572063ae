"""Clause-to-parity translations and the MaxSAT compiler.

Each translation maps one weighted OR clause to a weighted constraint
multiset whose best auxiliary extension scores ``alpha`` when the clause is
satisfied and ``alpha - 1`` otherwise, with total weight ``beta``.  The
compiler applies a translation per clause, normalizes the union, and records
the cost shift ``sum w * (beta_k - alpha_k)`` that links the compiled
problem's cost back to the source instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .core import (
    ArityError,
    HALF,
    Max2XorError,
    OrClause,
    ShapeError,
    SizeGuardError,
    VarAllocator,
    X2XProblem,
    XorConstraint,
    ZERO,
    check_weight,
    clause,
    normalize,
    problem_key,
    xor,
)
from .textio import CutGraph, WcnfInstance

XorItems = List[Tuple[XorConstraint, Fraction]]


@dataclass(frozen=True, order=True)
class ParityConstraint:
    """XOR constraint of arbitrary arity; only the full parity expansion emits these."""

    vars: Tuple[int, ...]
    parity: int

    def __post_init__(self):
        if list(self.vars) != sorted(set(self.vars)):
            raise Max2XorError(f"variables must be sorted and distinct: {self.vars}")

    def satisfied_by(self, assignment) -> bool:
        acc = 0
        for v in self.vars:
            acc ^= assignment[v] & 1
        return acc == self.parity


@dataclass(frozen=True)
class GadgetParams:
    """Claimed translation parameters; ``beta`` equals the emitted total weight."""

    alpha: Fraction
    beta: Fraction
    aux_vars: Optional[int] = None

    @property
    def gap(self) -> Fraction:
        """Cost shift per unit of source weight; proof bounds pay this much."""
        return self.beta - self.alpha


def compose_params(first: GadgetParams, second: GadgetParams) -> GadgetParams:
    """Parameters of applying ``second`` to every constraint ``first`` emits."""
    return GadgetParams(
        alpha=first.beta * (second.alpha - 1) + first.alpha,
        beta=first.beta * second.beta,
    )


def clause_params(k: int) -> GadgetParams:
    """Shipped per-arity parameters of the direct clause translation."""
    if k < 1:
        raise ArityError(f"no translation parameters for arity {k}")
    if k == 1:
        return GadgetParams(Fraction(1), Fraction(1), 0)
    return GadgetParams(Fraction(k - 1), Fraction(3 * (k - 1), 2), k - 2)


# ---------------------------------------------------------------------------
# Tree shapes


@dataclass(frozen=True)
class TreeShape:
    """Binary tree over clause positions 1..k, kept as its post-order walk.

    ``postorder`` lists the leaves 1..k in order with a 0 for each internal
    node after its two subtrees: ``((1 2) 3)`` is ``(1, 2, 0, 3, 0)``.  The
    degenerate left comb reproduces the sequential translation; any other
    shape groups literals in parallel.  The walk is flat, so equality,
    hashing and ``repr`` never recurse, however deep the tree.
    """

    postorder: Tuple[int, ...]

    def __post_init__(self):
        if type(self.postorder) is not tuple or any(type(n) is not int for n in self.postorder):
            raise ShapeError(f"a shape's walk is a tuple of ints, got {self.postorder!r}")
        leaves = [n for n in self.postorder if n != 0]
        if leaves != list(range(1, len(leaves) + 1)):
            raise ShapeError(f"leaves must be 1..k in order, got {leaves}")
        if len(leaves) < 2:
            raise ShapeError("a shape needs at least two leaves")
        subtrees = 0  # completed subtrees not yet joined under a parent
        for n in self.postorder:
            subtrees += 1 if n else -1
            if subtrees < 1:  # a 0 with fewer than two subtrees to join
                break
        if subtrees != 1:
            raise ShapeError(f"not the post-order walk of a binary tree: {self.postorder}")

    @property
    def k(self) -> int:
        return (len(self.postorder) + 1) // 2

    def format(self) -> str:
        parts: List[str] = []
        for n in self.postorder:
            if n:
                parts.append(str(n))
            else:
                right = parts.pop()
                parts[-1] = f"({parts[-1]} {right})"
        return parts[0]

    @staticmethod
    def parse(text: str) -> "TreeShape":
        """Read ``(left right)`` nested pairs of leaf indices, without recursion."""
        walk: List[int] = []
        leaves: List[int] = []
        children: List[int] = []  # subtrees read so far, per open '('
        pos, end = 0, len(text)
        while True:
            while pos < end and text[pos].isspace():
                pos += 1
            if pos == end:
                raise ShapeError("unexpected end of shape")
            if text[pos] == "(":
                children.append(0)
                pos += 1
                continue
            start = pos
            while pos < end and "0" <= text[pos] <= "9":
                pos += 1
            if pos == start:
                raise ShapeError(f"expected leaf index in shape near {text[pos:pos + 10]!r}")
            if pos - start > len(str(end)):  # more digits than the text has leaves
                raise ShapeError(f"leaf index {text[start:start + 10]}... exceeds the leaf count")
            leaves.append(int(text[start:pos]))
            walk.append(leaves[-1])
            while children:
                children[-1] += 1
                if children[-1] < 2:
                    break
                while pos < end and text[pos].isspace():
                    pos += 1
                if not text.startswith(")", pos):
                    raise ShapeError("expected ')' in shape")
                pos += 1
                children.pop()
                walk.append(0)
            else:
                if text[pos:].strip():
                    raise ShapeError(f"trailing input after shape: {text[pos:]!r}")
                if 0 in leaves:  # a leaf 0 would read as an internal node
                    raise ShapeError(f"leaves must be 1..k in order, got {leaves}")
                return TreeShape(tuple(walk))

    @staticmethod
    def left_comb(k: int) -> "TreeShape":
        return _split_shape(k, lambda lo, hi: hi - 1)

    @staticmethod
    def balanced(k: int) -> "TreeShape":
        return _split_shape(k, lambda lo, hi: (lo + hi) // 2)

    @staticmethod
    def random(k: int, rng) -> "TreeShape":
        return _split_shape(k, lambda lo, hi: rng.randint(lo, hi - 1))

    @staticmethod
    def enumerate_all(k: int):
        """All binary trees with k ordered leaves (Catalan(k-1) shapes)."""

        def build(lo: int, hi: int):
            if lo == hi:
                yield (lo,)
                return
            for split in range(lo, hi):
                for left in build(lo, split):
                    for right in build(split + 1, hi):
                        yield left + right + (0,)

        for walk in build(1, k):
            yield TreeShape(walk)


def _split_shape(k: int, at: Callable[[int, int], int]) -> TreeShape:
    """The shape that splits each leaf range ``lo..hi`` after leaf ``at(lo, hi)``.

    ``at`` is called in pre-order, left subtree first, as a recursive builder
    would call it, but the walk is built without recursion.
    """
    if k < 2:
        raise ShapeError("a shape needs at least two leaves")
    walk: List[int] = []
    ranges = [(1, k)]
    while ranges:
        lo, hi = ranges.pop()
        if lo == hi:  # a leaf, or (0, 0) closing an internal node
            walk.append(lo)
        else:
            split = at(lo, hi)
            ranges += ((0, 0), (split + 1, hi), (lo, split))
    return TreeShape(tuple(walk))


# ---------------------------------------------------------------------------
# Translations

# A term is (variable id or None for the constant one, negation bit).
Term = Tuple[Optional[int], int]


def _literal_term(lit: int) -> Term:
    return abs(lit), 1 if lit < 0 else 0


def _pair_constraint(t1: Term, t2: Term, target: int) -> XorConstraint:
    parity = target
    variables = []
    for var, neg in (t1, t2):
        parity ^= neg
        if var is None:
            parity ^= 1  # the constant one
        else:
            variables.append(var)
    variables.sort()
    if len(variables) == 2 and variables[0] == variables[1]:
        variables = []  # x + x = 0
    return XorConstraint(tuple(variables), parity)


def _triangle(out: XorItems, left: Term, right: Term, parent: Term) -> None:
    out.append((_pair_constraint(left, right, 1), HALF))
    out.append((_pair_constraint(left, parent, 0), HALF))
    out.append((_pair_constraint(right, parent, 0), HALF))


def expand_full_parity(cl: OrClause, max_arity: int = 12) -> List[Tuple[ParityConstraint, Fraction]]:
    """Aux-free parity expansion: one constraint per nonempty literal subset.

    Exponential in the clause width, hence the guard; used as a cross-check
    oracle, never by the compiler for wide clauses.
    """
    k = cl.k
    if k < 1:
        raise ArityError("cannot expand the empty clause")
    if k > max_arity:
        raise SizeGuardError(f"full expansion of width {k} exceeds the guard of {max_arity}")
    weight = Fraction(1, 2 ** (k - 1))
    out = []
    for mask in range(1, 1 << k):
        variables = []
        parity = 1
        for pos in range(k):
            if mask >> pos & 1:
                lit = cl.lits[pos]
                variables.append(abs(lit))
                if lit < 0:
                    parity ^= 1
        out.append((ParityConstraint(tuple(sorted(variables)), parity), weight))
    return out


def binary_gadget(weight: Fraction, cl: OrClause) -> XorItems:
    """Direct translation of a unit or binary clause; no auxiliary variables.

    Units map to a single parity constraint of full weight; binary clauses to
    the three half-weight constraints over their variables.
    """
    weight = check_weight(weight)
    if cl.k == 1:
        (lit,) = cl.lits
        return [(xor([abs(lit)], 1 if lit > 0 else 0), weight)]
    if cl.k == 2:
        (v1, n1), (v2, n2) = map(_literal_term, cl.lits)
        half = weight / 2
        return [
            (xor([v1], 1 ^ n1), half),
            (xor([v2], 1 ^ n2), half),
            (xor([v1, v2], 1 ^ n1 ^ n2), half),
        ]
    raise ArityError(f"binary translation needs width 1 or 2, got {cl.k}")


def chain_to_3sat(cl: OrClause, alloc: VarAllocator) -> List[Tuple[OrClause, Fraction]]:
    """Split a wide clause into a chain of ternary clauses with linking variables."""
    k = cl.k
    if k < 4:
        raise ArityError(f"chain splitting needs width >= 4, got {k}")
    links = [alloc.fresh() for _ in range(k - 3)]
    lits = cl.lits
    out = [(clause(lits[0], lits[1], links[0]), Fraction(1))]
    for i in range(k - 4):
        out.append((clause(-links[i], lits[i + 2], links[i + 1]), Fraction(1)))
    out.append((clause(-links[-1], lits[k - 2], lits[k - 1]), Fraction(1)))
    return out


def trevisan_3to2(cl: OrClause, alloc: VarAllocator) -> List[Tuple[OrClause, Fraction]]:
    """Trevisan-style ternary-to-binary clause translation with one fresh variable."""
    if cl.k != 3:
        raise ArityError(f"this translation needs width 3, got {cl.k}")
    l1, l2, l3 = cl.lits
    b = alloc.fresh()
    return [
        (clause(l1, l3), HALF),
        (clause(-l1, -l3), HALF),
        (clause(l1, -b), HALF),
        (clause(-l1, b), HALF),
        (clause(l3, -b), HALF),
        (clause(-l3, b), HALF),
        (clause(l2, b), Fraction(1)),
    ]


def sequential_gadget(
    cl: OrClause, anchor: Optional[int], alloc: VarAllocator
) -> XorItems:
    """Left-to-right clause translation: one half-weight triangle per position.

    ``anchor`` is the collector variable of the last triangle; pass ``None``
    to substitute the constant one for it (the form the compiler uses).
    Emits 3(k-1) constraints over k-2 fresh variables.
    """
    if cl.k < 2:
        raise ArityError(f"sequential translation needs width >= 2, got {cl.k}")
    return tree_gadget(cl, TreeShape.left_comb(cl.k), anchor, alloc)


def tree_gadget(
    cl: OrClause, shape: TreeShape, anchor: Optional[int], alloc: VarAllocator
) -> XorItems:
    """Tree-structured clause translation; the left comb equals the sequential one.

    Each internal node contributes one half-weight triangle between its two
    children and its own collector variable; the root's collector is the
    anchor (or the constant one when ``anchor`` is ``None``).
    """
    if shape.k != cl.k:
        raise ShapeError(f"shape has {shape.k} leaves but the clause has width {cl.k}")
    out: XorItems = []
    terms: List[Term] = []  # collector terms of the subtrees completed so far
    root = len(shape.postorder) - 1
    for i, n in enumerate(shape.postorder):
        if n:
            terms.append(_literal_term(cl.lits[n - 1]))
            continue
        right_term = terms.pop()
        left_term = terms.pop()
        parent: Term = (anchor, 0) if i == root else (alloc.fresh(), 0)
        _triangle(out, left_term, right_term, parent)
        terms.append(parent)
    return out


# ---------------------------------------------------------------------------
# Whole-instance compilation


@dataclass
class CompileReport:
    """Compiled problem plus the bookkeeping that ties it to the source.

    ``shift`` is the exact amount by which the compiled cost exceeds the
    source cost; a derived empty-clause weight of at least ``shift + 1``
    proves the (decision) source unsatisfiable.  ``provenance`` is the
    ``problem_key`` of the problem as compiled, which a summary must match.
    """

    problem: X2XProblem
    shift: Fraction
    aux_map: Dict[int, int] = field(default_factory=dict)
    params_per_arity: Dict[int, GadgetParams] = field(default_factory=dict)
    provenance: Optional[tuple] = field(default=None, repr=False)

    @property
    def threshold(self) -> Fraction:
        return self.shift + 1


STRATEGIES = ("sequential", "tree")


def compile_maxsat(
    instance: WcnfInstance,
    strategy: str = "sequential",
    shapes: Optional[Dict[int, TreeShape]] = None,
) -> CompileReport:
    """Translate every clause, normalize the union, and report the cost shift.

    Unit and binary clauses always use the direct translation (shift 0 and
    w/2).  Wider clauses use the sequential or tree translation with the
    anchor substituted by the constant one (shift w*(k-1)/2).  Empty clauses
    credit their weight straight to the floor.  ``shapes`` maps clause
    indices to tree shapes and is only read by the tree strategy.
    """
    if strategy not in STRATEGIES:
        raise Max2XorError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    if shapes and strategy != "tree":
        raise Max2XorError(f"shapes need the tree strategy, not {strategy!r}")
    shapes = shapes or {}
    alloc = VarAllocator(instance.var_count + 1)
    raw: XorItems = []
    floor = ZERO
    aux_map: Dict[int, int] = {}
    arity_weight: Dict[int, Fraction] = {}  # source weight per clause width, in first-seen order
    combs: Dict[int, TreeShape] = {}  # the sequential strategy's shape per width

    for index, (cl, weight) in enumerate(instance.clauses):
        weight, k = check_weight(weight), cl.k
        if k == 0:
            floor += weight
            continue
        if k <= 2:
            raw.extend(binary_gadget(weight, cl))
        else:
            first_fresh = alloc.next_id
            if strategy == "sequential":
                shape = combs.get(k) or combs.setdefault(k, TreeShape.left_comb(k))
            else:
                shape = shapes.get(index) or TreeShape.balanced(k)
            half = weight * HALF  # every item of a tree translation weighs one half
            raw.extend((constraint, half) for constraint, _ in tree_gadget(cl, shape, None, alloc))
            for fresh in range(first_fresh, alloc.next_id):
                aux_map[fresh] = index
        arity_weight[k] = arity_weight.get(k, ZERO) + weight

    params = {k: clause_params(k) for k in arity_weight}
    shift = sum((w * params[k].gap for k, w in arity_weight.items()), ZERO)
    problem = normalize(raw, var_count=alloc.next_id - 1, floor=floor)
    return CompileReport(
        problem=problem,
        shift=shift,
        aux_map=aux_map,
        params_per_arity=params,
        provenance=problem_key(problem),
    )


# ---------------------------------------------------------------------------
# MaxCUT export


def to_maxcut(problem: X2XProblem, variant: str = "single") -> CutGraph:
    """Rewrite a parity problem as a weighted cut instance.

    Every 2-variable parity-1 constraint is an edge as is; parity-0
    constraints route through a fresh midpoint; unit constraints attach to
    the zero anchor (``single``) or to the pair of anchors bridged by one
    balancing edge of weight min(total x=0 weight, total x=1 weight)
    (``double``).  The problem's floor is metadata and not represented.
    """
    if variant not in ("single", "double"):
        raise Max2XorError(f"unknown cut variant {variant!r}")
    alloc = VarAllocator(problem.var_count + 1)
    anchor_zero = alloc.fresh()
    anchor_one = alloc.fresh() if variant == "double" else None
    graph = CutGraph(node_count=0, anchor_zero=anchor_zero, anchor_one=anchor_one)

    zero_total = ZERO
    one_total = ZERO
    for constraint, weight in problem.sorted_entries():
        if constraint.arity == 1:
            (v,) = constraint.vars
            if constraint.parity == 1:
                graph.add_edge(v, anchor_zero, weight)
                one_total += weight
            elif variant == "single":
                midpoint = alloc.fresh()
                graph.add_edge(v, midpoint, weight)
                graph.add_edge(midpoint, anchor_zero, weight)
                zero_total += weight
            else:
                graph.add_edge(v, anchor_one, weight)
                zero_total += weight
        else:
            u, v = constraint.vars
            if constraint.parity == 1:
                graph.add_edge(u, v, weight)
            else:
                midpoint = alloc.fresh()
                graph.add_edge(u, midpoint, weight)
                graph.add_edge(midpoint, v, weight)

    if variant == "double":
        balance = min(zero_total, one_total)
        if balance > 0:
            graph.add_edge(anchor_zero, anchor_one, balance)
    graph.node_count = alloc.next_id - 1
    return graph
