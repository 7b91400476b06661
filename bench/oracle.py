"""Independent propositional oracle for checking the benchmark's outputs.

Truth tables are big-int bit vectors: bit ``r`` of a formula's vector is its
value on row ``r``, where row ``r`` makes skeleton atom ``i`` true exactly
when bit ``i`` of ``r`` is set.  Nothing here calls ``proofbench.semantics``;
only the formula node classes are shared.  The atom order follows the
program's documented skeleton convention (maximal atomic or quantified
subformulas, numbered by first occurrence, left to right), so "the lowest
falsifying row" means the same row the program's ascending sweep visits
first.
"""

from __future__ import annotations

from proofbench.syntax import And, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or

_OPAQUE = (Atom, Forall, Exists)
_BINARY = (Implies, And, Or, Iff)


def atom_order(formulas: list[Formula]) -> list[Formula]:
    """Distinct skeleton atoms of ``formulas`` in first-occurrence order."""
    seen: dict[Formula, None] = {}
    for f in formulas:
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, _OPAQUE):
                seen.setdefault(g, None)
            elif isinstance(g, Not):
                stack.append(g.body)
            elif isinstance(g, _BINARY):
                stack.append(g.right)
                stack.append(g.left)
            else:
                raise TypeError(f"not a formula: {g!r}")
    return list(seen)


def _atom_vector(i: int, rows: int) -> int:
    # ones on every row whose bit i is set: 2**i zeros then 2**i ones, repeated
    width = 1 << i
    vec = ((1 << width) - 1) << width
    span = 2 * width
    while span < rows:
        vec |= vec << span
        span *= 2
    return vec


def truth_tables(formulas: list[Formula]) -> tuple[list[Formula], list[int], int]:
    """(atoms, one vector per formula, all-rows mask) over a shared atom table."""
    atoms = atom_order(formulas)
    rows = 1 << len(atoms)
    full = (1 << rows) - 1
    vec: dict[int, int] = {}  # keyed by id(): every node stays alive in ``formulas``
    index = {a: i for i, a in enumerate(atoms)}
    out = []
    for f in formulas:
        stack: list[tuple[Formula, bool]] = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if id(g) in vec:
                continue
            if isinstance(g, _OPAQUE):
                vec[id(g)] = _atom_vector(index[g], rows)
            elif not expanded:
                stack.append((g, True))
                stack.extend((c, False) for c in _children(g))
                continue
            elif isinstance(g, Not):
                vec[id(g)] = ~vec[id(g.body)] & full
            else:
                a, b = vec[id(g.left)], vec[id(g.right)]
                if isinstance(g, Implies):
                    vec[id(g)] = (~a | b) & full
                elif isinstance(g, And):
                    vec[id(g)] = a & b
                elif isinstance(g, Or):
                    vec[id(g)] = a | b
                else:
                    vec[id(g)] = ~(a ^ b) & full
        out.append(vec[id(f)])
    return atoms, out, full


def _children(g: Formula) -> tuple[Formula, ...]:
    if isinstance(g, Not):
        return (g.body,)
    return (g.left, g.right)


def lowest_row(mask: int) -> int | None:
    """The lowest row set in ``mask``, or None when it is empty."""
    return (mask & -mask).bit_length() - 1 if mask else None


def row_valuation(atoms: list[Formula], row: int) -> dict[Formula, bool]:
    return {a: bool(row >> i & 1) for i, a in enumerate(atoms)}


def lowest_countermodel(
    premises: list[Formula], conclusion: Formula
) -> tuple[list[Formula], int | None]:
    """Atoms and the lowest row satisfying ``premises`` but not ``conclusion``."""
    atoms, vecs, full = truth_tables([*premises, conclusion])
    *prem, goal = vecs
    sat = full
    for v in prem:
        sat &= v
    return atoms, lowest_row(sat & ~goal & full)


def evaluate(f: Formula, valuation: dict[Formula, bool]) -> bool:
    """Value of ``f`` on one row; raises KeyError for an unassigned atom."""
    val: dict[int, bool] = {}
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if isinstance(g, _OPAQUE):
            val[id(g)] = valuation[g]
        elif not expanded:
            stack.append((g, True))
            stack.extend((c, False) for c in _children(g))
        elif isinstance(g, Not):
            val[id(g)] = not val[id(g.body)]
        else:
            a, b = val[id(g.left)], val[id(g.right)]
            if isinstance(g, Implies):
                val[id(g)] = (not a) or b
            elif isinstance(g, And):
                val[id(g)] = a and b
            elif isinstance(g, Or):
                val[id(g)] = a or b
            else:
                val[id(g)] = a == b
    return val[id(f)]
