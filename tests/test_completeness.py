"""An independent completeness oracle for graph ideals of monomial maps.

``is_egb`` shows that a basis is an EGB of the ideal it generates, and the
engines agree with each other, but they share their pair source, witness
search and kernel.  For the kernel I of a monomial map there is an exact
count that shares no code with them.  R_n is the subring of the variables
whose every index is below n.  The map sends R_n onto the polynomial ring
in its kept variables (the x, or the x and z), k_n of them, and each y is
weighted by the degree of its image, so the weighted degree-d part of
R_n / (I ∩ R_n) has dimension C(k_n + d - 1, d).  The ideal is homogeneous
in the index content of the variables, so in(I ∩ R_n) = in(I) ∩ R_n.  So a
complete basis leaves exactly C(k_n + d - 1, d) degree-d monomials of R_n
that no shifted lead inside R_n divides.

The oracle reads only the parser, ``lm`` and the standard library
(``tests/test_imports.py`` checks that).  ``member`` and ``wide5`` are not
graph ideals, so the test names the problems it covers.
"""

import itertools
import json
from math import comb
from pathlib import Path

import pytest

from incgb.poly import lm
from incgb.problems import parse, parse_polynomial

GOLDEN = Path(__file__).parent / "golden"

# problem -> its kept families: toric maps y[i,j] to x[i]*x[j] (i > j),
# segre maps y[i,j] to x[i]*z[j]
COVERED = {"toric": ("x",), "segre": ("x", "z")}

FLOOR = 6  # the least width and degree checked


def golden_leads(problem):
    """The ring of a covered problem and the leads of its committed complete
    basis, parsed back from the direct engine's golden report (every
    engine's is the same, ``test_golden_complete_bases_agree``)."""
    ring = parse((GOLDEN / f"{problem}.egb").read_text()).ring
    report = json.loads((GOLDEN / f"{problem}.buchberger.json").read_text())
    assert report["status"] == "complete"
    return ring, [lm(parse_polynomial(ring, line)) for line in report["basis"]]


def weight(ring, var):
    return ring.family_of(var).weight


def bounds(ring, leads):
    """The largest width and weighted degree checked: those of the leads,
    one past them, and at least ``FLOOR``."""
    width = max(i + 1 for m in leads for (_, idx), _ in m for i in idx)
    degree = max(sum(weight(ring, v) * e for v, e in m) for m in leads)
    return max(width + 1, FLOOR), max(degree + 1, FLOOR)


def variables(ring, n):
    """The variables of R_n, as the ring names them."""
    out = []
    for family in ring.families:
        for idx in itertools.product(range(n), repeat=family.arity):
            try:
                out.append(ring.variable(family.name, idx))
            except ValueError:
                pass  # outside the family's index constraint
    return out


def shifted_leads(leads, n):
    """Every lead moved by an increasing map into R_n, as a dict var ->
    exponent.  A map acts only through the indices a lead uses, so one
    image of those indices per placement."""
    out = []
    for m in leads:
        used = sorted({i for (_, idx), _ in m for i in idx})
        for image in itertools.combinations(range(n), len(used)):
            move = dict(zip(used, image))
            out.append({(label, tuple(move[i] for i in idx)): e for (label, idx), e in m})
    return out


def standard_counts(ring, leads, n, top):
    """The number of monomials of R_n of each weighted degree d <= top
    that no shifted lead inside R_n divides.  Standard monomials are closed
    under division, so each is reached from a standard one by one more
    variable, and only the leads that use that variable can newly divide."""
    V = variables(ring, n)
    by_var = {v: [] for v in V}
    for s in shifted_leads(leads, n):
        for v in s:
            by_var[v].append(s)
    counts = [1] + [0] * top  # the unit monomial
    # (monomial, its degree, the least variable position it may still take)
    stack = [({}, 0, 0)]
    while stack:
        m, d, first = stack.pop()
        for j in range(first, len(V)):
            v = V[j]
            e = d + weight(ring, v)
            if e > top:
                continue
            child = dict(m)
            child[v] = child.get(v, 0) + 1
            if any(all(child.get(w, 0) >= k for w, k in s.items()) for s in by_var[v]):
                continue
            counts[e] += 1
            stack.append((child, e, j))
    return counts


def mismatches(ring, kept, leads, N, D):
    """Yield (n, d, count, expected) wherever the count of standard
    monomials differs from the kernel's, for n <= N and d <= D."""
    for n in range(1, N + 1):
        k = sum(1 for v in variables(ring, n) if ring.family_of(v).name in kept)
        for d, count in enumerate(standard_counts(ring, leads, n, D)):
            expected = comb(k + d - 1, d)
            if count != expected:
                yield n, d, count, expected


@pytest.mark.parametrize("problem", sorted(COVERED))
class TestCompleteness:
    def test_weights_match_the_map(self, problem):
        # the count needs each kept variable of weight 1 and each y weighted
        # by the degree of its image, a product of arity-many kept variables
        ring, _ = golden_leads(problem)
        for family in ring.families:
            expected = 1 if family.name in COVERED[problem] else family.arity
            assert family.weight == expected, family.name

    def test_golden_basis_is_complete(self, problem):
        ring, leads = golden_leads(problem)
        N, D = bounds(ring, leads)
        assert list(mismatches(ring, COVERED[problem], leads, N, D)) == []

    def test_each_dropped_element_is_caught(self, problem):
        # a basis without any one of its elements generates a smaller
        # initial ideal, which leaves a standard monomial too many
        ring, leads = golden_leads(problem)
        N, D = bounds(ring, leads)
        missed = [
            i
            for i in range(len(leads))
            if next(mismatches(ring, COVERED[problem], leads[:i] + leads[i + 1 :], N, D), None)
            is None
        ]
        assert missed == []
