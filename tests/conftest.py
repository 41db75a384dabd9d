"""Shared ring definitions and parsing helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from incgb import buchberger, rings
from incgb.incmaps import IncMap
from incgb.poly import (
    act,
    first_reducer,
    lc,
    lm,
    mul_term,
    normal_form,
    reduce_terms,
    reducer_table,
    subtract,
)
from incgb.problems import parse, parse_polynomial
from incgb.rings import FamilySpec, Monomial, Ring, m_act, m_mul, order_key
from incgb.rings import prepare_lead

# A single arity-1 family under pure lex: the plain infinite polynomial ring.
X_RING_TEXT = """
ring {
  family x { arity = 1, constraint = none, weight = 1 }
  order { kind = lex, precedence = [x], weights = true }
}
generators { x[0]; }
"""

# The 2x2 toric kernel input: y[i,j] maps to x[i]*x[j] for i > j.
TORIC_TEXT = """
ring {
  family x { arity = 1, constraint = none, weight = 1 }
  family y { arity = 2, constraint = strictly_decreasing, weight = 2 }
  order { kind = lex, precedence = [x, y], weights = true }
}
generators { y[1,0] - x[1]*x[0]; }
"""

# A grlex ring whose weights are off: y[1,0] has degree 1, not 3, so the
# lead of the generator is x[1]^2 (y[1,0] when the weights count).
UNWEIGHTED_TEXT = """
ring {
  family x { arity = 1, constraint = none, weight = 1 }
  family y { arity = 2, constraint = strictly_decreasing, weight = 3 }
  order { kind = grlex, precedence = [x, y], weights = false }
}
generators { y[1,0] - x[1]^2; }
"""

# The orbit membership input with its query polynomial.
MEMBER_TEXT = """
ring {
  family x { arity = 1, constraint = none, weight = 1 }
  order { kind = lex, precedence = [x], weights = true }
}
generators { x[0]*x[1] - x[1]*x[2]^2 + x[1]^2; }
"""

# The kernel of y[i,j] -> x[i]^2*x[j] over all distinct i, j.
MONOMIAL_MAP_TEXT = """
ring {
  family x { arity = 1, constraint = none, weight = 1 }
  family y { arity = 2, constraint = all_distinct, weight = 3 }
  order { kind = lex, precedence = [x, y], weights = true }
}
generators {
  y[1,0] - x[1]^2*x[0];
  y[0,1] - x[0]^2*x[1];
}
"""


MEMBER_H = (
    "x[0]*x[4]^2 + x[0]*x[1]^2 + x[1]*x[0]^2 - 2*x[1]*x[0]"
    " + x[0]*x[3]*x[4] - x[0]*x[5]^2 - x[0]*x[3]*x[5] - 2*x[1]^2"
)


def expr(problem, text):
    """Parse a polynomial expression in a problem's ring."""
    return parse_polynomial(problem.ring, text)


@pytest.fixture(scope="session")
def x_problem():
    return parse(X_RING_TEXT)


@pytest.fixture(scope="session")
def toric_problem():
    return parse(TORIC_TEXT)


@pytest.fixture(scope="session")
def member_problem():
    return parse(MEMBER_TEXT)


X_RING = Ring((FamilySpec("x"),))


@pytest.fixture(scope="session")
def x_ring():
    return X_RING


def xvar(i):
    return X_RING.variable("x", (i,))


def xmono(*indices):
    exps = {}
    for i in indices:
        exps[xvar(i)] = exps.get(xvar(i), 0) + 1
    return Monomial.from_dict(exps)


def order_sign(ring, a, b):
    """-1, 0 or 1 as monomial a lies below, at or above b: the order as a
    comparator, read from ``order_key``."""
    ka, kb = order_key(ring, a), order_key(ring, b)
    return (ka > kb) - (ka < kb)


def tau(i) -> IncMap:
    """The shift generator t_i, which skips the value i."""
    return IncMap(tuple(range(i)) + (i + 1,))


def word_map(word) -> IncMap:
    """The generator product t_{w[0]} o t_{w[1]} o ..., applied generator by
    generator and read off its values: from max(word) on, every generator
    adds 1, so the values below max(word) + 1 fix the map."""

    def apply(j):
        for i in reversed(word):
            j += j >= i
        return j

    return IncMap(tuple(apply(j) for j in range(max(word, default=0) + 1)))


def random_incmap(rng: random.Random, max_len=4, max_value=9) -> IncMap:
    d = rng.randrange(max_len + 1)
    if d == 0:
        return IncMap(())
    return IncMap(tuple(sorted(rng.sample(range(max_value + 1), d))))


def random_xmono(rng: random.Random, max_index=5, max_degree=4) -> Monomial:
    deg = rng.randrange(max_degree + 1)
    return xmono(*(rng.randrange(max_index + 1) for _ in range(deg)))


def ideal_equal(A, B) -> bool:
    """Mutual orbit reduction to zero: same equivariant ideal."""
    return all(normal_form(f, B).is_zero for f in A) and all(
        normal_form(g, A).is_zero for g in B
    )


def coprime(a, b):
    """Whether monomials a and b share no variable."""
    return {v for v, _ in a.factors}.isdisjoint(v for v, _ in b.factors)


def checked_chain_update(monkeypatch):
    """Wrap ``_chain_update`` with a check of every row it returns: below
    k, and sharing a lead variable with row k.  Returns a one-item list
    counting the rows returned."""
    returned = [0]
    real = buchberger._chain_update

    def checked(table, k):
        rows = real(table, k)
        h = table[k][2]
        assert all(i < k and not coprime(table[i][2], h) for i in rows)
        returned[0] += len(rows)
        return rows

    monkeypatch.setattr(buchberger, "_chain_update", checked)
    return returned


def recorded_searches(monkeypatch, *modules):
    """Replace ``prepared_witnesses`` in each of ``modules`` by a wrapper
    that records each witness search as (lead, term), the monomials of its
    preparation and its profile; returns the list it appends them to."""
    searches = []
    real = rings.prepared_witnesses

    def recorded(lead, term):
        searches.append((lead[0], term[0]))
        return real(lead, term)

    for module in modules:
        monkeypatch.setattr(module, "prepared_witnesses", recorded)
    return searches


def assert_current_preparations(rows):
    """Every orbit reducer row (gi, g, lead, preparation) carries the lead
    of g as it is now, and that lead's preparation: a stale one would make
    the witness searches skip the row."""
    for row in rows:
        assert row[2] == lm(row[1])
        assert row[3] == prepare_lead(row[2])


def without_chain_criterion(monkeypatch):
    """Turn the strict chain criterion off: ``is_egb``, the direct engine and
    the classical engine then reduce every pair they draw (the classical
    engine still chooses its partners by criteria M, F and coprime-B)."""
    monkeypatch.setattr(buchberger, "_chained", lambda gen, choose: False)


class RecordedChoice:
    """A reducer choice wrapped to record (gi, witness, cofactor) for every
    step it returns to the kernel, in order: a replayable certificate of
    the reduction."""

    def __init__(self, choose):
        self.choose = choose
        self.steps = []

    def __call__(self, m):
        step = self.choose(m)
        if step is not None:
            gi, _, rho, cof, _ = step
            self.steps.append((gi, rho, cof))
        return step

    def replay(self, f, reducers):
        """Apply the recorded steps to f by ``subtract``: each cancels the
        current coefficient of cofactor * witness(lm g) with the moved g.
        Exact, since the kernel asks only for nonzero terms and applies
        every step returned; so the result is the kernel's."""
        out = f
        for gi, rho, cof in self.steps:
            g = reducers[gi]
            target = m_mul(m_act(rho, lm(g)), cof)
            c = {m: c for c, m in out.terms}[target]
            out = subtract(out, mul_term(act(rho, g), c / lc(g), cof))
        return out


def recorded_normal_form(f, reducers, orbit=True):
    """Full reduction of f by the first reducer whose lead orbit-divides
    (or, with ``orbit`` false, divides) the term, through a recorded choice:
    (normal form, the RecordedChoice).  Under orbit divisibility this is
    ``normal_form``; plain divisibility is classical reduction."""
    choose = RecordedChoice(first_reducer(reducer_table(reducers, orbit), orbit))
    return reduce_terms(f.ring, {m: c for c, m in f.terms}, choose), choose
