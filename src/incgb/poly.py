"""Exact rational polynomials over indexed monomials, reduction, normal form.

A ``Polynomial`` holds ``fractions.Fraction`` coefficients only; there is no
floating point anywhere.  Between its boundaries the reduction kernel keeps
an integral coefficient as a Python ``int`` (exact, and cheaper than a
``Fraction`` of denominator 1); it turns kept terms back into Fractions on
the way out.  Every entry hands it integral coefficients as ints
(``kernel_terms``), and ``normal_form`` first clears f's denominators, so
that reducing by monic integral reducers runs on ints alone.  A polynomial
stores its terms strictly descending under the ring's order, so the lead
term is ``terms[0]``.

Reduction uses orbit divisibility: a reducer g applies to a term t whenever
some increasing map sends the lead monomial of g onto a divisor of t.
``normal_form`` performs full (tail) reduction.  The one kernel,
``reduce_terms``, keeps its work polynomial as a term accumulator, a
coefficient dict plus a sorted list of order keys, and asks a reducer
choice for each step: ``first_reducer`` for orbit and plain reduction, or
``signature.regular_top_reduce``.  The kernel returns only the reduced
polynomial; a caller that wants the steps wraps the choice.  A reducer table only grows,
by appending rows.  Under plain reduction a row's support mask lets the
choice skip it without a divisibility test.  Under orbit reduction a row
holds its lead's witness-search preparation, built once with the row, and
a scan profiles each term once.  Each run keeps one memo per reducer
table, of the kernel's steps [gi, g, witness, cofactor, tail]: the tail
stays None until the kernel first applies the step, which then moves it
(``moved_tail``) and keeps it.  ``first_reducer`` remembers each term's
first step, or the rows it scanned in vain; ``candidates`` remembers every
witness of every row, for regular top-reduction, where whether a step may
reduce depends on the signature being reduced.  So a run searches a row
for a term's witnesses once, and moves a tail once, whether a reduction,
the chain test or both signature reductions asked.  The pair loop's chain
test asks the same choice as its reductions, under orbit and plain
divisibility alike; under plain divisibility it is Gebauer–Möller
criterion B.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

from .incmaps import IDENTITY, IncMap
from .rings import Monomial, Ring, m_act, m_divides, m_mul, m_quotient, order_key
from .rings import prepare_lead, prepared_witnesses, term_profile


@dataclass(frozen=True)
class Polynomial:
    ring: Ring
    terms: tuple = ()  # ((Fraction, Monomial), ...), strictly descending

    @property
    def is_zero(self):
        return not self.terms

    def width(self):
        return max((m.width() for _, m in self.terms), default=0)

    def degree(self):
        return max((m.degree(self.ring) for _, m in self.terms), default=0)


def poly(ring: Ring, term_iter) -> Polynomial:
    """Build a canonical polynomial from (coefficient, monomial) pairs."""
    acc = {}
    for c, m in term_iter:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    items = [(c, m) for m, c in acc.items() if c != 0]
    items.sort(key=lambda t: order_key(ring, t[1]), reverse=True)
    return Polynomial(ring, tuple(items))


def zero(ring: Ring) -> Polynomial:
    return Polynomial(ring, ())


def constant(ring: Ring, c) -> Polynomial:
    c = Fraction(c)
    if c == 0:
        return zero(ring)
    return Polynomial(ring, ((c, Monomial()),))


def _same_ring(f: Polynomial, g: Polynomial):
    if f.ring is not g.ring and f.ring != g.ring:
        raise ValueError("operands belong to different rings")


def add(f: Polynomial, g: Polynomial) -> Polynomial:
    _same_ring(f, g)
    return poly(f.ring, list(f.terms) + list(g.terms))


def subtract(f: Polynomial, g: Polynomial) -> Polynomial:
    _same_ring(f, g)
    return poly(f.ring, list(f.terms) + [(-c, m) for c, m in g.terms])


def scale(f: Polynomial, c) -> Polynomial:
    c = Fraction(c)
    if c == 0:
        return zero(f.ring)
    return Polynomial(f.ring, tuple((c * a, m) for a, m in f.terms))


def mul_term(f: Polynomial, c, m: Monomial) -> Polynomial:
    """Multiply by the single term c*m; a monomial order keeps the terms sorted."""
    c = Fraction(c)
    if c == 0:
        return zero(f.ring)
    return Polynomial(f.ring, tuple((c * a, m_mul(n, m)) for a, n in f.terms))


def mul(f: Polynomial, g: Polynomial) -> Polynomial:
    _same_ring(f, g)
    out = []
    for c, m in g.terms:
        out.extend((c * a, m_mul(n, m)) for a, n in f.terms)
    return poly(f.ring, out)


def act(rho: IncMap, f: Polynomial) -> Polynomial:
    """The image of f under rho; the action keeps the terms sorted (``m_act``)."""
    if rho.is_identity:
        return f
    return Polynomial(f.ring, tuple((c, m_act(rho, m)) for c, m in f.terms))


def lm(f: Polynomial) -> Monomial:
    if f.is_zero:
        raise ValueError("zero polynomial has no lead monomial")
    return f.terms[0][1]


def lc(f: Polynomial) -> Fraction:
    if f.is_zero:
        raise ValueError("zero polynomial has no lead coefficient")
    return f.terms[0][0]


def monic(f: Polynomial) -> Polynomial:
    if f.is_zero:
        return f
    return scale(f, 1 / lc(f))


def support_mask(m: Monomial) -> int:
    """A 64-bit set of m's variables, hashed; a divisor's lies inside it."""
    mask = 0
    for v, _ in m:
        mask |= 1 << (hash(v) & 63)
    return mask


def reducer_row(gi, g: Polynomial, orbit: bool):
    """The row (gi, g, lead, key) of g != 0.  The key is what a reducer
    choice needs of the lead: its witness-search preparation
    (``prepare_lead``) under orbit divisibility, where an increasing map
    moves variables and a mask would filter nothing; its support mask under
    plain divisibility (``orbit`` false)."""
    lead = g.terms[0][1]
    return (gi, g, lead, prepare_lead(lead) if orbit else support_mask(lead))


def reducer_table(reducers, orbit: bool):
    return [reducer_row(gi, g, orbit) for gi, g in enumerate(reducers) if not g.is_zero]


def integral(c):
    """c as an ``int`` when its denominator is 1, else c itself."""
    return c.numerator if c.denominator == 1 else c


def kernel_terms(f: Polynomial):
    """f as the kernel's coefficient dict, integral coefficients as ints."""
    return {m: integral(c) for c, m in f.terms}


def moved_tail(g: Polynomial, rho: IncMap, cof: Monomial):
    """The tail of g moved by the witness rho and the cofactor cof, as the
    kernel's ((coefficient, monomial), ...); integral coefficients are ints."""
    return tuple((integral(a), m_mul(m_act(rho, n), cof)) for a, n in g.terms[1:])


def first_reducer(table, orbit: bool):
    """The choice of orbit and plain reduction: the first row of ``table``
    whose lead orbit-divides the term, or, with ``orbit`` false, divides it.
    The table's rows must be built under the same flag.  Rows appended to
    the table later are seen; no row may be replaced or deleted while the
    choice is in use.

    Under orbit divisibility the choice profiles the term once
    (``term_profile``) and runs each row's witness search on the row's
    preparation (``prepared_witnesses``); the first witness is the one
    ``pi_divides`` returns.  Under plain divisibility a row whose support
    mask has a bit outside the term's is skipped unasked, and the others
    are asked ``m_divides``, with the identity as witness.

    A step is [gi, g, witness, cofactor, tail], the tail None until
    ``reduce_terms`` first applies the step.  The choice remembers, for
    each term, how many rows it has scanned and the step it found: a step
    is returned again as it is, tail and all (rows appended later come
    after its row), and a term that found none scans only the rows
    appended since.  That is exact while the table only grows by
    appending, as in ``_buchberger`` and ``is_egb``, whose chain tests ask
    the same choice, and in ``normal_form``; ``autoreduce``, which replaces
    and deletes rows, builds a choice from a fresh slice for each element.
    """
    memo = {}  # term -> (rows scanned, step or None); a monomial hashes in C

    def choose(m):
        scanned, step = memo.get(m, (0, None))
        if step is None and scanned < len(table):
            if orbit:
                term = term_profile(m)
            else:
                outside = ~support_mask(m)
            for gi, g, lead, key in islice(table, scanned, None):
                if orbit:
                    rho = next(prepared_witnesses(key, term), None)
                elif key & outside:
                    continue
                else:
                    rho = IDENTITY if m_divides(lead, m) else None
                if rho is not None:
                    # the action keeps coefficients and commutes with lm, and both
                    # it and multiplication by cof are injective on monomials
                    step = [gi, g, rho, m_quotient(m, m_act(rho, lead)), None]
                    break
            memo[m] = len(table), step
        return step

    return choose


def candidates(table):
    """Every step of an orbit reducer ``table`` for a term: a generator
    function that yields, per term, each row's lead moved by each of its
    witnesses into the term, as ``first_reducer``'s steps, in row order and
    then witness order.  So its first item is ``first_reducer``'s step.

    The memo keeps, per term, the rows scanned and the steps found, and
    scans a row only when a caller reads past them; so a run searches each
    (row, term) once, and a row without a witness leaves nothing behind.
    A scanned row adds all its witnesses at once, since an open witness
    search would keep its backtracking state alive.  That is exact because
    rows are only appended, and a row's witnesses and cofactors for a term
    never change.  The term is profiled once per call that scans a row.
    """
    memo = {}  # term -> [rows scanned, steps]

    def scan(m):
        entry = memo.get(m)
        if entry is None:
            entry = memo[m] = [0, []]
        found, i, term = entry[1], 0, None
        while True:
            while i < len(found):
                yield found[i]
                i += 1
            if entry[0] == len(table):
                return
            gi, g, lead, prep = table[entry[0]]
            entry[0] += 1
            if term is None:
                term = term_profile(m)
            for rho in prepared_witnesses(prep, term):
                found.append([gi, g, rho, m_quotient(m, m_act(rho, lead)), None])

    return scan


def reduce_terms(ring: Ring, acc, choose):
    """The reduction kernel: reduce ``acc``, a dict from monomials to
    coefficients (zeros allowed; consumed), by the steps ``choose`` picks.

    The work polynomial is the dict plus its monomials in ascending
    ``order_key`` order.  The greatest is popped and ``choose(m)`` returns
    the step [gi, g, witness, cofactor, tail] that cancels it, or None to
    keep it.  A step's tail, None until a step is first applied, is then
    moved (``moved_tail``) and kept in the step.  A step subtracts
    ratio * tail from the dict, ratio being the popped coefficient over g's
    lead coefficient, and lists only monomials new to it; the lead cancels
    exactly.  Zero entries stay until popped, so each monomial is listed
    once and, order keys being injective, no two monomials are compared.
    New terms lie below the popped one, so the kept terms come out in
    order.

    The dict's values may be ints or Fractions; a monic reducer's ratio is
    the coefficient itself, so integral work stays in ints.  The kept
    terms are Fractions.
    """
    done = []  # kept terms, collected in descending order
    queue = sorted((order_key(ring, m), m) for m in acc)
    while queue:
        m = queue.pop()[1]
        c = acc.pop(m)
        if c == 0:
            continue
        step = choose(m)
        if step is None:
            done.append((Fraction(c) if type(c) is int else c, m))
            continue
        _, g, rho, cof, tail = step
        if tail is None:
            tail = step[4] = moved_tail(g, rho, cof)
        lead = g.terms[0][0]
        ratio = c if lead == 1 else c / lead
        for a, n in tail:
            if n in acc:
                acc[n] -= ratio * a
            else:
                acc[n] = -ratio * a
                insort(queue, (order_key(ring, n), n))
    return Polynomial(ring, tuple(done))


def normal_form(f: Polynomial, reducers):
    """Fully reduce f (lead and tail) against orbit elements of the reducers.

    The first reducer in list order admitting a witness applies, with the
    witness ``pi_divides`` returns.  One reducer table, then the kernel
    ``reduce_terms`` on d * f, d the least common denominator of f's
    coefficients, so that the work starts in ints; the kept terms are
    divided by d.  That is exact: a step depends only on the popped
    monomial and on whether its coefficient is 0, and scaling by d changes
    neither, while every step is linear in the coefficients.
    """
    choose = first_reducer(reducer_table(reducers, True), True)
    d = lcm(*(c.denominator for c, _ in f.terms))
    h = reduce_terms(f.ring, kernel_terms(f if d == 1 else scale(f, d)), choose)
    return h if d == 1 else scale(h, Fraction(1, d))


def sorted_basis(basis):
    """The canonical order of a basis: width, degree, lead, then terms."""

    def key(f):
        terms = tuple((c, order_key(f.ring, m)) for c, m in f.terms)
        return (f.width(), f.degree(), order_key(f.ring, lm(f)), terms)

    return sorted(basis, key=key)
