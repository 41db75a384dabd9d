"""Finite generating sets for the critical pairs of two orbit generators.

Classically a pair of polynomials has one S-pair.  Here the orbits of f and
g meet in many relative positions, but every position is an index shift of
an "interlacing": a pair of increasing maps from the index ranges of f and g
onto a common initial segment.  Enumerating interlacings therefore yields a
finite generating set of critical pairs, one per interlacing.  The
classical generator, for the finite-variable engine, has one S-pair per
pair of polynomials, both maps the identity.

Every pair source is a generator: a caller that needs only to know whether
a pair set is empty draws one item, and nothing else is enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .incmaps import IDENTITY, IncMap, word_key
from .poly import Polynomial, lm
from .rings import Monomial, m_act, m_coprime, m_lcm, m_quotient


def interlacings(wf, wg):
    """Yield every pair of increasing maps [wf] -> [k], [wg] -> [k] whose
    images jointly cover an initial segment {0..k-1}.

    g's image is what f's image ``a`` misses plus wf + wg - k shared indices
    of ``a``.  Equal-length sorted images order by the least element of
    their symmetric difference, which is shared, so taking the shared part
    in ``combinations(a, .)`` order lists g's images in sorted order.
    """
    for k in range(max(wf, wg), wf + wg + 1):
        for a in itertools.combinations(range(k), wf):
            fa, image = IncMap(a), set(a)
            missed = tuple(i for i in range(k) if i not in image)
            for shared in itertools.combinations(a, wf + wg - k):
                yield fa, IncMap(tuple(sorted(missed + shared)))


@dataclass(frozen=True)
class SPairGen:
    """One generator of the critical-pair module of basis entries fi, gi.

    cof1 * act(map1, lm(f)) == overlap == cof2 * act(map2, lm(g)).
    """

    fi: int
    gi: int
    map1: IncMap
    map2: IncMap
    cof1: Monomial
    cof2: Monomial
    overlap: Monomial


def _spair_gen(fi, gi, map1, map2, lf, lg):
    overlap = m_lcm(lf, lg)
    return SPairGen(fi, gi, map1, map2, m_quotient(overlap, lf), m_quotient(overlap, lg), overlap)


def spair_generators(f: Polynomial, g: Polynomial, fi=0, gi=1, coprime_filter=True):
    """Yield the critical-pair generators for (f, g), one per productive
    interlacing, in interlacing order.

    Self-pairs skip the diagonal interlacing (zero S-polynomial) and keep
    one of each mirrored pair.  With the coprime filter on, interlacings
    whose instantiated lead monomials share no variable are dropped, as in
    the classical first Buchberger criterion.  A zero input raises
    ValueError on the first draw.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("S-pairs need nonzero polynomials")
    same = fi == gi
    last = key1 = None
    for s1, s2 in interlacings(f.width(), g.width()):
        if same:
            if s1 is not last:  # interlacings repeats s1 across its s2
                last, key1 = s1, word_key(s1)
            if key1 >= word_key(s2):  # word_key orders as the values do
                continue  # the diagonal, or the mirror of a pair already listed
        # the order respects the action, so lm commutes with it
        lf = m_act(s1, lm(f))
        lg = m_act(s2, lm(g))
        if coprime_filter and m_coprime(lf, lg):
            continue
        yield _spair_gen(fi, gi, s1, s2, lf, lg)


def spair_generators_classical(f: Polynomial, g: Polynomial, fi, gi):
    """Yield the ordinary S-pair of distinct f and g, unless their leads are coprime."""
    lf, lg = lm(f), lm(g)
    if fi != gi and not m_coprime(lf, lg):
        yield _spair_gen(fi, gi, IDENTITY, IDENTITY, lf, lg)
