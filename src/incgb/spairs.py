"""Finite generating sets for the critical pairs of two orbit generators.

Classically a pair of polynomials has one S-pair.  Here the orbits of f and
g meet in many relative positions, but every position is an index shift of
an "interlacing": a pair of increasing maps from the index ranges of f and g
onto a common initial segment.  Enumerating interlacings therefore yields a
finite generating set of critical pairs.  The classical loop builds its
one S-pair per pair of polynomials itself, with ``_spair_gen`` and both
maps the identity.

An interlacing ranges over every index below a polynomial's width, also
the indices it never uses, so when a polynomial skips indices many
interlacings give the same pair of shifted polynomials.  There are two
pair sources, and both read one enumerator of interlacings (``_images``)
and one coprime test (``_shares``).  ``spair_generators``, the S-pair
source of the direct engine and of ``is_egb``, yields each productive pair
of orbit elements once.  ``signature.j_pairs`` places the signature
engine's J-pairs by every interlacing, since their signatures carry the
full shift, and drops the coprime placements the Koszul criterion covers.

An interlacing is enumerated as its two image tuples, and each source
decides it on those tuples: the self-pair's mirror test, the coprime test
and the repeat test read indices, not maps.  Maps, moved leads and S-pairs
are built only for the interlacings a source keeps.

Every pair source is a generator: a caller that needs only to know whether
a pair set is empty draws one item, and nothing else is enumerated.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import NamedTuple

from .incmaps import IncMap
from .poly import Polynomial, lm
from .rings import Monomial, m_lcm, m_quotient


def _images(wf, wg, top):
    """Yield ``(a, bs)`` for each image ``a`` of f on the levels k =
    max(wf, wg)..top, ``bs`` lazily yielding g's images ``b`` that make
    (a, b) an interlacing onto {0..k-1}, in sorted order.

    g's image is what ``a`` misses plus wf + wg - k shared indices of
    ``a``.  Equal-length sorted images order by the least element of their
    symmetric difference, which is shared, so taking the shared part in
    ``combinations(a, .)`` order lists g's images in sorted order.
    """
    for k in range(max(wf, wg), top + 1):
        for a in itertools.combinations(range(k), wf):
            image = set(a)
            missed = tuple(i for i in range(k) if i not in image)
            shares = itertools.combinations(a, wf + wg - k)
            yield a, (tuple(sorted(missed + shared)) for shared in shares)


def interlacings(wf, wg):
    """Yield every pair of increasing maps [wf] -> [k], [wg] -> [k] whose
    images jointly cover an initial segment {0..k-1}, ordered by k, then
    by f's image, then by g's image."""
    for a, bs in _images(wf, wg, wf + wg):
        fa = IncMap(a)
        for b in bs:
            yield fa, IncMap(b)


def _moved(m, a):
    """m with each index i replaced by a[i]: ``m_act(IncMap(a), m)`` when m
    is narrower than a."""
    return Monomial(((label, tuple(map(a.__getitem__, idx))), e) for (label, idx), e in m)


class SPairGen(NamedTuple):
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


def _used(f):
    """The sorted indices that f's terms use."""
    return sorted({i for _, m in f.terms for i in m.indices()})


def _lead_getters(m):
    """Per variable of a lead m: its family label and an ``itemgetter`` of
    its indices, so that ``(label, get(a))`` names the variable that
    ``IncMap(a)`` moves it to, when m is narrower than a.  The index part is
    a bare index at arity 1 and a tuple above; a family has one arity, so
    two such names are equal exactly when the moved variables are."""
    return tuple((label, itemgetter(*idx)) for (label, idx), _ in m)


def _moved_vars(getters, a):
    """The variables of a lead moved by ``IncMap(a)``, named as by
    ``_lead_getters``."""
    return {(label, get(a)) for label, get in getters}


def _shares(fvars, getters, b):
    """Whether the lead of ``getters`` moved by ``IncMap(b)`` shares a
    variable with the moved lead whose variables are fvars: the coprime test
    of a placement, read on index tuples.  An increasing map keeps distinct
    variables distinct, so no variable is shared exactly when the two moved
    leads are coprime."""
    for label, get in getters:
        if (label, get(b)) in fvars:
            return True
    return False


def spair_generators(f: Polynomial, g: Polynomial, fi=0, gi=1):
    """Yield the critical-pair generators for (f, g) in interlacing order,
    one per productive pair of orbit elements: the S-pair source of the
    direct engine and ``is_egb``.

    Self-pairs skip the diagonal interlacing (zero S-polynomial) and keep
    one of each mirrored pair: the one whose f image is the smaller tuple,
    which for equal widths is the smaller map.  Interlacings whose
    instantiated lead monomials share no variable are dropped, as in the
    classical first Buchberger criterion (``_shares``); the level
    k = wf + wg, where f and g share no index, is not enumerated, since
    every variable has an index, and leads with no family in common yield
    nothing.

    Each pair of orbit elements is yielded once.  Two interlacings (a, b)
    and (a', b') give the same shifted pair exactly when a and a' agree on
    the indices f uses and b and b' on those g uses, since a shifted
    polynomial uses the image of those indices; so the first interlacing of
    each restriction is kept.  For a self-pair the two restrictions are
    taken unordered, and one whose shifted copies are equal is skipped.
    When f and g use every index below their widths no two interlacings
    repeat, and no restriction is built.  A zero input raises ValueError on
    the first draw.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("S-pairs need nonzero polynomials")
    same = fi == gi
    lf, lg = lm(f), lm(g)
    families = {label for (label, _), _ in lf}
    if families.isdisjoint(label for (label, _), _ in lg):
        return  # no lead variable can be shared, whatever the maps
    wf, wg = f.width(), g.width()
    uf = _used(f)
    ug = uf if same else _used(g)
    # the restrictions yielded, when an unused index lets two interlacings
    # agree on the rest
    seen = set() if len(uf) < wf or len(ug) < wg else None
    fget, gget = _lead_getters(lf), _lead_getters(lg)
    for a, bs in _images(wf, wg, wf + wg - 1):
        fvars = _moved_vars(fget, a)
        fa = None  # IncMap(a) and f's moved lead, once a yields
        ka = None if seen is None else tuple(map(a.__getitem__, uf))
        for b in bs:
            if same and a >= b:
                continue  # the diagonal, or the mirror of a pair already listed
            if not _shares(fvars, gget, b):
                continue  # coprime leads
            if seen is not None:
                kb = tuple(map(b.__getitem__, ug))
                if same and ka == kb:
                    continue  # equal shifted copies
                key = (kb, ka) if same and kb < ka else (ka, kb)
                if key in seen:
                    continue  # the shifted pair of an earlier interlacing
                seen.add(key)
            if fa is None:
                # the order respects the action, so lm commutes with it
                fa, lfa = IncMap(a), _moved(lf, a)
            yield _spair_gen(fi, gi, fa, IncMap(b), lfa, _moved(lg, b))
