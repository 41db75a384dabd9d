"""Indexed variable families, monomials, the index-shift action, and orders.

Variables come in declared families: ``x`` of arity 1 gives x[0], x[1], ...;
``y`` of arity 2 with a strictly_decreasing constraint gives y[1,0], y[2,0],
and so on.  An increasing map on the naturals acts entrywise on index tuples,
which preserves every supported constraint.

A variable is stored as its own sort key ``(-rank, indices)``, rank being
its family's position in the precedence list (``Ring.family_of``): families
by precedence, then index tuples lexicographically, larger being greater.
The shift action preserves this order, which makes the induced monomial
orders usable here.  A monomial is its greatest-first tuple of (variable,
exponent) factors, so it is the lex ``order_key`` as it stands, builds,
hashes and compares in C, and monomial arithmetic merges factor tuples.

Orbit divisibility asks for a witness, an increasing map sending a lead onto
a divisor of a term.  A reducer row holds its lead's preparation
(``prepare_lead``) and a scan profiles each term once (``term_profile``), so
the search (``prepared_witnesses``) rebuilds neither, and it runs cheap
necessary tests before any backtracking.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add, gt

from .incmaps import IDENTITY, IncMap, extend_partial

CONSTRAINTS = ("none", "strictly_decreasing", "strictly_increasing", "all_distinct")
ORDER_KINDS = ("lex", "grlex")


@dataclass(frozen=True)
class FamilySpec:
    name: str
    arity: int = 1
    constraint: str = "none"
    weight: int = 1

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"family {self.name}: arity must be >= 1")
        if self.weight < 1:
            raise ValueError(f"family {self.name}: weight must be >= 1")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"family {self.name}: unknown constraint {self.constraint!r}")

    def check_indices(self, indices):
        if len(indices) != self.arity:
            return f"expects {self.arity} indices, got {len(indices)}"
        if any(i < 0 for i in indices):
            return "indices must be naturals"
        c = self.constraint
        if c == "strictly_decreasing" and any(a <= b for a, b in zip(indices, indices[1:])):
            return "indices must be strictly decreasing"
        if c == "strictly_increasing" and any(a >= b for a, b in zip(indices, indices[1:])):
            return "indices must be strictly increasing"
        if c == "all_distinct" and len(set(indices)) != len(indices):
            return "indices must be pairwise distinct"
        return None


@dataclass(frozen=True)
class Ring:
    """A family list plus a monomial order (lex or graded lex)."""

    families: tuple  # FamilySpec, in precedence order: first family is greatest
    order_kind: str = "lex"
    use_weights: bool = True

    def __post_init__(self):
        if self.order_kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.order_kind!r}")
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ValueError("family names must be unique")

    def rank_of(self, name):
        for r, f in enumerate(self.families):
            if f.name == name:
                return r
        raise KeyError(f"no family named {name!r}")

    def variable(self, name, indices):
        rank = self.rank_of(name)
        problem = self.families[rank].check_indices(tuple(indices))
        if problem is not None:
            raise ValueError(f"{name}{list(indices)}: {problem}")
        return (-rank, tuple(indices))

    def family_of(self, var):
        return self.families[-var[0]]


class Monomial(tuple):
    """A finite product of variables, as the tuple of its factors ((var,
    exponent), ...) sorted greatest-first, no zero exponents.  It compares
    as that tuple, the lex key only: an order reads ``order_key``."""

    __slots__ = ()

    @staticmethod
    def from_dict(exps):
        if any(e < 0 for e in exps.values()):
            raise ValueError("negative exponent")
        return Monomial(sorted(((v, e) for v, e in exps.items() if e), reverse=True))

    @property
    def factors(self):  # the monomial itself, as perfbench's kernel_image reads it
        return self

    @property
    def is_unit(self):
        return not self

    def degree(self, ring: Ring):
        if not ring.use_weights:
            return sum(e for _, e in self)
        return sum(e * ring.family_of(v).weight for v, e in self)

    def indices(self):
        """Sorted distinct indices appearing in this monomial."""
        return sorted({i for (_, idx), _e in self for i in idx})

    def width(self):
        return max((max(idx) + 1 for (_, idx), _e in self), default=0)


UNIT = Monomial()


def _merge(fa, fb, shared):
    """Greatest-first factor tuples merged; ``shared`` combines a common variable's exponents."""
    out = []
    i = j = 0
    while i < len(fa) and j < len(fb):
        (va, ea), (vb, eb) = fa[i], fb[j]
        if va == vb:
            out.append((va, shared(ea, eb)))
        else:
            out.append(fa[i] if va > vb else fb[j])
        i += va >= vb  # past each factor just taken
        j += vb >= va
    return Monomial(tuple(out) + fa[i:] + fb[j:])


def m_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:  # the other factor, unchanged
        return a or b
    return _merge(a, b, add)


def m_divides(a: Monomial, b: Monomial) -> bool:
    i = 0
    for v, f in b:
        if i < len(a) and a[i][0] == v:
            if a[i][1] > f:
                return False
            i += 1
    return i == len(a)


def m_quotient(b: Monomial, a: Monomial) -> Monomial:
    i, out = 0, []
    for v, f in b:
        if i < len(a) and a[i][0] == v:
            f -= a[i][1]
            i += 1
        if f > 0:
            out.append((v, f))
        elif f < 0:
            raise ValueError("quotient of non-divisor")
    if i < len(a):  # a variable of a is missing from b
        raise ValueError("quotient of non-divisor")
    return Monomial(out)


def m_lcm(a: Monomial, b: Monomial) -> Monomial:
    return _merge(a, b, max)


def m_act(rho: IncMap, m: Monomial) -> Monomial:
    """The image of m under rho, factor by factor.

    An increasing map keeps the order of the variables of one family and
    never merges two of them, so the factors stay sorted.
    """
    if rho.is_identity or not m:
        return m
    return Monomial(((label, tuple(map(rho, idx))), e) for (label, idx), e in m)


def order_key(ring: Ring, m: Monomial):
    """Sort key of m: its greatest-first factors, after the degree under grlex."""
    if ring.order_kind == "grlex":
        return (m.degree(ring), m)
    return m


def _shapes(m: Monomial):
    """m's exponents grouped by what of a variable an increasing map keeps,
    its shape: its family and, for two or more indices, their order pattern
    (each index's rank among the distinct ones).  Each group is sorted
    descending."""
    groups = {}
    for (rank, idx), e in m:
        if len(idx) == 1:
            shape = rank
        else:
            distinct = sorted(set(idx))
            shape = rank, tuple(map(distinct.index, idx))
        groups.setdefault(shape, []).append(e)
    for exps in groups.values():
        exps.sort(reverse=True)
    return groups


def prepare_lead(a: Monomial):
    """What a witness search needs of a lead a, built once per reducer row:
    (a, its sorted distinct indices, the closing lists, its exponents by
    shape).  closing[j] holds the factors (label, indices, exponent) whose
    largest index is the j-th, checked once that index has its image."""
    src = a.indices()
    closing = [[] for _ in src]
    for (label, idx), e in a:
        closing[bisect_left(src, max(idx))].append((label, idx, e))
    return a, src, closing, tuple(_shapes(a).items())


def term_profile(b: Monomial):
    """What a witness search needs of a term b, built once per term and
    scan: (b, its sorted distinct indices, its exponents by variable, its
    exponents by shape)."""
    return b, b.indices(), dict(b), _shapes(b)


def _admits(lead, term):
    """The necessary tests of a witness search for a non-unit lead, tests 2
    and 3 of ``prepared_witnesses``: False rules every witness out."""
    _, src, _, shapes = lead
    _, tgt, _, term_shapes = term
    if len(src) > len(tgt) or tgt[-1] < src[-1] or tgt[-1] - tgt[0] < src[-1] - src[0]:
        return False
    for shape, need in shapes:
        have = term_shapes.get(shape)
        if have is None or len(have) < len(need) or any(map(gt, need, have)):
            return False
    return True


def prepared_witnesses(lead, term):
    """Yield the increasing maps sending a onto a divisor of b, a and b being
    the monomials of ``prepare_lead`` and ``term_profile``, by ascending
    image sequence, so the first is the canonical one.  They map the indices
    of a into those of b, where divisibility forces the image, and are
    extended minimally elsewhere.

    Necessary tests run first, in this order:

    1. a unit a has the one witness, the identity;
    2. b has at least as many distinct indices as a, a top index at least
       a's, and an index span at least a's;
    3. shape by shape (``_shapes``: family and index order pattern, which a
       map keeps), a's exponents, sorted descending, are dominated entry by
       entry by b's, since the map sends a's variables of a shape to
       distinct variables of b of that shape.  This covers the factor count
       and every family's degree.

    Then a backtracking search: the indices of a get their images one at a
    time, smallest index first, each image tried in ascending order among
    the indices of b.  A partial assignment is dropped as soon as its gaps
    admit no increasing map (the image t_k of the k-th index s_k needs
    t_0 >= s_0 and t_k - t_{k-1} >= s_k - s_{k-1}) or a factor of a whose
    indices all have images is missing from b, or has a smaller exponent
    there.  The map itself is built only for a full match.
    """
    _, src, closing, _ = lead
    _, tgt, exponents, _ = term
    if not src:
        yield IDENTITY
        return
    if not _admits(lead, term):
        return
    k = len(src)
    n = len(tgt)
    image = {}  # source index -> its image, filled in the order of src
    image_of = image.__getitem__
    at = [0] * k  # at[j]: position in tgt of the image of src[j]
    j = 0
    s = src[0]
    p = bisect_left(tgt, s)
    while True:
        if p > n - k + j:  # too few indices of b left for src[j:]
            j -= 1
            if j < 0:
                return
            s = src[j]
            p = at[j] + 1
            continue
        image[s] = t = tgt[p]
        at[j] = p
        for label, idx, e in closing[j]:
            if exponents.get((label, tuple(map(image_of, idx))), 0) < e:
                p += 1
                break
        else:
            if j == k - 1:
                yield extend_partial(src, tuple(image.values()))
                p += 1
            else:
                j += 1
                nxt = src[j]
                p = bisect_left(tgt, t + nxt - s, p + 1)
                s = nxt


def pi_divides(a: Monomial, b: Monomial):
    """The lexicographically smallest witness, or None: ``prepared_witnesses``
    on a one-off preparation and profile."""
    return next(prepared_witnesses(prepare_lead(a), term_profile(b)), None)
