"""Signature-based orbit engine over the shift-twisted monomial algebra.

Module terms live in a free module over monomials twisted by shifts: a
twisted monomial is a plain monomial times an increasing map, and acts on a
monomial m as mono * shift(m).  Signatures (lead module terms) are ordered
by the Schreyer order induced by the lead monomials of the module
generators, ties broken by position and then by a fixed total order on
twisted monomials.  The order is one sort key, ``SigEngine.sig_key``; the
shift's generator word appears only in its last tie-break.

``egb_signature`` adds an extra full orbit normal-form step on each new
basis element; when the step changes the element, the module rank grows
and the element re-enters with a fresh unit signature.  Zero reductions
contribute syzygy signatures, and J-pairs covered by known pairs or
syzygies are discarded.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .buchberger import BUDGET, COMPLETE, EgbResult, EngineLimits, _prepare
from .incmaps import IDENTITY, IncMap, compose, extend_partial, map_to_tau
from .poly import Polynomial, act, lc, lm, monic, mul_term, normal_form, sorted_basis, subtract
from .rings import (
    UNIT,
    Monomial,
    Ring,
    _match_witnesses,
    m_act,
    m_divides,
    m_mul,
    m_quotient,
    order_key,
    pi_divides,
)
from .spairs import spair_generators


@dataclass(frozen=True)
class TwistedMonomial:
    """mono * shift: acts on a monomial m as mono * shift(m)."""

    mono: Monomial = UNIT
    shift: IncMap = IDENTITY


UNIT_TM = TwistedMonomial()


def twisted_mul(a: TwistedMonomial, b: TwistedMonomial) -> TwistedMonomial:
    """(m, s)(n, t) = (m * s(n), s o t)."""
    return TwistedMonomial(m_mul(a.mono, m_act(a.shift, b.mono)), compose(a.shift, b.shift))


def tm_apply(tm: TwistedMonomial, m: Monomial) -> Monomial:
    """Action of a twisted monomial on an ordinary monomial."""
    return m_mul(tm.mono, m_act(tm.shift, m))


@lru_cache(maxsize=None)
def _shift_quotient(target_values, base_values):
    """The shift part of a left quotient, st with st o sb == s_target, or None.

    st is forced on the image of the base's map and filled minimally
    elsewhere.  This depends on the two maps only, which recur far more
    often than the twisted monomials, so it is computed once per pair; the
    memo is keyed on the maps' value tuples, which hash faster than maps.
    """
    sb = IncMap(base_values)
    st_target = IncMap(target_values)
    span = max(len(sb.values), len(st_target.values)) + 2
    st = extend_partial(
        tuple(sb(i) for i in range(span)),
        tuple(st_target(i) for i in range(span)),
    )
    if st is None or compose(st, sb) != st_target:
        return None
    return st


def tm_left_quotients(target: TwistedMonomial, base: TwistedMonomial):
    """Twisted monomials t with t * base == target.

    The map part is forced on the image of base's map and filled minimally
    elsewhere, so at most one candidate is produced; a miss only forgoes a
    discard in the cover test.
    """
    st = _shift_quotient(target.shift.values, base.shift.values)
    if st is None:
        return []
    moved = m_act(st, base.mono)
    # once moved divides target's monomial, t * base == target holds exactly
    if not m_divides(moved, target.mono):
        return []
    return [TwistedMonomial(m_quotient(target.mono, moved), st)]


@dataclass(frozen=True)
class Signature:
    tm: TwistedMonomial
    index: int


@dataclass(frozen=True)
class LabeledPoly:
    sig: Signature
    poly: Polynomial  # zero only for syzygy records


class SigEngine:
    """State of the signature loop: module leads and the signature order."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.module_leads = []  # lm of the generator attached to each unit vector

    def new_index(self, lead: Monomial) -> int:
        self.module_leads.append(lead)
        return len(self.module_leads) - 1

    def sig_key(self, s: Signature):
        """Sort key of the signature order; equal keys mean equal signatures.

        ``key[:2]`` is the Schreyer order proper: the ring image of the term,
        then position.  Distinct twisted monomials with the same image and
        index tie there; only that level may justify discarding work.

        The rest is a fixed tie-break.  Among equal-image signatures the
        one whose monomial part is larger counts as smaller, so the
        least-shifted representative of a tied class is processed first
        and the others reduce against it.  With the image fixed, a larger
        monomial part means a smaller moved lead (cancellation in a
        monomial order), so the key holds the moved lead ascending.  Equal
        moved leads leave the shifts: the longer, then lexicographically
        larger, generator word counts as smaller.  The tie-break is
        preserved by left multiplication, which reduction and covering
        rely on.  Keys are not cached: holding one per signature costs
        more memory than recomputing them costs time.
        """
        lead = self.module_leads[s.index]
        moved = m_act(s.tm.shift, lead)
        word = map_to_tau(s.tm.shift)
        return (
            order_key(self.ring, m_mul(s.tm.mono, moved)),
            s.index,
            order_key(self.ring, moved),
            -len(word),
            tuple(-j for j in word),
        )


def j_pairs(p: LabeledPoly, q: LabeledPoly, pi, qi, engine: SigEngine):
    """The larger-signature sides of the S-polynomials of p and q.

    Sides with equal multiplied signatures are singular and emit nothing.
    The coprime filter stays off here: cover and syzygy logic subsume it.
    """
    out = []
    for gen in spair_generators(p.poly, q.poly, pi, qi, coprime_filter=False):
        sig1 = Signature(twisted_mul(TwistedMonomial(gen.cof1, gen.map1), p.sig.tm), p.sig.index)
        sig2 = Signature(twisted_mul(TwistedMonomial(gen.cof2, gen.map2), q.sig.tm), q.sig.index)
        key1, key2 = engine.sig_key(sig1), engine.sig_key(sig2)
        if key1 == key2:
            continue
        if key1 > key2:
            out.append(LabeledPoly(sig1, mul_term(act(gen.map1, p.poly), Fraction(1), gen.cof1)))
        else:
            out.append(LabeledPoly(sig2, mul_term(act(gen.map2, q.poly), Fraction(1), gen.cof2)))
    return out


def is_covered(j: LabeledPoly, G, S, engine: SigEngine) -> bool:
    """Whether a known pair or syzygy signature licenses discarding j.

    Both branches divide at the signature, exactly: a nonzero pair g covers
    j when some twisted t gives t * sig(g) == sig(j) and t moves g's lead
    strictly below j's lead; a syzygy covers j when its signature exactly
    left-divides j's.  Cover at the same signature with a merely tied or
    rearranged lead is no license: the discarded content would reappear at
    a signature the queue never visits.
    """
    if j.poly.is_zero:
        return False
    jl = order_key(engine.ring, lm(j.poly))
    for g in G:
        if g.sig.index != j.sig.index or g.poly.is_zero:
            continue
        for t in tm_left_quotients(j.sig.tm, g.sig.tm):
            if order_key(engine.ring, tm_apply(t, lm(g.poly))) < jl:
                return True
    for s in S:
        if s.sig.index != j.sig.index:
            continue
        if tm_left_quotients(j.sig.tm, s.sig.tm):
            return True
    return False


def regular_top_reduce(p: LabeledPoly, G, engine: SigEngine):
    """Top-reduce p by multiples with strictly smaller signature.

    Returns (reduced pair, singular, tied_used).  singular means a reducer
    with exactly p's signature exists and no smaller one applies; such
    pairs are discarded by the caller.  tied_used records that some step
    used a reducer whose signature ties p's at the Schreyer level and wins
    only by the artificial tie-break; a zero reached that way has an
    order-ambiguous module lead and must not be recorded as a syzygy.
    The signature itself never changes.
    """
    work = p.poly
    p_key = engine.sig_key(p.sig)
    tied_used = False
    while not work.is_zero:
        step = None
        singular = False
        target = lm(work)
        for g in G:
            if g.poly.is_zero:
                continue
            lead = lm(g.poly)
            # lazily, in pi_div_witnesses order: no more past the first step
            for rho in _match_witnesses(lead, target):
                t = TwistedMonomial(m_quotient(target, m_act(rho, lead)), rho)
                key = engine.sig_key(Signature(twisted_mul(t, g.sig.tm), g.sig.index))
                if key == p_key:
                    singular = True
                elif key < p_key:
                    step = (g, t, key[:2] == p_key[:2])
                    break
            if step:
                break
        if step is None:
            if singular:
                return LabeledPoly(p.sig, work), True, tied_used
            break
        g, t, tied = step
        tied_used = tied_used or tied
        g_img = act(t.shift, g.poly)
        ratio = lc(work) / lc(g_img)
        work = subtract(work, mul_term(g_img, ratio, t.mono))
    return LabeledPoly(p.sig, work), False, tied_used


def _signature_loop(polys, engine, limits):
    stats = {
        "pairs_processed": 0,
        "zero_reductions": 0,
        "tied_zero_reductions": 0,
        "covered_pairs": 0,
        "singular_discards": 0,
        "duplicate_signatures": 0,
        "insertions": 0,
        "syzygies": 0,
    }
    G, S = [], []
    J = []
    seq = 0

    def push(pair):
        # The weighted degree of the Schreyer image comes first, so the queue
        # is processed in finite degree bands.  Under a non-graded ring
        # order, popping by raw signature order alone can starve a pair
        # forever: every insertion spawns new pairs, and infinitely many of
        # them can compare below a fixed signature even as their degrees
        # grow without bound.  Reduction and covering still use the
        # undegreed signature order, so discards stay justified
        # independently of processing order.  Queued polynomials are never
        # zero: the generators are prepared nonzero and a J-pair is a
        # multiple of a basis element.
        nonlocal seq
        degree = tm_apply(pair.sig.tm, engine.module_leads[pair.sig.index]).degree(engine.ring)
        key = engine.sig_key(pair.sig)
        heapq.heappush(J, (degree, key, order_key(engine.ring, lm(pair.poly)), seq, pair))
        seq += 1

    for f in polys:
        idx = engine.new_index(lm(f))
        push(LabeledPoly(Signature(UNIT_TM, idx), f))
    status = COMPLETE
    done_sigs = set()

    while J:
        if limits.max_pairs is not None and stats["pairs_processed"] >= limits.max_pairs:
            status = BUDGET
            break
        p = heapq.heappop(J)[-1]
        if p.poly.width() > limits.max_width:
            status = BUDGET
            break
        if p.sig in done_sigs:
            # one pair per exact signature: the minimal-lead representative
            # was already handled, later arrivals are singular against it
            stats["duplicate_signatures"] += 1
            continue
        done_sigs.add(p.sig)
        stats["pairs_processed"] += 1
        if is_covered(p, G, S, engine):
            stats["covered_pairs"] += 1
            continue
        h, singular, tainted = regular_top_reduce(p, G, engine)
        if singular:
            stats["singular_discards"] += 1
            continue
        if h.poly.is_zero:
            stats["zero_reductions"] += 1
            if tainted:
                stats["tied_zero_reductions"] += 1
            S.append(h)
            stats["syzygies"] += 1
            continue
        h2 = normal_form(h.poly, [g.poly for g in G])
        if h2.is_zero:
            continue
        if h2 != h.poly:
            idx = engine.new_index(lm(h2))
            h = LabeledPoly(Signature(UNIT_TM, idx), h2)
        G.append(LabeledPoly(h.sig, monic(h.poly)))
        stats["insertions"] += 1
        if limits.max_basis is not None and len(G) > limits.max_basis:
            status = BUDGET
            break
        k = len(G) - 1
        for i in range(len(G)):
            for jp in j_pairs(G[i], G[k], i, k, engine):
                if jp.sig in done_sigs:
                    stats["duplicate_signatures"] += 1
                    continue
                if is_covered(jp, G, S, engine):
                    stats["covered_pairs"] += 1
                    continue
                push(jp)

    return G, S, stats, status


def egb_signature(F, limits: EngineLimits = EngineLimits()) -> EgbResult:
    """Signature-based orbit engine.

    The polynomial parts of the returned labeled pairs form an equivariant
    Groebner basis of the orbit ideal of F.  The basis is returned monic
    with duplicates and orbit-redundant leads dropped, but without full
    tail reduction, matching how the algorithm leaves its output.  A
    budget stop returns the direct engine's form of partial basis: the
    prepared generators, then the insertions, without duplicates, since a
    stop can come before a generator is ever inserted.
    """
    polys = _prepare(F)
    engine = SigEngine(polys[0].ring if polys else None)
    G, _S, stats, status = _signature_loop(polys, engine, limits)
    if status == BUDGET:
        basis = list(dict.fromkeys(polys + [g.poly for g in G]))
    else:
        basis = _minimalize([g.poly for g in G])
    return EgbResult(basis, stats, status)


def _minimalize(polys):
    """Drop duplicates and elements whose lead another lead orbit-divides."""
    out = []
    for i, f in enumerate(polys):
        redundant = False
        for j, g in enumerate(polys):
            if i == j:
                continue
            w = pi_divides(lm(g), lm(f))
            if w is not None and not (
                lm(g) == lm(f) and j > i
            ):
                # keep the earliest element among equal leads
                redundant = True
                break
        if not redundant and f not in out:
            out.append(f)
    return sorted_basis(out)
