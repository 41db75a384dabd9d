"""Signature-based orbit engine over the shift-twisted monomial algebra.

Module terms live in a free module over monomials twisted by shifts: a
twisted monomial is a plain monomial times an increasing map, and acts on a
monomial m as mono * shift(m).  Signatures are ordered by the Schreyer
order of the module generators' leads, ties broken by position and then by
a fixed total order on twisted monomials: one sort key, ``SigEngine.sig_key``.

``egb_signature`` gives each new basis element a full orbit normal form;
when that changes it, the element re-enters with a fresh unit signature.
Zero reductions contribute syzygy signatures.  A J-pair stays unbuilt, a
signature, a lead and a multiple of a basis element, until it is popped.
Regular top-reduction is a reducer choice for the kernel
``poly.reduce_terms``.  The engine keeps one reducer table, one row per
insertion, and one memo of each term's candidate steps over it
(``poly.candidates``), every witness of every row, searched once per run.
Regular top-reduction and the full normal form both choose from it, the
latter its first candidate, and a step keeps its tail once moved.
What depends on the popped signature is judged per pop: a candidate's
Schreyer head first, its full key on a head tie, and the tie and singular
verdicts.  The two sides of a J-pair are judged the same way, and only the
winner gets a signature and key unless the heads tie.  A J-pair whose
moved leads are coprime and whose heads differ is never built, since a
principal syzygy has its signature (the Koszul criterion of ``j_pairs``).
One cover index holds basis elements and syzygies by index and shift; a
cover test scans it through the memoized shift quotient (``_shift_quotient``).
A J-pair at a known signature or past ``max_width`` is dropped when queued,
a covered one when popped, uncounted by ``max_pairs``; after a width drop
the run drains its queue and reports BUDGET, as the direct engine does.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import NamedTuple

from .buchberger import BUDGET, COMPLETE, EgbResult, EngineLimits, _prepare, autoreduce
from .incmaps import IDENTITY, IncMap, compose, extend_partial, word_key
from .poly import Polynomial, candidates, kernel_terms, lm, monic, reduce_terms, reducer_row
from .rings import (
    UNIT,
    Monomial,
    Ring,
    m_act,
    m_divides,
    m_mul,
    m_quotient,
    order_key,
)
from .spairs import _images, _lead_getters, _moved, _moved_vars, _shares, _spair_gen


STAT_KEYS = (
    "pairs_processed", "zero_reductions", "tied_zero_reductions", "covered_pairs",
    "singular_discards", "duplicate_signatures", "insertions", "syzygies",
    "koszul_pairs", "full_zero_reductions",
)


class TwistedMonomial(NamedTuple):
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
def _shift_quotient(target: IncMap, base: IncMap):
    """The shift part of a left quotient, st with st o base == target, or
    None: forced on the image of base, minimal elsewhere.  Between two
    breakpoints of either map both shifts stay put, so st is sampled at those
    breakpoints alone, and the minimal map through the samples meets every
    forced value.  Maps recur far more often than twisted monomials, so this
    is memoized on them."""
    points = sorted({*base.starts, *target.starts})
    return extend_partial([base(p) for p in points], [target(p) for p in points])


class Signature(NamedTuple):
    tm: TwistedMonomial
    index: int


class LabeledPoly(NamedTuple):
    sig: Signature
    poly: Polynomial


class JPair:
    """t * source for t = (cof, map), unbuilt: sig == t * sig(source), key ==
    its sig_key and lead == cof * map(lm(source)); the polynomial is built on
    demand.  A queue record, never compared: slots, and no dataclass."""

    __slots__ = ("sig", "key", "lead", "source", "map", "cof")

    def __init__(self, sig, key, lead, source, map, cof):
        self.sig, self.key, self.lead = sig, key, lead
        self.source, self.map, self.cof = source, map, cof

    @property
    def poly(self):
        g = self.source.poly
        return Polynomial(g.ring, tuple((c, m_mul(m_act(self.map, n), self.cof)) for c, n in g.terms))

    def width(self):
        w = self.source.poly.width()  # an increasing map: the top index goes widest
        return max(self.cof.width(), self.map(w - 1) + 1 if w else 0)


class SigEngine:
    """State of one signature run: module leads, the signature order, the
    run's one reducer table with each row's label, its candidate memo and
    its statistics."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self.module_leads = []  # lm of the generator attached to each unit vector
        # orbit reducer rows (``poly.reducer_row``) of the basis, one per
        # insertion, read by regular top-reduction and the full normal form
        self.rows = []
        self.labels = []  # per row: (sig(g), Schreyer image of sig(g))
        self.candidates = candidates(self.rows)  # term -> its steps, memoized

    def new_index(self, lead: Monomial) -> int:
        self.module_leads.append(lead)
        return len(self.module_leads) - 1

    def add_reducer(self, g: LabeledPoly):
        """Append g's row and label, as the basis element ``len(self.rows)``."""
        self.labels.append((g.sig, tm_apply(g.sig.tm, self.module_leads[g.sig.index])))
        self.rows.append(reducer_row(len(self.rows), g.poly, True))

    def sig_key(self, s: Signature):
        """Sort key of the signature order; equal keys mean equal signatures.

        ``key[:2]`` is the Schreyer order proper, image then position; only
        that level may justify discarding work.  The rest is a fixed
        tie-break among equal images: a larger monomial part, which means a
        smaller moved lead, counts as smaller, so the least-shifted member of
        a tied class comes first and the others reduce against it; equal
        moved leads leave the shifts, where the longer, then lexicographically
        larger, generator word counts as smaller (``word_key``).  Left
        multiplication keeps the tie-break, which reduction and covering rely
        on.  Only a queued J-pair keeps its key; a cache of every signature's
        would cost more memory than recomputing them costs time.  The same
        holds for the candidate steps of ``candidates``: keeping each
        one's Schreyer head, and its full key once computed, raised the
        traced peak of a toric solve from 6.0 to 7.6 MiB.
        """
        lead = self.module_leads[s.index]
        moved = m_act(s.tm.shift, lead)
        return (
            order_key(self.ring, m_mul(s.tm.mono, moved)),
            s.index,
            order_key(self.ring, moved),
            -s.tm.shift.shifts[-1],  # the word's length
            word_key(s.tm.shift),
        )


def j_pairs(p: LabeledPoly, q: LabeledPoly, pi, qi, engine: SigEngine):
    """The larger-signature sides of the S-polynomials of p and q, unbuilt.

    p and q are the basis elements of rows pi and qi.  Their S-polynomials
    are placed by every interlacing (a, b) of their widths, sigma =
    IncMap(a) moving p and tau = IncMap(b) moving q (``spairs._images``),
    the self-pair's diagonal and mirrors skipped.  A side t * sig(g),
    t = (cof, map), is judged by its Schreyer head first: (cof * map(image),
    index), image being the row's Schreyer image (``SigEngine.labels``).
    Only the winning side gets its signature and ``sig_key``; on a head
    tie both sides get their full keys, and equal keys are singular and
    emit nothing.  A generator, like the pair source it mirrors.

    The Koszul criterion (Gao, Volny and Wang, Math. Comp. 2016): when a
    placement's moved leads sigma(lf) and tau(lg) are coprime,
    tau(q) * sigma(u_p) - sigma(p) * tau(u_q) is a syzygy, u_g being the
    module element sig(g) labels.  With distinct heads its lead signature
    is the winning side's, so a syzygy covers the J-pair: the placement is
    counted in ``koszul_pairs`` and dropped, before any width test.  On a
    head tie the syzygy's lead is settled by the tie-break alone, which
    licenses no discard, so that placement stays.

    Coprimality is read on index tuples (``spairs._shares``), and whether
    a coprime placement ties is read per pair, before any map or monomial
    of the placement is built.  Lemma: with Ip, Iq the Schreyer images of p
    and q, a placement whose moved leads are coprime has tied heads exactly
    when p and q share their signature index, lf | Ip, lg | Iq and
    sigma(Ip / lf) == tau(Iq / lg).  Proof: the overlap is sigma(lf) *
    tau(lg), so the heads' monomials are tau(lg) * sigma(Ip) and sigma(lf)
    * tau(Iq).  If the three conditions hold, both equal sigma(lf) * tau(lg)
    * sigma(Ip / lf).  Conversely, if they are equal, sigma(lf) divides
    tau(lg) * sigma(Ip) and is coprime to tau(lg), so sigma(lf) divides
    sigma(Ip).  An increasing map sends distinct variables to distinct
    variables, so a monomial moved by it keeps every exponent, and lf
    divides Ip; likewise lg divides Iq.  Cancelling sigma(lf) * tau(lg)
    leaves sigma(Ip / lf) == tau(Iq / lg).  So when the per-pair test fails
    every coprime placement is dropped at once; otherwise sigma(Ip / lf) is
    moved once per f image a and tau(Iq / lg) once per placement, and only
    a tie builds the placement's maps and S-pair.  A placement whose leads
    share a variable is built and judged by its heads as before.
    """
    ring, stats = engine.ring, engine.stats
    lf, lg = lm(p.poly), lm(q.poly)
    image_p, image_q = engine.labels[pi][1], engine.labels[qi][1]
    # the lemma's per-pair test: can any coprime placement tie?
    ties = p.sig.index == q.sig.index and m_divides(lf, image_p) and m_divides(lg, image_q)
    if ties:
        rest_p, rest_q = m_quotient(image_p, lf), m_quotient(image_q, lg)
    same = pi == qi
    fget, gget = _lead_getters(lf), _lead_getters(lg)

    def side(cof, rho, g):
        sig = Signature(twisted_mul(TwistedMonomial(cof, rho), g.sig.tm), g.sig.index)
        return sig, engine.sig_key(sig)

    wf, wg = p.poly.width(), q.poly.width()
    for a, bs in _images(wf, wg, wf + wg):
        fvars = _moved_vars(fget, a)
        fa = None  # IncMap(a), f's moved lead and moved Schreyer rest, once needed
        for b in bs:
            if same and a >= b:
                continue  # the diagonal, or the mirror of a placement already listed
            coprime = not _shares(fvars, gget, b)
            if coprime and not ties:
                stats["koszul_pairs"] += 1
                continue
            if fa is None:
                fa, lfa = IncMap(a), _moved(lf, a)
                moved_rest = m_act(fa, rest_p) if ties else None
            gb = IncMap(b)
            if coprime and m_act(gb, rest_q) != moved_rest:
                stats["koszul_pairs"] += 1
                continue
            gen = _spair_gen(pi, qi, fa, gb, lfa, _moved(lg, b))
            if not coprime:
                head1 = (order_key(ring, m_mul(gen.cof1, m_act(fa, image_p))), p.sig.index)
                head2 = (order_key(ring, m_mul(gen.cof2, m_act(gb, image_q))), q.sig.index)
                if head1 != head2:
                    cof, rho, g = (gen.cof1, fa, p) if head1 > head2 else (gen.cof2, gb, q)
                    yield JPair(*side(cof, rho, g), gen.overlap, g, rho, cof)
                    continue
            (sig1, key1), (sig2, key2) = side(gen.cof1, fa, p), side(gen.cof2, gb, q)
            if key1 > key2:
                yield JPair(sig1, key1, gen.overlap, p, fa, gen.cof1)
            elif key1 < key2:
                yield JPair(sig2, key2, gen.overlap, q, gb, gen.cof2)


def add_cover(C, sig: Signature, lead=None):
    """Record a known signature in the cover index C: index -> shift ->
    [(monomial part, lead)], lead being None for a syzygy."""
    C.setdefault(sig.index, {}).setdefault(sig.tm.shift, []).append((sig.tm.mono, lead))


def is_covered(j, C, engine: SigEngine) -> bool:
    """Whether a basis element or syzygy of the index C (``add_cover``)
    licenses discarding j: some twisted t gives t * sig == sig(j) exactly,
    and a basis element's lead, moved by t, falls strictly below j's.  A
    merely tied or rearranged lead is no license: the discarded content
    would reappear at a signature the queue never visits.  A plain scan: per
    group, t's shift st is forced (``_shift_quotient``), and per entry n,
    st(n) must divide j's monomial, the quotient being t's monomial part.
    """
    ring, target = engine.ring, j.sig.tm
    jl = order_key(ring, j.lead)
    for shift, group in C.get(j.sig.index, {}).items():
        st = _shift_quotient(target.shift, shift)
        if st is None:
            continue
        for n, lead in group:
            moved = m_act(st, n)
            if not m_divides(moved, target.mono):
                continue
            if lead is None:
                return True
            if order_key(ring, m_mul(m_quotient(target.mono, moved), m_act(st, lead))) < jl:
                return True
    return False


def regular_top_reduce(p, engine: SigEngine):
    """Top-reduce p by multiples of the engine's rows with strictly smaller
    signature, each row's signature read from its label
    (``SigEngine.add_reducer``).

    Returns (reduced pair, singular, tied_used).  singular means a reducer
    with exactly p's signature exists for the first term no smaller one
    reduces; such pairs are discarded by the caller.  tied_used records
    that some step used a reducer whose signature ties p's at the Schreyer
    level and wins only by the artificial tie-break.  A zero reached that
    way has an order-ambiguous module lead; the caller records it as a
    syzygy like any other zero and counts it in ``tied_zero_reductions``.
    Whether such a syzygy may license discards is still open.  The
    signature itself never changes.  This is a reducer choice for
    ``reduce_terms``: once a term stays, every later term stays too.

    Each term walks its candidate steps (``poly.candidates``), searched
    once per run, in the same order on every pop.  What depends on p's
    signature is judged per pop: the candidate's Schreyer head, its full
    ``sig_key`` on a head tie, and the tie, singular and ``tied_used``
    verdicts.  The chosen candidate is itself the step; the kernel moves
    its tail once and the memo keeps it.
    """
    ring, p_key = engine.ring, engine.sig_key(p.sig)
    head = p_key[:2]
    stopped = singular = tied_used = False

    def choose(target):
        nonlocal stopped, singular, tied_used
        if stopped:
            return None
        tied = False  # a reducer at exactly p's signature, for this term only
        for candidate in engine.candidates(target):
            gi, _, rho, cof, _ = candidate
            sig, image = engine.labels[gi]
            # the Schreyer head of t * sig(g) decides unless it ties p's
            key = (order_key(ring, m_mul(cof, m_act(rho, image))), sig.index)
            if key == head:
                t = TwistedMonomial(cof, rho)
                key = engine.sig_key(Signature(twisted_mul(t, sig.tm), sig.index))
            if key == p_key:
                tied = True
            elif key < p_key:
                tied_used = tied_used or key[:2] == head
                return candidate
        stopped, singular = True, tied
        return None

    h = reduce_terms(ring, kernel_terms(p.poly), choose)  # builds a J-pair's poly
    return LabeledPoly(p.sig, h), singular, tied_used


def _signature_loop(polys, engine, limits):
    stats = engine.stats
    G, C = [], {}  # C: the cover index of ``add_cover``
    J, seq, done_sigs = [], 0, set()
    over_width = False

    def full_reducer(m):
        # normal_form over G: the first candidate is first_reducer's step
        return next(engine.candidates(m), None)

    def push(pair):
        # The weighted degree of the Schreyer image comes first, so the queue
        # runs in finite degree bands: under a non-graded order, infinitely
        # many pairs can compare below a fixed signature as their degrees
        # grow.  Reduction and covering use the undegreed order, so discards
        # stay justified whatever the processing order.  Queued pairs are
        # multiples of a prepared generator or a basis element: never zero.
        # A known signature is a duplicate; a pair past max_width is
        # dropped, as in the direct engine, and the run goes on (degree
        # bands do not run by width).  Cover is tested once, at the pop.
        nonlocal seq, over_width
        if pair.sig in done_sigs:
            stats["duplicate_signatures"] += 1
        elif pair.width() > limits.max_width:
            over_width = True
        else:
            degree = tm_apply(pair.sig.tm, engine.module_leads[pair.sig.index]).degree(engine.ring)
            heapq.heappush(J, (degree, pair.key, order_key(engine.ring, pair.lead), seq, pair))
            seq += 1

    for f in polys:
        sig = Signature(UNIT_TM, engine.new_index(lm(f)))
        push(JPair(sig, engine.sig_key(sig), lm(f), LabeledPoly(sig, f), IDENTITY, UNIT))  # 1 * f

    while J:
        p = heapq.heappop(J)[-1]
        if p.sig in done_sigs:
            # one pair per exact signature: the minimal-lead representative
            # was already handled, later arrivals are singular against it
            stats["duplicate_signatures"] += 1
            continue
        done_sigs.add(p.sig)
        if is_covered(p, C, engine):
            stats["covered_pairs"] += 1
            continue
        if limits.max_pairs is not None and stats["pairs_processed"] >= limits.max_pairs:
            return G, stats, BUDGET
        stats["pairs_processed"] += 1
        h, singular, tainted = regular_top_reduce(p, engine)
        if singular:
            stats["singular_discards"] += 1
            continue
        if h.poly.is_zero:
            stats["zero_reductions"] += 1
            stats["tied_zero_reductions"] += tainted
            add_cover(C, h.sig)
            stats["syzygies"] += 1
            continue
        h2 = reduce_terms(engine.ring, kernel_terms(h.poly), full_reducer)
        if h2.is_zero:
            stats["full_zero_reductions"] += 1
            continue
        if h2 != h.poly:
            h = LabeledPoly(Signature(UNIT_TM, engine.new_index(lm(h2))), h2)
        G.append(LabeledPoly(h.sig, monic(h.poly)))
        add_cover(C, h.sig, lm(h.poly))
        engine.add_reducer(G[-1])
        stats["insertions"] += 1
        if limits.max_basis is not None and len(G) > limits.max_basis:
            return G, stats, BUDGET
        k = len(G) - 1
        for i in range(len(G)):
            for jp in j_pairs(G[i], G[k], i, k, engine):
                push(jp)
    return G, stats, BUDGET if over_width else COMPLETE


def egb_signature(F, limits: EngineLimits = EngineLimits()) -> EgbResult:
    """Signature-based orbit engine.

    A complete run returns the reduced equivariant Groebner basis of the
    orbit ideal of F, interreduced by ``autoreduce`` as the other engines'
    are, so every engine gives the same answer.  A budget stop returns the
    direct engine's form of partial basis: the prepared generators, then the
    insertions, without duplicates.
    """
    polys = _prepare(F)
    engine = SigEngine(polys[0].ring if polys else None)
    G, stats, status = _signature_loop(polys, engine, limits)
    if status == BUDGET:
        return EgbResult(list(dict.fromkeys(polys + [g.poly for g in G])), stats, status)
    return EgbResult(autoreduce([g.poly for g in G]), stats, status)
