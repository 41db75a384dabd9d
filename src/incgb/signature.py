"""Signature-based orbit engine over the shift-twisted monomial algebra.

Module terms live in a free module over monomials twisted by shift words:
a twisted monomial is a plain monomial times a weakly increasing word in the
shift generators, in left standard form.  Signatures (lead module terms)
are ordered by the Schreyer order induced by the lead monomials of the
module generators, ties broken by position and then by a fixed total order
on twisted monomials.

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
from .incmaps import compose, extend_partial, map_to_tau, standard_form, tau_to_map
from .poly import Polynomial, act, lc, lm, monic, mul_term, normal_form, sorted_basis, subtract
from .rings import (
    Monomial,
    Ring,
    _match_witnesses,
    compare,
    m_act,
    m_divides,
    m_mul,
    m_quotient,
    pi_divides,
)
from .spairs import interlacings, spair_generators

UNIT_MONO = Monomial()


@dataclass(frozen=True)
class TwistedMonomial:
    """mono * t_{j1}...t_{jd} in left standard form (word weakly increasing)."""

    mono: Monomial = UNIT_MONO
    word: tuple = ()

    @property
    def is_unit(self):
        return self.mono.is_unit and not self.word

    def as_map(self):
        return tau_to_map(self.word)


UNIT_TM = TwistedMonomial()


def twisted_mul(a: TwistedMonomial, b: TwistedMonomial) -> TwistedMonomial:
    """(m, s)(n, t) = (m * s(n), s t), renormalized to left standard form."""
    mono = m_mul(a.mono, m_act(a.as_map(), b.mono))
    return TwistedMonomial(mono, standard_form(a.word + b.word))


def tm_apply(tm: TwistedMonomial, m: Monomial) -> Monomial:
    """Action of a twisted monomial on an ordinary monomial."""
    return m_mul(tm.mono, m_act(tm.as_map(), m))


@lru_cache(maxsize=None)
def _shift_quotient(target_word, base_word):
    """The shift part of a left quotient: (st, its word) or None.

    st is forced on the image of the base's map by st o sb == s_target and
    filled minimally elsewhere; the words must also multiply back to the
    target's word.  This depends on the two words only, which recur far
    more often than the twisted monomials, so it is computed once per pair.
    """
    sb = tau_to_map(base_word)
    st_target = tau_to_map(target_word)
    span = max(len(sb.values), len(st_target.values)) + 2
    st = extend_partial(
        tuple(sb(i) for i in range(span)),
        tuple(st_target(i) for i in range(span)),
    )
    if st is None or compose(st, sb) != st_target:
        return None
    word = map_to_tau(st)
    if standard_form(word + base_word) != target_word:
        return None
    return st, word


def tm_left_quotients(target: TwistedMonomial, base: TwistedMonomial):
    """Twisted monomials t with t * base == target.

    The map part is forced on the image of base's map and filled minimally
    elsewhere, so at most one candidate is produced; a miss only forgoes a
    discard in the cover test.
    """
    shift = _shift_quotient(target.word, base.word)
    if shift is None:
        return []
    st, word = shift
    moved = m_act(st, base.mono)
    # once moved divides target's monomial, t * base == target holds exactly
    if not m_divides(moved, target.mono):
        return []
    return [TwistedMonomial(m_quotient(target.mono, moved), word)]


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
        self._images = {}

    def new_index(self, lead: Monomial) -> int:
        self.module_leads.append(lead)
        return len(self.module_leads) - 1

    def sig_image(self, s: Signature) -> Monomial:
        img = self._images.get(s)
        if img is None:
            img = tm_apply(s.tm, self.module_leads[s.index])
            self._images[s] = img
        return img

    def sig_compare_schreyer(self, s: Signature, t: Signature):
        """Schreyer comparison proper: ring image of the term, then position.

        Distinct twisted monomials with the same image and index compare
        equal here; only this comparison may justify discarding work.
        """
        c = compare(self.ring, self.sig_image(s), self.sig_image(t))
        if c != 0:
            return c
        if s.index != t.index:
            return -1 if s.index < t.index else 1
        return 0

    def sig_compare(self, s: Signature, t: Signature):
        """Total order: Schreyer comparison refined by a fixed tie-break.

        Among equal-image signatures the one whose monomial part is larger
        (equivalently, whose shift part is closer to the identity) counts
        as smaller, so the least-shifted representative of a tied class is
        processed first and the others reduce against it.  The tie-break
        is preserved by left multiplication, which the comparison's use in
        reduction and covering relies on.
        """
        c = self.sig_compare_schreyer(s, t)
        if c != 0:
            return c
        c = compare(self.ring, s.tm.mono, t.tm.mono)
        if c != 0:
            return -c
        sw = (len(s.tm.word), s.tm.word)
        tw = (len(t.tm.word), t.tm.word)
        if sw != tw:
            return 1 if sw < tw else -1
        return 0

    def lead_witness_multipliers(self, divisor: Monomial, target: Monomial):
        """Twisted monomials t with t * divisor == target (as monomials).

        Yields (t, witness) lazily, in the witness order of
        ``pi_div_witnesses``, so a caller that stops early builds no more.
        """
        for rho in _match_witnesses(divisor, target):
            cof = m_quotient(target, m_act(rho, divisor))
            yield TwistedMonomial(cof, map_to_tau(rho)), rho


def j_pairs(p: LabeledPoly, q: LabeledPoly, pi, qi, engine: SigEngine):
    """The larger-signature sides of the S-polynomials of p and q.

    Sides with equal multiplied signatures are singular and emit nothing.
    The coprime filter stays off here: cover and syzygy logic subsume it.
    """
    out = []
    for gen in spair_generators(p.poly, q.poly, pi, qi, coprime_filter=False):
        mult1 = TwistedMonomial(gen.cof1, map_to_tau(gen.map1))
        mult2 = TwistedMonomial(gen.cof2, map_to_tau(gen.map2))
        sig1 = Signature(twisted_mul(mult1, p.sig.tm), p.sig.index)
        sig2 = Signature(twisted_mul(mult2, q.sig.tm), q.sig.index)
        c = engine.sig_compare(sig1, sig2)
        if c == 0:
            continue
        if c > 0:
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
    jl = lm(j.poly)
    for g in G:
        if g.sig.index != j.sig.index or g.poly.is_zero:
            continue
        for t in tm_left_quotients(j.sig.tm, g.sig.tm):
            if compare(engine.ring, tm_apply(t, lm(g.poly)), jl) < 0:
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
    tied_used = False
    while not work.is_zero:
        step = None
        singular = False
        for g in G:
            if g.poly.is_zero:
                continue
            for t, rho in engine.lead_witness_multipliers(lm(g.poly), lm(work)):
                moved = Signature(twisted_mul(t, g.sig.tm), g.sig.index)
                c = engine.sig_compare(moved, p.sig)
                if c == 0:
                    singular = True
                elif c < 0:
                    step = (g, t, rho, engine.sig_compare_schreyer(moved, p.sig) == 0)
                    break
            if step:
                break
        if step is None:
            if singular:
                return LabeledPoly(p.sig, work), True, tied_used
            break
        g, t, rho, tied = step
        tied_used = tied_used or tied
        g_img = act(rho, g.poly)
        ratio = lc(work) / lc(g_img)
        work = subtract(work, mul_term(g_img, ratio, t.mono))
    return LabeledPoly(p.sig, work), False, tied_used


@dataclass(frozen=True)
class SignatureOptions:
    principal_syzygies: bool = False
    use_cover: bool = True


def principal_syzygies(entries, engine: SigEngine):
    """Syzygy signatures from commutation relations between distinct generators."""
    out = []
    n = len(entries)
    for i in range(n):
        for jdx in range(i + 1, n):
            fi, fj = entries[i], entries[jdx]
            wi, wj = fi.poly.width(), fj.poly.width()
            for s1, s2 in interlacings(wi, wj):
                lead_j = m_act(s2, lm(fj.poly))
                lead_i = m_act(s1, lm(fi.poly))
                cand_i = Signature(
                    twisted_mul(TwistedMonomial(lead_j, map_to_tau(s1)), fi.sig.tm), fi.sig.index
                )
                cand_j = Signature(
                    twisted_mul(TwistedMonomial(lead_i, map_to_tau(s2)), fj.sig.tm), fj.sig.index
                )
                larger = cand_i if engine.sig_compare(cand_i, cand_j) > 0 else cand_j
                rec = LabeledPoly(larger, Polynomial(fi.poly.ring, ()))
                if rec not in out:
                    out.append(rec)
    return out


class _QueueEntry:
    """Heap adapter ordering pairs by signature degree, then signature.

    The weighted degree of the Schreyer image comes first so the queue is
    processed in finite degree bands.  Under a non-graded ring order,
    popping by raw signature order alone can starve a pair forever: every
    insertion spawns new pairs, and infinitely many of them can compare
    below a fixed signature even as their degrees grow without bound.
    Reduction and covering still use the undegreed signature order, so
    discards stay justified independently of processing order.
    """

    __slots__ = ("pair", "seq", "engine", "degree")

    def __init__(self, pair, seq, engine):
        self.pair = pair
        self.seq = seq
        self.engine = engine
        self.degree = engine.sig_image(pair.sig).degree(engine.ring)

    def __lt__(self, other):
        if self.degree != other.degree:
            return self.degree < other.degree
        c = self.engine.sig_compare(self.pair.sig, other.pair.sig)
        if c != 0:
            return c < 0
        if not self.pair.poly.is_zero and not other.pair.poly.is_zero:
            c = compare(self.engine.ring, lm(self.pair.poly), lm(other.pair.poly))
            if c != 0:
                return c < 0
        return self.seq < other.seq


def _signature_loop(polys, engine, opts, limits):
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
        nonlocal seq
        heapq.heappush(J, _QueueEntry(pair, seq, engine))
        seq += 1

    for f in polys:
        idx = engine.new_index(lm(f))
        push(LabeledPoly(Signature(UNIT_TM, idx), f))
    if opts.principal_syzygies:
        base = [LabeledPoly(Signature(UNIT_TM, i), f) for i, f in enumerate(polys)]
        S.extend(principal_syzygies(base, engine))
        stats["syzygies"] = len(S)
    status = COMPLETE
    done_sigs = set()

    while J:
        if limits.max_pairs is not None and stats["pairs_processed"] >= limits.max_pairs:
            status = BUDGET
            break
        p = heapq.heappop(J).pair
        if not p.poly.is_zero and p.poly.width() > limits.max_width:
            status = BUDGET
            break
        key = (p.sig.tm, p.sig.index)
        if key in done_sigs:
            # one pair per exact signature: the minimal-lead representative
            # was already handled, later arrivals are singular against it
            stats["duplicate_signatures"] += 1
            continue
        done_sigs.add(key)
        stats["pairs_processed"] += 1
        if opts.use_cover and is_covered(p, G, S, engine):
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
                if (jp.sig.tm, jp.sig.index) in done_sigs:
                    stats["duplicate_signatures"] += 1
                    continue
                if opts.use_cover and is_covered(jp, G, S, engine):
                    stats["covered_pairs"] += 1
                    continue
                push(jp)

    return G, S, stats, status


def egb_signature(
    F,
    opts: SignatureOptions = SignatureOptions(),
    limits: EngineLimits = EngineLimits(),
) -> EgbResult:
    """Signature-based orbit engine.

    The polynomial parts of the returned labeled pairs form an equivariant
    Groebner basis of the orbit ideal of F.  The basis is returned monic
    with duplicates and orbit-redundant leads dropped, but without full
    tail reduction, matching how the algorithm leaves its output.
    """
    polys = _prepare(F)
    engine = SigEngine(polys[0].ring if polys else None)
    G, _S, stats, status = _signature_loop(polys, engine, opts, limits)
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
