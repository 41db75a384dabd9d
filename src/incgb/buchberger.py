"""Equivariant Buchberger engines: direct, truncated/incremental, classical.

The direct and classical engines share one Buchberger loop: a priority
queue keyed by (overlap width, overlap degree, insertion sequence), one
reduction kernel and one interreduction routine.  One flag, ``orbit``,
tells them apart: orbit divisibility and the orbit S-pairs of
interlacings, or plain divisibility and one ordinary S-pair per pair of
entries.  Under plain divisibility the classical engine queues only the
pairs the Gebauer–Möller criteria M, F and coprime-B keep
(``_chain_update``).  Both engines skip, as they pop them, the pairs the
strict chain criterion proves redundant (``_chained``; ``is_egb`` applies
it too and argues its soundness); under plain divisibility that test is
Gebauer–Möller criterion B on queued pairs.  The chain test asks the
run's reducer choice, so the reductions and the chain test share one
witness memo.  There is no termination theory for general inputs, so
explicit budgets (pair count, width, basis size) bound every run;
exhausting a budget returns the partial basis with a distinguished status
instead of raising.

The incremental engine computes classical reduced bases of generator
truncations at growing width and stops as soon as the equivariant
Buchberger criterion certifies the result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .incmaps import IDENTITY, increasing_maps
from .poly import act, lm, monic, sorted_basis
from .poly import first_reducer, integral, kernel_terms, reduce_terms, reducer_row, reducer_table
from .poly import support_mask
from .rings import Monomial, m_act, m_divides, m_mul
from .spairs import _spair_gen, spair_generators

COMPLETE = "complete"
BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class EngineLimits:
    max_width: int = 16
    max_pairs: int = 100_000
    max_basis: int | None = None


@dataclass
class EgbResult:
    basis: list
    stats: dict = field(default_factory=dict)
    status: str = COMPLETE


def _prepare(F):
    """The nonzero inputs made monic, first occurrences in order."""
    return list(dict.fromkeys(monic(f) for f in F if not f.is_zero))


def _spoly(gen, G):
    """The S-polynomial of a critical-pair generator over a monic basis, as
    the kernel's coefficient dict: the cancelled leads stay, with 0.  The
    second image is negated rather than scaled, and integral coefficients
    are ints (``integral``)."""
    acc = {m_mul(m_act(gen.map1, n), gen.cof1): integral(c) for c, n in G[gen.fi].terms}
    for c, n in G[gen.gi].terms:
        n = m_mul(m_act(gen.map2, n), gen.cof2)
        acc[n] = acc.get(n, 0) - integral(c)
    return acc


def _chain_update(table, k):
    """The Gebauer–Möller choice of partners for row k of a plain-divisibility
    table (``UPDATE`` in Becker–Weispfenning): the rows i < k whose pair
    with k the criteria keep, ascending.

    With h the lead of row k, a new pair {g, h} has lcm h * q,
    q = g / gcd(g, h), so lcms divide as their q do.  Criterion M keeps the
    q minimal under divisibility, F one row per q (the first), and B drops
    every q that a lead coprime to h has (q == g): that pair reduces to 0,
    and the other pairs of its lcm follow from it.  Criterion B on queued
    pairs is the pop-time chain test, ``_chained``, which both modes share.
    """
    hexp = dict(table[k][2])
    quotients = []
    for i in range(k):
        g = table[i][2]
        q = Monomial((v, d) for v, e in g if (d := e - hexp.get(v, 0)) > 0)
        quotients.append((sum(d for _, d in q), i, q, q == g))
    quotients.sort()  # by degree: a proper divisor of q comes before q
    minimal = {}  # q -> [q's support mask, q, first row, any lead coprime to h]
    for _, i, q, coprime in quotients:
        if q in minimal:
            minimal[q][3] |= coprime
            continue
        mask = support_mask(q)
        if not any(not r[0] & ~mask and m_divides(r[1], q) for r in minimal.values()):
            minimal[q] = [mask, q, i, coprime]
    return sorted(i for *_, i, coprime in minimal.values() if not coprime)


def _chained(gen, choose):
    """The strict chain criterion: true of a critical-pair generator needing
    no reduction (the argument is at ``is_egb``), asked of ``choose``, the
    run's orbit or plain reducer choice (``first_reducer``).

    With overlap t = cof1 * σ(lm f) = cof2 * τ(lm g), the test asks whether
    some lead orbit-divides t / (v * w) for a variable v of cof2 and w of
    cof1.  That is the chain condition: some shifted lead u = ρ(lm h)
    divides t, and lcm(σ lm f, u) and lcm(τ lm g, u) are both proper
    divisors of t.  For lcm(σ lm f, u) falls short of t exactly at a
    variable w of cof1 where u does, and likewise for v; cof1 and cof2 have
    disjoint supports, so v != w.  A unit cofactor makes no test.  Under
    plain divisibility every map is the identity, and the test is
    Gebauer–Möller criterion B: some lead u divides t, and lcm(a, u) and
    lcm(b, u) both differ from t.  The choice's memo serves the reductions
    and this test alike; a step found here moves no tail until a reduction
    applies it.
    """
    t = gen.overlap
    return any(
        choose(Monomial((u, d) for u, e in t if (d := e - (u == v or u == w)))) is not None
        for v, _ in gen.cof2
        for w, _ in gen.cof1
    )


def _pair_loop(F, orbit: bool, limits: EngineLimits) -> EgbResult:
    """Buchberger's loop, shared by the direct and classical engines.

    ``orbit`` chooses the mode.  Orbit divisibility pairs basis entries
    i <= j by ``spair_generators``; plain divisibility pairs entries i < j
    by their one ordinary S-pair, both maps the identity.  One reducer
    table serves the whole run, one row per insertion.

    Each prepared generator and each insertion k, in that order, queues
    its pairs with entries 0..k as soon as it exists.  Under orbit
    divisibility every pair set is queued; under plain divisibility the
    Gebauer–Möller update (``_chain_update``) chooses the partners, and
    only the pairs its criteria keep are made (distinct entries whose
    leads share a variable).  The queue is only pushed and popped.  In
    both modes a popped pair that the strict chain criterion
    (``_chained``) proves redundant is skipped, neither processed nor
    counted: a COMPLETE orbit run has queued every pair of orbit elements
    that ``spair_generators`` yields for its final basis, each once, so
    ``is_egb``'s argument holds over that basis.

    A pair set whose wider lead exceeds max_width is dropped before it is
    drawn, as none of its pairs is narrower; any other pair wider than
    max_width is dropped where it is made, after the criteria.  max_pairs
    and max_basis stop the run with the partial, unreduced basis and
    BUDGET.  A drained queue returns the interreduced basis, or the
    unreduced one and BUDGET if a pair was dropped.
    """
    G = _prepare(F)
    stats = {"pairs_processed": 0, "zero_reductions": 0, "insertions": 0}
    if not G:
        return EgbResult([], stats, COMPLETE)
    ring = G[0].ring
    table = reducer_table(G, orbit)
    choose = first_reducer(table, orbit)
    queue = []
    seq = 0
    over_width = False

    def push_pairs(i, j):
        nonlocal seq, over_width
        # An increasing map never lowers an index, so no overlap is narrower
        # than a lead: a wide lead drops the whole set before it is drawn.
        if max(lm(G[i]).width(), lm(G[j]).width()) > limits.max_width:
            over_width = True
            return
        if orbit:
            gens = spair_generators(G[i], G[j], i, j)
        else:
            gens = (_spair_gen(i, j, IDENTITY, IDENTITY, lm(G[i]), lm(G[j])),)
        for gen in gens:
            width = gen.overlap.width()
            if width > limits.max_width:
                over_width = True
                continue
            heapq.heappush(queue, (width, gen.overlap.degree(ring), seq, gen))
            seq += 1

    def add_pairs(k):
        """Queue the pairs of entry k with itself and the entries before it."""
        for i in range(k + 1) if orbit else _chain_update(table, k):
            push_pairs(i, k)

    for k in range(len(G)):
        add_pairs(k)

    while queue:
        gen = heapq.heappop(queue)[-1]
        if _chained(gen, choose):
            continue
        if limits.max_pairs is not None and stats["pairs_processed"] >= limits.max_pairs:
            return EgbResult(G, stats, BUDGET)
        stats["pairs_processed"] += 1
        h = reduce_terms(ring, _spoly(gen, G), choose)
        if h.is_zero:
            stats["zero_reductions"] += 1
            continue
        G.append(monic(h))
        table.append(reducer_row(len(G) - 1, G[-1], orbit))
        stats["insertions"] += 1
        if limits.max_basis is not None and len(G) > limits.max_basis:
            return EgbResult(G, stats, BUDGET)
        add_pairs(len(G) - 1)

    if over_width:
        return EgbResult(G, stats, BUDGET)
    return EgbResult(autoreduce(G, orbit), stats, COMPLETE)


def egb_buchberger(F, limits: EngineLimits = EngineLimits()) -> EgbResult:
    """Direct equivariant Buchberger loop (orbit S-pairs via interlacings)."""
    return _pair_loop(F, True, limits)


def classical_buchberger(F, limits: EngineLimits = EngineLimits()) -> EgbResult:
    """Reduced Groebner basis in finitely many variables (ordinary S-pairs)."""
    return _pair_loop(F, False, limits)


def orbit_truncate(F, n):
    """All shifted copies of the generators with width at most n, first
    occurrences in order."""
    out = {}  # a dict as an ordered set
    for f in F:
        w = f.width()
        if w > n:
            raise ValueError(f"truncation width {n} below generator width {w}")
        for rho in increasing_maps(w, n):
            out.setdefault(act(rho, f))
    return list(out)


def autoreduce(G, orbit=True):
    """Make every element monic and fully reduced against the others.

    ``orbit`` chooses the divisibility of the reduction: orbit by default,
    plain when false.  One cyclic scan, restarted after a drop, skips the
    elements flagged as reduced: whether a normal form changes an element
    depends only on the other leads, so a lead change clears the flags.
    """
    basis = [monic(g) for g in G if not g.is_zero]
    table = reducer_table(basis, orbit)
    reduced = [False] * len(basis)
    i = 0
    while not all(reduced):
        i %= len(basis)
        if reduced[i]:
            i += 1
            continue
        f = basis[i]
        others = first_reducer(table[:i] + table[i + 1 :], orbit)
        h = reduce_terms(f.ring, kernel_terms(f), others)
        if h.is_zero:
            del basis[i], reduced[i], table[i]
            i = 0
            continue
        h = monic(h)
        if lm(h) != lm(f):
            reduced = [False] * len(basis)
        if h != f:
            table[i] = reducer_row(i, h, orbit)
        basis[i], reduced[i] = h, True
        i += 1
    return sorted_basis(basis)


def is_egb(G) -> bool:
    """Equivariant Buchberger criterion: every orbit S-polynomial reduces to
    0, except those the strict orbit chain criterion (``_chained``) proves
    redundant; one reducer choice serves the reductions and the chain test.
    The S-polynomials are built over a monic copy of G, so the leads cancel
    whatever G's lead coefficients are.

    Why a chained pair needs no reduction.  A pair of orbit elements (a, b)
    of overlap t has an lcm-representation when S(a, b) is a sum of terms
    times orbit elements of G whose leads all lie below t; G is an EGB when
    every such pair has one.  By induction on the degree of t, over all
    pairs of orbit elements:

    - Every such pair is a shift π of the pair of shifted polynomials of
      some interlacing.  ``spair_generators`` yields it, or it is coprime,
      diagonal (two equal shifts), mirrored, or a repeat of a pair yielded
      from an earlier interlacing: the same pair, with the same
      S-polynomial.  π respects the order and moves variables injectively,
      so it commutes with lcm and carries lcm-representations to
      lcm-representations.
    - A pair reduced to 0 has one, read off the reduction.  So has a
      coprime pair (Buchberger's first criterion), a diagonal pair (its
      S-polynomial is 0) and a mirrored pair (the negation of one listed).
    - A chained pair (σf, τg) has a shifted lead u = ρ(lm h) whose pairs
      with σf and τg have overlaps t1 and t2 that properly divide t, so of
      smaller degree: by induction both have lcm-representations.  The
      chain identity S(σf, τg) = (t / t1) S(σf, ρh) + (t / t2) S(ρh, τg)
      then gives one below t.

    ``_pair_loop`` runs the same argument over its final basis: a COMPLETE
    run has queued every pair ``spair_generators`` yields of it, and each
    was reduced (to 0 or to an element it inserted) or chained through one
    of its leads.
    """
    basis = [monic(g) for g in G if not g.is_zero]
    choose = first_reducer(reducer_table(basis, True), True)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            for gen in spair_generators(basis[i], basis[j], i, j):
                if _chained(gen, choose):
                    continue
                if not reduce_terms(basis[i].ring, _spoly(gen, basis), choose).is_zero:
                    return False
    return True


def egb_incremental(F, limits: EngineLimits = EngineLimits()) -> EgbResult:
    """Truncate-and-certify loop: classical bases of growing truncations.

    A truncation level whose classical run exhausts the budget stops the
    run the same way as a width beyond ``max_width``: BUDGET, with the
    interreduced basis of the last finished level (or the generators).
    """
    G = _prepare(F)
    stats = {"levels": 0}
    if not G:
        return EgbResult([], stats, COMPLETE)
    n = max(g.width() for g in G)
    candidate = G
    while n <= limits.max_width:
        stats["levels"] += 1
        level = classical_buchberger(orbit_truncate(G, n), limits)
        if level.status == BUDGET:
            break
        candidate = autoreduce(level.basis)
        if is_egb(candidate):
            stats["final_width"] = n
            return EgbResult(candidate, stats, COMPLETE)
        n += 1
    return EgbResult(candidate, stats, BUDGET)
