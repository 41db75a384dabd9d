"""Polynomial arithmetic, orbit reduction steps, and normal forms."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgb import poly as poly_module
from incgb.buchberger import _spoly
from incgb.incmaps import IDENTITY, IncMap
from incgb.poly import (
    Polynomial,
    act,
    add,
    candidates,
    constant,
    first_reducer,
    lc,
    lm,
    monic,
    mul,
    mul_term,
    normal_form,
    poly,
    reduce_terms,
    reducer_row,
    reducer_table,
    scale,
    sorted_basis,
    subtract,
    support_mask,
    zero,
)
from incgb.rings import (
    FamilySpec,
    Monomial,
    Ring,
    m_act,
    m_divides,
    m_mul,
    m_quotient,
    pi_divides,
    prepare_lead,
)
from incgb.spairs import _spair_gen, spair_generators

from conftest import (
    RecordedChoice,
    expr,
    order_sign,
    random_incmap,
    random_xmono,
    recorded_normal_form,
    xmono,
)
from test_monomials import brute_pi_witnesses

X = Ring((FamilySpec("x"),))


def p(*terms):
    return poly(X, [(Fraction(c), m) for c, m in terms])


def random_poly(rng, max_terms=4):
    return poly(
        X,
        [
            (Fraction(rng.randint(-3, 3)), random_xmono(rng))
            for _ in range(rng.randrange(1, max_terms + 1))
        ],
    )


class TestArithmetic:
    def test_add_zero(self):
        f = p((2, xmono(0, 1)), (-1, xmono(2)))
        assert add(f, zero(X)) == f

    def test_subtract_self(self):
        f = p((2, xmono(0, 1)), (-1, xmono(2)))
        assert subtract(f, f).is_zero

    def test_product_ordering(self):
        f = add(p((1, xmono(0))), constant(X, 1))  # x0 + 1
        g = p((1, xmono(1)))
        assert mul(f, g) == p((1, xmono(0, 1)), (1, xmono(1)))

    def test_mixed_ring_error(self):
        other = Ring((FamilySpec("x"),), order_kind="grlex")
        with pytest.raises(ValueError):
            add(p((1, xmono(0))), poly(other, [(Fraction(1), xmono(0))]))

    def test_exact_rationals(self):
        f = scale(p((1, xmono(0))), Fraction(1, 3))
        assert lc(f) == Fraction(1, 3)
        assert lc(scale(f, 3)) == 1

    def test_terms_strictly_descending(self):
        rng = random.Random(1)
        for _ in range(200):
            f = random_poly(rng)
            ms = [m for _, m in f.terms]
            assert all(order_sign(X, a, b) == 1 for a, b in zip(ms, ms[1:]))


class TestOrderIsNotTupleOrder:
    """A monomial compares as its factor tuple, the lex key only; under
    grlex x[1] lies below x[0]^2 although its tuple is the greater.  Every
    term order must come from ``order_key``."""

    GRLEX = Ring((FamilySpec("x"),), order_kind="grlex")

    def gp(self, *terms):
        return poly(self.GRLEX, [(Fraction(c), m) for c, m in terms])

    def test_witness_pair_disagrees(self):
        low, high = xmono(1), xmono(0, 0)
        assert low.factors > high.factors and order_sign(self.GRLEX, low, high) == -1

    def test_poly_sorts_by_order_key(self):
        f = self.gp((1, xmono(1)), (1, xmono(0, 0)))
        assert [m for _, m in f.terms] == [xmono(0, 0), xmono(1)]

    def test_normal_form_keeps_terms_by_order_key(self):
        # x[3]*x[0] reduces to x[1], a term the kernel queues again; nothing
        # reduces x[0]^2 or x[1]
        f = self.gp((1, xmono(1)), (1, xmono(0, 0)), (1, xmono(3, 0)))
        h = normal_form(f, [self.gp((1, xmono(3, 0)), (-1, xmono(1)))])
        assert h == self.gp((1, xmono(0, 0)), (2, xmono(1)))
        assert [m for _, m in h.terms] == [xmono(0, 0), xmono(1)]

    def test_sorted_basis_compares_terms_by_order_key(self):
        # equal width, degree and lead: the second terms decide
        f = self.gp((1, xmono(2, 2)), (1, xmono(1)))
        g = self.gp((1, xmono(2, 2)), (1, xmono(0, 0)))
        assert sorted_basis([g, f]) == [f, g]


class TestLeadData:
    def test_member_generator_lead(self):
        problem_ring_poly = p(
            (1, xmono(0, 1)), (-1, xmono(1, 2, 2)), (1, xmono(1, 1))
        )  # x0x1 - x1x2^2 + x1^2
        assert lm(problem_ring_poly) == xmono(1, 2, 2)

    def test_single_term(self):
        f = p((3, xmono(4)))
        assert lm(f) == xmono(4) and lc(f) == 3

    def test_zero_errors(self):
        with pytest.raises(ValueError):
            lm(zero(X))
        with pytest.raises(ValueError):
            lc(zero(X))

    def test_lm_equivariance(self):
        rng = random.Random(2)
        for _ in range(300):
            f = random_poly(rng)
            if f.is_zero:
                continue
            rho = random_incmap(rng)
            from incgb.rings import m_act

            assert lm(act(rho, f)) == m_act(rho, lm(f))


class TestPiReduceStep:
    """Single orbit reductions, by one reducer through ``normal_form``."""

    def test_orbit_member_cancels(self):
        f = p((1, xmono(2, 3)))
        g = p((1, xmono(0, 1)))
        assert normal_form(f, [g]).is_zero

    def test_no_witness(self):
        f = p((1, xmono(0, 0)))
        assert normal_form(f, [p((1, xmono(0, 1)))]) == f

    def test_one_step_by_hand(self):
        # reduce x2*x3 by x0*x1 - x0: the witness 0->2,1->3 shifts the tail
        g = p((1, xmono(0, 1)), (-1, xmono(0)))
        assert normal_form(p((1, xmono(2, 3))), [g]) == p((1, xmono(2)))

    def test_lead_strictly_decreases(self):
        rng = random.Random(3)
        for _ in range(300):
            f, g = random_poly(rng), random_poly(rng)
            if f.is_zero or g.is_zero or pi_divides(lm(g), lm(f)) is None:
                continue
            out = normal_form(f, [g])
            if not out.is_zero:
                assert order_sign(X, lm(out), lm(f)) == -1


class TestNormalForm:
    def test_nf_of_zero(self):
        assert normal_form(zero(X), [p((1, xmono(0)))]).is_zero

    def test_nf_of_reducer(self):
        g = p((1, xmono(0, 1)), (1, xmono(1)))
        assert normal_form(g, [g]).is_zero

    def test_full_tail_reduction(self):
        # both the lead and the tail of f are orbit multiples of x0
        f = p((1, xmono(1, 2)), (1, xmono(0)))
        assert normal_form(f, [p((1, xmono(0)))]).is_zero

    def test_member_h_reduces_to_zero(self, member_problem):
        from conftest import MEMBER_H
        from incgb.buchberger import egb_buchberger

        basis = egb_buchberger(member_problem.generators).basis
        h = expr(member_problem, MEMBER_H)
        assert normal_form(h, basis).is_zero

    def test_idempotence_and_trace_replay(self):
        rng = random.Random(4)
        for _ in range(1000):
            f = random_poly(rng)
            G = [monic(random_poly(rng)) for _ in range(rng.randrange(1, 3))]
            G = [g for g in G if not g.is_zero]
            if not G:
                continue
            out, choice = recorded_normal_form(f, G)
            assert normal_form(f, G) == out
            assert normal_form(out, G) == out
            assert choice.replay(f, G) == out

    def test_membership_equivariance(self, member_problem):
        # against an equivariant basis, reduction to zero is shift-invariant
        from incgb.buchberger import egb_buchberger

        basis = egb_buchberger(member_problem.generators).basis
        rng = random.Random(5)
        for _ in range(100):
            g = basis[rng.randrange(len(basis))]
            f = mul_term(g, Fraction(1), random_xmono(rng))
            assert normal_form(f, basis).is_zero
            rho = random_incmap(rng)
            assert normal_form(act(rho, f), basis).is_zero


def oracle_divides(a, b, orbit):
    """The oracles' divisibility test: ``pi_divides``, or with ``orbit``
    false plain division, the identity as witness."""
    if orbit:
        return pi_divides(a, b)
    return IDENTITY if m_divides(a, b) else None


def reference_normal_form(f, reducers, orbit):
    """The subtract-based kernel: every step rebuilds the work polynomial.
    Returns the normal form and the steps (gi, witness, cofactor)."""
    steps = []
    done = []
    work = f
    while not work.is_zero:
        c, m = work.terms[0]
        for gi, g in enumerate(reducers):
            if g.is_zero:
                continue
            rho = oracle_divides(lm(g), m, orbit)
            if rho is None:
                continue
            g_img = act(rho, g)
            cof = m_quotient(m, lm(g_img))
            work = subtract(work, mul_term(g_img, c / lc(g_img), cof))
            steps.append((gi, rho, cof))
            break
        else:
            done.append((c, m))
            work = Polynomial(f.ring, work.terms[1:])
    return Polynomial(f.ring, tuple(done)), steps


def xy_ring(y_constraint, order_kind):
    """x alone (``y_constraint`` None), or x plus an arity-2 family y."""
    families = (FamilySpec("x"),)
    if y_constraint is not None:
        families += (FamilySpec("y", arity=2, constraint=y_constraint, weight=2),)
    return Ring(families, order_kind=order_kind)


def random_ring_monomial(rng, ring):
    def variable():
        if len(ring.families) == 1 or rng.random() < 0.6:
            return ring.variable("x", (rng.randrange(5),))
        i, j = rng.sample(range(5), 2)
        constraint = ring.families[1].constraint
        if (constraint == "strictly_decreasing" and i < j) or (
            constraint == "strictly_increasing" and i > j
        ):
            i, j = j, i
        return ring.variable("y", (i, j))

    return Monomial.from_dict({variable(): rng.randrange(1, 3) for _ in range(rng.randrange(4))})


def random_ring_poly(rng, ring, max_terms):
    return poly(
        ring,
        [
            (Fraction(rng.choice([-3, -2, -1, 1, 2, 5])), random_ring_monomial(rng, ring))
            for _ in range(rng.randrange(1, max_terms + 1))
        ],
    )


class TestKernelOracle:
    """normal_form's term accumulator against the subtract-based kernel."""

    @pytest.mark.parametrize("orbit", [True, False], ids=["pi", "plain"])
    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("y_constraint", [None, "strictly_decreasing", "all_distinct"])
    def test_matches_reference(self, y_constraint, order_kind, orbit):
        ring = xy_ring(y_constraint, order_kind)
        rng = random.Random(31)
        steps = 0
        for _ in range(150):
            f = random_ring_poly(rng, ring, 6)
            G = [random_ring_poly(rng, ring, 3) for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.2:
                G.insert(rng.randrange(len(G) + 1), zero(ring))
            expected, expected_steps = reference_normal_form(f, G, orbit)
            out, choice = recorded_normal_form(f, G, orbit)
            assert out == expected
            assert choice.steps == expected_steps
            assert choice.replay(f, G) == out
            if orbit:
                assert normal_form(f, G) == out
            steps += len(choice.steps)
        assert steps > 50

    def test_no_polynomial_rebuilds(self, monkeypatch):
        # the work polynomial is never materialized between steps
        gen = poly(X, [(Fraction(1), xmono(5, 0)), (Fraction(-1), xmono(1))])
        basis = [
            p((1, xmono(1, 0)), (-1, xmono(1))),
            p((1, xmono(1, 1)), (-1, xmono(1))),
            p((1, xmono(2)), (-1, xmono(1))),
        ]
        s = oracle_spoly(list(spair_generators(gen, gen, 0, 0))[-1], [gen])
        _, choice = recorded_normal_form(s, basis)
        assert len(choice.steps) > 3
        calls = []
        real = poly_module.poly

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(poly_module, "poly", counting)
        normal_form(s, basis)
        assert calls == []


def oracle_spoly(gen, G):
    """The S-polynomial through subtract: both images built, then merged."""
    h1 = mul_term(act(gen.map1, G[gen.fi]), Fraction(1), gen.cof1)
    h2 = mul_term(act(gen.map2, G[gen.gi]), Fraction(1), gen.cof2)
    return subtract(h1, h2)


class TestSPairOracle:
    """The coefficient dict of ``_spoly``, fed to the kernel, against the
    subtract-built S-polynomial reduced by ``normal_form``."""

    @pytest.mark.parametrize("orbit", [True, False], ids=["pi", "plain"])
    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("y_constraint", [None, "strictly_decreasing", "all_distinct"])
    def test_matches_subtract_spoly(self, y_constraint, order_kind, orbit):
        ring = xy_ring(y_constraint, order_kind)
        rng = random.Random(41)
        steps = nonzero = classical = 0
        for _ in range(25):
            G = [monic(random_ring_poly(rng, ring, 3)) for _ in range(rng.randrange(2, 6))]
            G = [g for g in G if not g.is_zero]
            choose = first_reducer(reducer_table(G, orbit), orbit)
            k = len(G) - 1
            gens = [_spair_gen(i, k, IDENTITY, IDENTITY, lm(G[i]), lm(G[k])) for i in range(k)]
            classical += len(gens)
            i, j = sorted(rng.randrange(len(G)) for _ in range(2))
            orbit_gens = list(spair_generators(G[i], G[j], i, j))
            for gen in gens + rng.sample(orbit_gens, min(4, len(orbit_gens))):
                s = oracle_spoly(gen, G)
                expected, expected_choice = recorded_normal_form(s, G, orbit)
                choice = RecordedChoice(choose)
                out = reduce_terms(ring, _spoly(gen, G), choice)
                assert out == expected
                assert choice.steps == expected_choice.steps
                assert choice.replay(s, G) == out
                steps += len(choice.steps)
                nonzero += not out.is_zero
        assert steps > 20 and nonzero > 0 and classical > 5


class TestKernelContract:
    """``reduce_terms`` under choices other than ``first_reducer``."""

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    def test_keeping_every_term_sorts(self, order_kind):
        # no step: the input comes back descending, zero entries dropped
        ring = xy_ring("strictly_decreasing", order_kind)
        rng = random.Random(47)
        for _ in range(100):
            acc = {
                random_ring_monomial(rng, ring): Fraction(rng.randrange(-2, 3)) for _ in range(8)
            }
            seen = []
            out = reduce_terms(ring, dict(acc), lambda m: seen.append(m))  # always None
            assert out == poly(ring, [(c, m) for m, c in acc.items()])
            assert seen == [m for _, m in out.terms]

    @pytest.mark.parametrize("orbit", [True, False], ids=["pi", "plain"])
    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    def test_stopping_keeps_the_accumulated_tail(self, order_kind, orbit):
        # top reduction: after the first kept term the rest stays as it is
        ring = xy_ring("all_distinct", order_kind)
        rng = random.Random(53)
        steps = unreduced = 0
        for _ in range(150):
            G = [monic(random_ring_poly(rng, ring, 3)) for _ in range(rng.randrange(1, 4))]
            f = random_ring_poly(rng, ring, 4)
            for g in G:  # reducible terms below the first kept one
                f = add(f, mul_term(g, rng.choice([-1, 2]), random_ring_monomial(rng, ring)))
            choose = first_reducer(reducer_table(G, orbit), orbit)
            stopped = False

            def top(m):
                nonlocal stopped
                step = None if stopped else choose(m)
                stopped = step is None
                return step

            choice = RecordedChoice(top)
            out = reduce_terms(ring, {m: c for c, m in f.terms}, choice)
            work = f
            for step in choice.steps:
                gi, g, rho, cof, _ = choose(lm(work))
                assert (gi, rho, cof) == step
                work = subtract(work, mul_term(act(rho, g), lc(work), cof))
            assert out == work
            assert work.is_zero or choose(lm(work)) is None
            assert choice.replay(f, G) == out
            steps += len(choice.steps)
            unreduced += any(choose(m) is not None for _, m in out.terms[1:])
        assert steps > 200 and unreduced > 20


def reference_choice(table, m, orbit):
    """The choice without a memo or masks: a fresh scan of every row, the
    reducer's tail moved afresh, as the step the kernel has applied."""
    for gi, g, lead, _ in table:
        rho = oracle_divides(lead, m, orbit)
        if rho is not None:
            cof = m_quotient(m, m_act(rho, lead))
            tail = tuple((a, m_mul(m_act(rho, n), cof)) for a, n in g.terms[1:])
            return gi, g, rho, cof, tail
    return None


def _memo_hits(ring, orbit):
    """One long-lived choice over a growing table, queried between appends
    and checked against a fresh scan per query.  Returns how often a term
    that missed later found a row appended since, and how often a term's
    remembered step was returned while a row appended since divides too."""
    rng = random.Random(59)
    late_hits = kept_hits = 0
    for _ in range(30):
        table = []
        choose = first_reducer(table, orbit)
        terms = [random_ring_monomial(rng, ring) for _ in range(10)]
        terms = [m_mul(a, b) for a in terms[:5] for b in terms[5:]]
        missed, found = set(), {}  # found: term -> table length at its first step
        for _ in range(6):
            g = random_ring_poly(rng, ring, 2)
            if not g.is_zero:
                table.append(reducer_row(len(table), g, orbit))
            for m in rng.sample(terms, 15):
                step = choose(m)
                if step is not None:
                    # the kernel moves a step's tail when it first applies
                    # the step, and the memo keeps that tail
                    tail = step[4]
                    assert (tail is None) == (m not in found)
                    reduce_terms(ring, {m: 1}, lambda t: step if t == m else None)
                    assert tail is None or step[4] is tail
                    step = tuple(step)
                assert step == reference_choice(table, m, orbit)
                if step is None:
                    missed.add(m)
                elif m not in found:
                    found[m] = len(table)
                    late_hits += m in missed  # a miss, then a row appended since
                elif reference_choice(table[found[m] :], m, orbit) is not None:
                    kept_hits += 1  # a row appended since divides too
    return late_hits, kept_hits


class TestOrbitMemo:
    """The term memo of ``first_reducer``, under orbit and under plain
    divisibility, against a fresh scan per query."""

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("y_constraint", [None, "strictly_decreasing", "all_distinct"])
    def test_matches_fresh_scan(self, y_constraint, order_kind):
        late_hits, kept_hits = _memo_hits(xy_ring(y_constraint, order_kind), True)
        assert late_hits > 100 and kept_hits > 300

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("y_constraint", [None, "strictly_decreasing", "all_distinct"])
    def test_plain_matches_fresh_scan(self, y_constraint, order_kind):
        late_hits, kept_hits = _memo_hits(xy_ring(y_constraint, order_kind), False)
        assert late_hits > 100 and kept_hits > 200

    def test_plain_repeat_asks_no_divisibility(self, monkeypatch):
        # a repeated term is answered from the memo: a step found, or a
        # miss over the same rows, costs no second m_divides call
        calls = []

        def counting(a, b):
            calls.append(b)
            return m_divides(a, b)

        monkeypatch.setattr(poly_module, "m_divides", counting)
        ring = xy_ring("all_distinct", "lex")
        rng = random.Random(7)
        G = [random_ring_poly(rng, ring, 2) for _ in range(12)]
        table = reducer_table([g for g in G if not g.is_zero and not lm(g).is_unit], False)
        assert all(row[3] for row in table)  # plain rows: support masks
        choose = first_reducer(table, False)
        terms = [random_ring_monomial(rng, ring) for _ in range(40)]
        first = [choose(m) for m in terms]
        asked = len(calls)
        assert asked > 0 and any(first) and not all(first)
        assert [choose(m) for m in terms] == first
        assert len(calls) == asked


class TestCandidates:
    """``candidates``, every witness of every row for a term, memoized over
    a growing table, against a fresh scan per query; its first item is
    ``first_reducer``'s step."""

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("y_constraint", [None, "strictly_decreasing", "all_distinct"])
    def test_matches_fresh_scan(self, y_constraint, order_kind):
        ring = xy_ring(y_constraint, order_kind)
        rng = random.Random(71)
        firsts = late_rows = several = 0
        for _ in range(30):
            table = []
            scan, choose = candidates(table), first_reducer(table, True)
            terms = [random_ring_monomial(rng, ring) for _ in range(10)]
            terms = [m_mul(a, b) for a in terms[:5] for b in terms[5:]]
            for _ in range(6):
                g = random_ring_poly(rng, ring, 2)
                if not g.is_zero:
                    table.append(reducer_row(len(table), g, True))
                for m in rng.sample(terms, 15):
                    expected = [
                        (gi, g, rho, m_quotient(m, m_act(rho, lead)), None)
                        for gi, g, lead, _ in table
                        for rho in brute_pi_witnesses(lead, m)
                    ]
                    head = expected[0] if expected else None
                    step = choose(m)
                    assert (step if step is None else tuple(step[:4])) == (head and head[:4])
                    if rng.random() < 0.5:  # a reader that stops at the first
                        first = next(scan(m), None)
                        assert (first if first is None else tuple(first)) == head
                        firsts += first is not None
                    else:
                        steps = [tuple(step) for step in scan(m)]
                        assert steps == expected
                        late_rows += bool(steps) and steps[-1][0] == len(table) - 1
                        several += len(steps) > len({step[0] for step in steps})
        assert firsts > 100 and late_rows > 50 and several > 50


def replay_reduction(f, table, orbit):
    """Full reduction by subtract and mul_term, one fresh scan per step."""
    work, kept = f, []
    while not work.is_zero:
        c, m = work.terms[0]
        step = reference_choice(table, m, orbit)
        if step is None:
            kept.append((c, m))
            work = Polynomial(f.ring, work.terms[1:])
        else:
            gi, g, rho, cof, _ = step
            work = subtract(work, mul_term(act(rho, g), c / lc(g), cof))
    return Polynomial(f.ring, tuple(kept))


class TestMixedCoefficients:
    """The kernel keeps integral coefficients as ints and the rest as
    Fractions; what it returns holds Fractions only, checked by type (an int
    equals its Fraction, so ``==`` cannot tell them apart)."""

    @pytest.mark.parametrize("orbit", [True, False], ids=["pi", "plain"])
    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    def test_matches_subtract_replay(self, order_kind, orbit):
        # non-monic reducers (lead 2/3 or -2), fractional tails, and inputs
        # given partly as ints, partly as Fractions
        ring = xy_ring("strictly_decreasing", order_kind)
        rng = random.Random(61)
        leads = (Fraction(2, 3), Fraction(-2), Fraction(1))
        non_monic = fractional = integral_kept = 0
        for _ in range(120):
            G = [random_ring_poly(rng, ring, 3) for _ in range(rng.randrange(1, 4))]
            G = [scale(monic(g), rng.choice(leads)) for g in G if not g.is_zero]
            f = scale(random_ring_poly(rng, ring, 4), rng.choice([1, 1, Fraction(1, 3)]))
            for g in G:
                cof = random_ring_monomial(rng, ring)
                f = add(f, mul_term(g, rng.choice([-1, 3, Fraction(1, 2)]), cof))
            acc = {
                m: c.numerator if c.denominator == 1 and rng.random() < 0.7 else c
                for c, m in f.terms
            }
            table = reducer_table(G, orbit)
            choice = RecordedChoice(first_reducer(table, orbit))
            out = reduce_terms(ring, acc, choice)
            assert out == replay_reduction(f, table, orbit)
            assert choice.replay(f, G) == out
            assert all(type(c) is Fraction for c, _ in out.terms)
            non_monic += sum(lc(G[gi]) != 1 for gi, _, _ in choice.steps)
            fractional += sum(c.denominator != 1 for c, _ in out.terms)
            integral_kept += sum(c.denominator == 1 for c, _ in out.terms)
        assert non_monic > 150 and fractional > 50 and integral_kept > 100


class TestFractionFreeNormalForm:
    """``normal_form`` reduces d * f with int coefficients, d the least
    common denominator of f's, and divides the kept terms by d: the normal
    form of the kernel run on f's Fractions, and of their replay."""

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    def test_matches_fraction_replay(self, order_kind, monkeypatch):
        entries = []  # the coefficients normal_form hands the kernel
        real = poly_module.reduce_terms

        def recording(ring, acc, choose):
            entries.append(list(acc.values()))
            return real(ring, acc, choose)

        monkeypatch.setattr(poly_module, "reduce_terms", recording)
        ring = xy_ring("strictly_decreasing", order_kind)
        rng = random.Random(67)
        leads = (Fraction(2, 3), Fraction(-2), Fraction(1, 5))
        denominators = Counter()
        fractional = 0
        for _ in range(160):
            integral = [random_ring_poly(rng, ring, 3) for _ in range(rng.randrange(1, 4))]
            integral = [g for g in integral if not g.is_zero]
            # members and non-members with integer coefficients, then divided
            f = random_ring_poly(rng, ring, 3)
            for g in integral:
                f = add(f, mul_term(g, rng.choice([-1, 2, 3]), random_ring_monomial(rng, ring)))
            f = scale(f, Fraction(1, rng.choice([1, 2, 3, 5, 6])))
            G = [scale(monic(g), rng.choice(leads)) for g in integral]
            out = normal_form(f, G)
            kernel, choice = recorded_normal_form(f, G)
            assert out == kernel == choice.replay(f, G)
            assert all(type(c) is Fraction for c, _ in out.terms)
            assert all(type(c) is int for c in entries[-1])
            denominators[lcm(*(c.denominator for c, _ in f.terms))] += 1
            fractional += any(c.denominator != 1 for c, _ in out.terms)
        assert all(denominators[d] > 10 for d in (1, 2, 3, 5, 6)) and fractional > 50
        assert normal_form(zero(ring), G).is_zero and entries[-1] == []


def _mask_monomials():
    """x-only and x + y monomials, indices up to 70, so that masks collide."""
    ring = xy_ring("strictly_decreasing", "lex")
    x = st.builds(lambda i: ring.variable("x", (i,)), st.integers(0, 70))
    y = st.builds(
        lambda i, d: ring.variable("y", (i + d, i)), st.integers(0, 70), st.integers(1, 5)
    )
    exps = st.dictionaries(st.one_of(x, y), st.integers(1, 3), max_size=5)
    return exps.map(Monomial.from_dict)


class TestSupportMask:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mask_monomials(), _mask_monomials(), st.data())
    def test_divisor_mask_lies_inside(self, a, b, data):
        # the kernel skips a row whose mask leaves the term's: never a divisor
        divisor = Monomial.from_dict(
            {v: data.draw(st.integers(0, e)) for v, e in b.factors}
        )
        for lead in (a, divisor):
            if m_divides(lead, b):
                assert support_mask(lead) & ~support_mask(b) == 0
        assert m_divides(divisor, b)

    def test_masks_only_under_plain_divisibility(self):
        rng = random.Random(43)
        ring = xy_ring("all_distinct", "lex")
        G = [random_ring_poly(rng, ring, 3) for _ in range(30)] + [zero(ring)]
        assert all(row[3] == prepare_lead(row[2]) for row in reducer_table(G, True))
        rows = reducer_table(G, False)
        assert [row[1] for row in rows] == [g for g in G if not g.is_zero]
        assert all(row[3] == support_mask(lm(row[1])) for row in rows)
        assert any(row[3] != 0 for row in rows)


def reference_act(rho, f):
    """act built through poly(): every image term re-sorted and re-wrapped."""
    if rho.is_identity:
        return f
    return poly(f.ring, [(c, m_act(rho, m)) for c, m in f.terms])


def reference_mul_term(f, c, m):
    """mul_term built through poly(), with its unit-multiplier branch."""
    c = Fraction(c)
    if c == 0 or f.is_zero:
        return zero(f.ring)
    if m.is_unit:
        return scale(f, c)
    return poly(f.ring, [(c * a, m_mul(n, m)) for a, n in f.terms])


class TestOrderPreservingProducts:
    """act and mul_term keep term order instead of re-sorting through poly()."""

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize(
        "y_constraint",
        [None, "none", "strictly_decreasing", "strictly_increasing", "all_distinct"],
    )
    def test_matches_reference(self, y_constraint, order_kind):
        ring = xy_ring(y_constraint, order_kind)
        rng = random.Random(37)
        for _ in range(300):
            f = random_ring_poly(rng, ring, 6)
            rho = random_incmap(rng)
            m = random_ring_monomial(rng, ring)  # the unit monomial now and then
            c = Fraction(rng.choice([-2, 1, 3])) / rng.choice([1, 2])
            assert act(rho, f) == reference_act(rho, f)
            assert mul_term(f, c, m) == reference_mul_term(f, c, m)
            assert mul_term(f, 0, m) == reference_mul_term(f, 0, m)
            assert mul_term(f, c, Monomial()) == reference_mul_term(f, c, Monomial())

    def test_no_polynomial_rebuilds(self, monkeypatch):
        f = p((1, xmono(2, 0)), (-3, xmono(1, 1)), (2, xmono(0)))
        calls = []
        real = poly_module.poly

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(poly_module, "poly", counting)
        act(IncMap((1, 3, 4)), f)
        mul_term(f, Fraction(-2, 3), xmono(1, 4))
        assert calls == []
