"""Polynomial arithmetic, orbit reduction steps, and normal forms."""

import random
from fractions import Fraction

import pytest

from incgb.incmaps import IncMap
from incgb.poly import (
    Polynomial,
    act,
    add,
    constant,
    lc,
    lm,
    monic,
    mul,
    mul_term,
    normal_form,
    poly,
    scale,
    subtract,
    zero,
)
from incgb.rings import FamilySpec, Ring, compare, pi_divides

from conftest import MEMBER_TEXT, expr, random_incmap, random_xmono, xmono

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
            assert all(compare(X, a, b) == 1 for a, b in zip(ms, ms[1:]))


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
                assert compare(X, lm(out), lm(f)) == -1


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
            out, trace = normal_form(f, G, with_trace=True)
            assert normal_form(out, G) == out
            assert trace.replay(f, G) == out

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
