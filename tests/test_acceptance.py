"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and timed; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from incgb.buchberger import (
    BUDGET,
    COMPLETE,
    EngineLimits,
    classical_buchberger,
    egb_buchberger,
    egb_incremental,
    is_egb,
)
from incgb.incmaps import compose, map_to_tau
from incgb.poly import monic, normal_form, poly
from incgb.problems import format_polynomial, parse
from incgb.rings import Monomial, m_act, m_divides, m_mul, pi_divides
from incgb.signature import egb_signature

from conftest import (
    MEMBER_H,
    MEMBER_TEXT,
    MONOMIAL_MAP_TEXT,
    TORIC_TEXT,
    X_RING_TEXT,
    expr,
    ideal_equal,
    order_sign,
    random_incmap,
    random_xmono,
    recorded_normal_form,
    word_map,
    xvar,
)
from test_buchberger import MEMBER_REFERENCE, TORIC_REFERENCE
from test_monomials import brute_pi_witnesses

FIBONACCI_TEXT = """
ring {
  family z { arity = 1, constraint = none, weight = 1 }
  family x { arity = 1, constraint = none, weight = 1 }
  family y { arity = 1, constraint = none, weight = 1 }
  family t { arity = 1, constraint = none, weight = 1 }
  order { kind = lex, precedence = [z, x, y, t], weights = true }
}
generators {
  x[0] + y[0] - z[0];
  (x[0]*z[0] - y[0]^2)^2 - 1;
  t[0] - z[0]^3 - y[0]^3 + x[0]^3;
}
"""

def _within(start, seconds):
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_criterion_1_toric_kernel_buchberger():
    start = time.monotonic()
    problem = parse(TORIC_TEXT)
    result = egb_buchberger(problem.generators)
    assert result.status == COMPLETE
    reference = [expr(problem, s) for s in TORIC_REFERENCE]
    assert ideal_equal(result.basis, reference)
    _within(start, 60)


def test_criterion_2_membership_session():
    start = time.monotonic()
    problem = parse(MEMBER_TEXT)
    result = egb_buchberger(problem.generators)
    assert result.status == COMPLETE
    assert len(result.basis) == 5
    reference = [monic(expr(problem, s)) for s in MEMBER_REFERENCE]
    assert sorted(format_polynomial(monic(f)) for f in result.basis) == sorted(map(format_polynomial, reference))
    h = expr(problem, MEMBER_H)
    assert normal_form(h, result.basis).is_zero
    _within(start, 10)


def test_criterion_3_signature_run():
    start = time.monotonic()
    problem = parse(TORIC_TEXT)
    result = egb_signature(problem.generators, limits=EngineLimits(max_pairs=5000))
    assert result.status == COMPLETE
    basis = {format_polynomial(monic(f)) for f in result.basis}
    for wanted in [
        "x[1]*x[0] - y[1,0]",
        "y[3,2]*y[1,0] - y[3,0]*y[2,1]",
        "y[3,1]*y[2,0] - y[3,0]*y[2,1]",
    ]:
        assert format_polynomial(monic(expr(problem, wanted))) in basis
    # the reduced EGB, the same as the direct engine's
    assert result.basis == egb_buchberger(problem.generators).basis
    assert result.stats["zero_reductions"] > 0
    assert result.stats["covered_pairs"] > 0
    _within(start, 300)


def test_criterion_4_classical_fibonacci_elimination():
    start = time.monotonic()
    problem = parse(FIBONACCI_TEXT)
    sextic = monic(expr(problem, "25*y[0]^6 - 10*y[0]^3*t[0] - 9*y[0]^2 + t[0]^2"))

    # independent oracle: the lex elimination ideal down to {y, t}
    import sympy

    z, x, y, t = sympy.symbols("z x y t")
    oracle = sympy.groebner(
        [x + y - z, (x * z - y**2) ** 2 - 1, t - z**3 - y**3 + x**3],
        z, x, y, t,
        order="lex",
    )
    eliminated = [g for g in oracle.exprs if not g.free_symbols & {z, x}]
    assert len(eliminated) == 1
    assert sympy.expand(
        eliminated[0] - (25 * y**6 - 10 * y**3 * t - 9 * y**2 + t**2)
    ) == 0

    basis = classical_buchberger(problem.generators).basis
    ring = problem.ring
    supported = [
        f
        for f in basis
        if all(ring.family_of(v).name in ("y", "t") for _, m in f.terms for v, _ in m.factors)
    ]
    assert [monic(f) for f in supported] == [sextic]
    _within(start, 5)


CROSS_SUITE = [
    TORIC_TEXT,
    MEMBER_TEXT,
    X_RING_TEXT,
    X_RING_TEXT.replace("x[0];", "x[1]*x[0] - x[2];"),
    X_RING_TEXT.replace("x[0];", "x[0]^2 - x[1]*x[0];"),
    X_RING_TEXT.replace("x[0];", "x[1] - x[0];"),
]


def test_criterion_5_cross_algorithm_agreement():
    start = time.monotonic()
    limits = EngineLimits(max_pairs=20_000)
    for text in CROSS_SUITE:
        problem = parse(text)
        direct = egb_buchberger(problem.generators, limits)
        incremental = egb_incremental(problem.generators, limits)
        signature = egb_signature(problem.generators, limits=limits)
        assert direct.status == COMPLETE, text
        assert incremental.status == COMPLETE, text
        assert signature.status == COMPLETE, text
        assert ideal_equal(direct.basis, incremental.basis), text
        assert ideal_equal(direct.basis, signature.basis), text
    _within(start, 600)


class TestCriterion6PropertySuites:
    def test_order_axioms_bulk(self, x_ring):
        from incgb.rings import FamilySpec, Ring

        start = time.monotonic()
        grlex = Ring((FamilySpec("x"),), order_kind="grlex")
        rng = random.Random(2026)
        for ring in (x_ring, grlex):
            for _ in range(2000):
                a, b = random_xmono(rng), random_xmono(rng)
                rho = random_incmap(rng)
                c = order_sign(ring, a, b)
                # equivariance
                assert order_sign(ring, m_act(rho, a), m_act(rho, b)) == c
                # multiplicativity
                m = random_xmono(rng)
                assert order_sign(ring, m_mul(a, m), m_mul(b, m)) == c
                # divisibility refinement and totality
                if m_divides(a, b) and a != b:
                    assert c == -1
                assert order_sign(ring, a, b) == -order_sign(ring, b, a)
        _within(start, 120)

    def test_pi_divisibility_brute_oracle(self):
        start = time.monotonic()
        pool = [
            Monomial.from_dict({xvar(i): e for i, e in enumerate(exps) if e})
            for exps in itertools.product(range(5), repeat=4)
            if sum(exps) <= 4
        ]
        for a in pool:
            for b in pool:
                witnesses = brute_pi_witnesses(a, b)
                rho = pi_divides(a, b)
                if witnesses:
                    assert rho is not None
                    assert m_divides(m_act(rho, a), b)
                    # the reported witness has the lex-smallest image
                    images = sorted(tuple(w(i) for i in a.indices()) for w in witnesses)
                    assert tuple(rho(i) for i in a.indices()) == images[0]
                else:
                    assert rho is None
        _within(start, 120)

    def test_normal_form_idempotence_and_replay(self, member_problem):
        start = time.monotonic()
        basis = egb_buchberger(member_problem.generators).basis
        rng = random.Random(7)
        ring = member_problem.ring
        for _ in range(1000):
            f = poly(
                ring,
                [
                    (Fraction(rng.randint(-3, 3)), random_xmono(rng))
                    for _ in range(rng.randrange(1, 5))
                ],
            )
            nf, choice = recorded_normal_form(f, basis)
            assert normal_form(f, basis) == nf
            assert normal_form(nf, basis) == nf
            assert choice.replay(f, basis) == nf
        _within(start, 120)

    def test_inc_monoid_composition_and_standard_form(self):
        start = time.monotonic()
        rng = random.Random(11)
        for _ in range(3000):
            a, b = random_incmap(rng), random_incmap(rng)
            ab = compose(a, b)
            for i in range(12):
                assert ab(i) == a(b(i))
            word = map_to_tau(a)
            assert list(word) == sorted(word)
            assert word_map(word) == a
        _within(start, 120)


def test_criterion_7_monomial_map_stabilization():
    start = time.monotonic()
    problem = parse(MONOMIAL_MAP_TEXT)
    result = egb_incremental(problem.generators, EngineLimits(max_width=4))
    # not a hard completion gate: budget exhaustion must be graceful
    assert result.status in (COMPLETE, BUDGET)
    assert result.basis
    assert result.stats["levels"] >= 2
    if result.status == COMPLETE:
        assert is_egb(result.basis)
    _within(start, 120)
