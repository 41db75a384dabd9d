"""Twisted monomials, signatures, and the signature-based engines."""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from incgb import poly as poly_module
from incgb import rings, signature
from incgb.buchberger import BUDGET, COMPLETE, EngineLimits, egb_buchberger, is_egb
from incgb.incmaps import IDENTITY, compose, extend_partial, map_to_tau
from incgb.poly import act, lc, lm, monic, mul_term, normal_form, poly, subtract
from incgb.problems import format_polynomial, parse
from incgb.rings import (
    FamilySpec,
    Monomial,
    Ring,
    m_act,
    m_divides,
    m_mul,
    m_quotient,
    order_key,
    pi_divides,
    prepare_lead,
    prepared_witnesses,
    term_profile,
)
from incgb.signature import (
    UNIT_TM,
    JPair,
    LabeledPoly,
    SigEngine,
    Signature,
    TwistedMonomial,
    add_cover,
    egb_signature,
    is_covered,
    j_pairs,
    regular_top_reduce,
    tm_apply,
    twisted_mul,
)

from conftest import (
    UNWEIGHTED_TEXT,
    assert_current_preparations,
    coprime,
    expr,
    ideal_equal,
    order_sign,
    random_incmap,
    random_xmono,
    recorded_searches,
    word_map,
    xmono,
)
from test_cross_engine import LIMITS, inputs
from test_spairs import reference_spair_generators

X = Ring((FamilySpec("x"),))
GOLDEN = Path(__file__).parent / "golden"


def p(*terms):
    return poly(X, [(Fraction(c), m) for c, m in terms])


def tm(mono, *word):
    return TwistedMonomial(mono, word_map(word))


class TestTwistedMul:
    def test_unit(self):
        b = tm(xmono(0), 1)
        assert twisted_mul(UNIT_TM, b) == b
        assert twisted_mul(b, UNIT_TM) == b

    def test_shift_moves_factor(self):
        # (1, t0) * (x0, 1) = (x1, t0)
        assert twisted_mul(tm(Monomial(), 0), tm(xmono(0))) == tm(xmono(1), 0)

    def test_plain_product(self):
        assert twisted_mul(tm(xmono(0)), tm(xmono(0))) == tm(xmono(0, 0))

    def test_word_standardized(self):
        out = twisted_mul(tm(Monomial(), 3), tm(Monomial(), 1))
        assert map_to_tau(out.shift) == (1, 2)

    def test_associative(self):
        rng = random.Random(17)
        for _ in range(300):
            ts = [
                tm(random_xmono(rng, 3, 2), *sorted(rng.sample(range(4), rng.randrange(3))))
                for _ in range(3)
            ]
            a, b, c = ts
            assert twisted_mul(twisted_mul(a, b), c) == twisted_mul(a, twisted_mul(b, c))

    def test_apply_is_an_action(self):
        rng = random.Random(18)
        for _ in range(300):
            a = tm(random_xmono(rng, 3, 2), *sorted(rng.sample(range(4), rng.randrange(3))))
            b = tm(random_xmono(rng, 3, 2), *sorted(rng.sample(range(4), rng.randrange(3))))
            m = random_xmono(rng, 3, 2)
            assert tm_apply(twisted_mul(a, b), m) == tm_apply(a, tm_apply(b, m))


def left_quotients(target, base):
    """The left quotient the cover test finds, t with t * base == target:
    its shift from ``_shift_quotient``, its monomial by division."""
    st = signature._shift_quotient(target.shift, base.shift)
    if st is None or not m_divides(m_act(st, base.mono), target.mono):
        return []
    return [TwistedMonomial(m_quotient(target.mono, m_act(st, base.mono)), st)]


class TestLeftQuotients:
    def test_exact_round_trip(self):
        rng = random.Random(19)
        found = 0
        for _ in range(400):
            t = tm(random_xmono(rng, 3, 2), *sorted(rng.sample(range(4), rng.randrange(3))))
            base = tm(random_xmono(rng, 3, 2), *sorted(rng.sample(range(4), rng.randrange(3))))
            target = twisted_mul(t, base)
            out = left_quotients(target, base)
            assert out == _reference_left_quotients(target, base)
            assert all(twisted_mul(q, base) == target for q in out)
            found += bool(out)
        assert found > 100  # the search does recover plenty of quotients

    def test_miss(self):
        assert left_quotients(tm(xmono(0)), tm(xmono(0, 0))) == []

    def test_unit_base(self):
        target = tm(xmono(2), 1)
        assert left_quotients(target, UNIT_TM) == [target]


def _reference_left_quotients(target, base):
    """The left quotient as it was found before its shift part was memoized,
    sampling every point up to two past the last breakpoint."""
    sb = base.shift
    st_target = target.shift
    span = max((*sb.starts, *st_target.starts), default=-1) + 3
    st = extend_partial(
        tuple(sb(i) for i in range(span)),
        tuple(st_target(i) for i in range(span)),
    )
    if st is None or compose(st, sb) != st_target:
        return []
    moved = m_act(st, base.mono)
    if not m_divides(moved, target.mono):
        return []
    t = TwistedMonomial(m_quotient(target.mono, moved), st)
    if twisted_mul(t, base) != target:
        return []
    return [t]


class TestShiftQuotientMemo:
    def test_agrees_with_unmemoized(self):
        rng = random.Random(29)
        # few words, many monomials: every word pair recurs with other monomials
        words = [(), (0,), (1,), (0, 0), (0, 2), (1, 1), (2,), (0, 1, 3), (2, 0), (3, 1, 1)]
        signature._shift_quotient.cache_clear()
        engine = SigEngine(X)
        engine.new_index(xmono(0))
        found = 0
        for _ in range(1500):
            base = tm(random_xmono(rng, 4, 3), *rng.choice(words))
            if rng.random() < 0.5:
                target = twisted_mul(tm(random_xmono(rng, 4, 2), *rng.choice(words)), base)
            else:
                target = tm(random_xmono(rng, 6, 4), *rng.choice(words))
            expected = _reference_left_quotients(target, base)
            assert left_quotients(target, base) == expected
            # a syzygy at base covers exactly the signatures it left-divides
            C = {}
            add_cover(C, Signature(base, 0))
            j = unit_multiple(LabeledPoly(Signature(target, 0), p((1, xmono(0)))))
            assert is_covered(j, C, engine) == bool(expected)
            found += bool(expected)
        assert found > 300
        assert signature._shift_quotient.cache_info().hits > 0

    def test_emptied_with_the_module_caches(self):
        left_quotients(tm(xmono(2), 1), tm(xmono(0), 0))
        assert signature._shift_quotient.cache_info().currsize > 0
        # as a fresh process starts: clear every functools cache the module holds
        for obj in vars(signature).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
        assert signature._shift_quotient.cache_info().currsize == 0


class TestSchreyerOrder:
    def setup_method(self):
        self.engine = SigEngine(X)
        self.engine.new_index(xmono(1, 1, 2))  # lead of the module generator

    def test_reflexive(self):
        s = Signature(tm(xmono(2)), 0)
        assert self.engine.sig_key(s) == self.engine.sig_key(Signature(tm(xmono(2)), 0))

    def test_multiplied_signature_larger(self):
        # the J-pair example: x2*e0 versus x1*x2*e0
        s = Signature(tm(xmono(2)), 0)
        t = Signature(tm(xmono(1, 2)), 0)
        assert self.engine.sig_key(s) < self.engine.sig_key(t)

    def test_index_tie_break(self):
        engine = SigEngine(X)
        engine.new_index(xmono(0))
        engine.new_index(xmono(0))
        a = Signature(tm(xmono(3)), 0)
        b = Signature(tm(xmono(3)), 1)
        assert engine.sig_key(a)[:2] < engine.sig_key(b)[:2]


def _sign(a, b):
    return (a > b) - (a < b)


def _reference_schreyer(engine, s, t):
    """The Schreyer comparison as a comparator: image, then position."""
    image_s = tm_apply(s.tm, engine.module_leads[s.index])
    image_t = tm_apply(t.tm, engine.module_leads[t.index])
    c = order_sign(engine.ring, image_s, image_t)
    if c != 0:
        return c
    return _sign(s.index, t.index)


def _reference_compare(engine, s, t):
    """The total signature order as a comparator, tie-breaking on the parts.

    Among equal-image signatures the larger monomial part counts as
    smaller; then the shorter (len, word) of the shift's generator word
    counts as larger.
    """
    c = _reference_schreyer(engine, s, t)
    if c != 0:
        return c
    c = order_sign(engine.ring, s.tm.mono, t.tm.mono)
    if c != 0:
        return -c
    sw, tw = map_to_tau(s.tm.shift), map_to_tau(t.tm.shift)
    return -_sign((len(sw), sw), (len(tw), tw))


XY = Ring(
    (FamilySpec("x"), FamilySpec("y", arity=2, constraint="strictly_decreasing", weight=2))
)


def _random_xymono(rng, max_index=4, max_degree=3):
    exps = {}
    for _ in range(rng.randrange(max_degree + 1)):
        if rng.random() < 0.5:
            var = XY.variable("x", (rng.randrange(max_index + 1),))
        else:
            i, j = rng.sample(range(max_index + 1), 2)
            var = XY.variable("y", (max(i, j), min(i, j)))
        exps[var] = exps.get(var, 0) + 1
    return Monomial.from_dict(exps)


class TestSignatureKeyOracle:
    """``sig_key`` against the comparator it replaced, tie classes included."""

    @pytest.mark.parametrize("kind", ["lex", "grlex"])
    @pytest.mark.parametrize("families", ["x", "x+y"])
    def test_key_order_matches_reference(self, families, kind):
        base = X if families == "x" else XY
        ring = Ring(base.families, order_kind=kind)
        draw = random_xmono if families == "x" else _random_xymono
        rng = random.Random(31)
        engine = SigEngine(ring)
        for _ in range(3):
            lead = draw(rng)
            engine.new_index(lead)
            engine.new_index(lead)  # a second position with the same lead
        sigs = []
        for _ in range(60):
            index = rng.randrange(len(engine.module_leads))
            lead = engine.module_leads[index]
            common = draw(rng)
            shift_s, shift_t = random_incmap(rng), random_incmap(rng)
            # equal images split differently between mono and shift:
            # common * t(lead) * s(lead) under either shift
            for mono, shift in [
                (m_mul(common, m_act(shift_t, lead)), shift_s),
                (m_mul(common, m_act(shift_s, lead)), shift_t),
                (common, shift_s),
            ]:
                sigs.append(Signature(TwistedMonomial(mono, shift), index))
        keys = [engine.sig_key(s) for s in sigs]
        ties = splits = 0
        for s, ks in zip(sigs, keys):
            for t, kt in zip(sigs, keys):
                assert _sign(ks, kt) == _reference_compare(engine, s, t)
                schreyer = _reference_schreyer(engine, s, t)
                assert _sign(ks[:2], kt[:2]) == schreyer
                if schreyer == 0 and s != t:
                    ties += 1
                    splits += s.tm.mono == t.tm.mono
        assert ties - splits > 20  # equal image, told apart by the mono
        assert splits > 20  # equal image and mono, told apart by the word only


class TestJPairs:
    def test_classical_example(self):
        # p_f = (e0, x1^2 x2 + ...), p_g = (x2 e0, x1 x2^2 + ...): at the
        # identity interlacing, the first one listed, the J-pair is x1 * p_g
        engine = SigEngine(X)
        engine.new_index(xmono(1, 1, 2))
        p_f = LabeledPoly(Signature(UNIT_TM, 0), p((1, xmono(1, 1, 2))))
        p_g = LabeledPoly(Signature(tm(xmono(2)), 0), p((1, xmono(1, 2, 2))))
        engine.add_reducer(p_f)  # j_pairs reads the rows' Schreyer images
        engine.add_reducer(p_g)
        out = list(j_pairs(p_f, p_g, 0, 1, engine))
        assert out
        jp = out[0]
        assert jp.sig.tm == tm(xmono(1, 2))
        assert lm(jp.poly) == xmono(1, 1, 2, 2)

    def test_equal_signatures_emit_nothing(self):
        # the diagonal interlacing of a self-pair has equal sides: no J-pair
        # may come back at q's own signature
        engine = SigEngine(X)
        engine.new_index(xmono(0, 1))
        f = p((1, xmono(0, 1)))
        q = LabeledPoly(Signature(UNIT_TM, 0), f)
        engine.add_reducer(q)
        assert all(jp.sig != q.sig for jp in j_pairs(q, q, 0, 0, engine))


def unit_multiple(lp):
    """The J-pair 1 * lp, as the engine queues a generator; the cover test
    reads no signature key."""
    return JPair(lp.sig, None, lm(lp.poly), lp, IDENTITY, Monomial())


def cover_index(basis=(), syzygies=()):
    """The cover index of basis elements, given as labeled polynomials, and
    of syzygy signatures."""
    C = {}
    for g in basis:
        add_cover(C, g.sig, lm(g.poly))
    for sig in syzygies:
        add_cover(C, sig)
    return C


class TestIsCovered:
    def setup_method(self):
        self.engine = SigEngine(X)
        self.engine.new_index(xmono(0, 1))

    def agree(self, j, C):
        """is_covered's verdict, checked against the linear scan."""
        verdict = is_covered(j, C, self.engine)
        assert verdict == reference_is_covered(j, *cover_records(C), self.engine)
        return verdict

    def test_not_covered_by_itself(self):
        g = LabeledPoly(Signature(UNIT_TM, 0), p((1, xmono(0, 1)), (-1, xmono(0))))
        j = LabeledPoly(
            Signature(tm(xmono(2)), 0),
            p((1, xmono(0, 1, 2)), (-1, xmono(0, 2))),
        )
        # the only quotient moves g's lead exactly onto j's lead: no license
        assert not self.agree(unit_multiple(j), cover_index([g, j]))

    def test_empty_sets(self):
        j = LabeledPoly(Signature(tm(xmono(2)), 0), p((1, xmono(0, 1))))
        assert not self.agree(unit_multiple(j), {})

    def test_syzygy_signature_divides(self):
        C = cover_index(syzygies=[Signature(tm(xmono(2)), 0)])
        j = LabeledPoly(Signature(tm(xmono(2, 3)), 0), p((1, xmono(0, 1))))
        assert self.agree(unit_multiple(j), C)

    def test_smaller_moved_lead_covers(self):
        g = LabeledPoly(Signature(tm(xmono(1)), 0), p((1, xmono(0)), (-1, Monomial())))
        j = LabeledPoly(
            Signature(tm(xmono(1, 2)), 0), p((1, xmono(0, 3)), (-1, xmono(3)))
        )
        # t = x2: t * sig(g) == sig(j) and x2 * lm(g) = x0 x2 < x0 x3
        assert self.agree(unit_multiple(j), cover_index([g]))

    def test_basis_element_and_syzygy_in_one_group(self):
        # both signatures have the identity shift: one group, two entries
        g = LabeledPoly(Signature(tm(xmono(1)), 0), p((1, xmono(0))))
        C = cover_index([g], [Signature(tm(xmono(5)), 0)])
        assert [len(group) for group in C[0].values()] == [2]

        def j(mono, lead):
            return unit_multiple(LabeledPoly(Signature(tm(mono), 0), p((1, lead))))

        assert self.agree(j(xmono(1, 2), xmono(0, 3)), C)  # g: x2 * x0 < x0 x3
        assert not self.agree(j(xmono(1, 2), xmono(0, 2)), C)  # g ties the lead
        assert self.agree(j(xmono(2, 5), xmono(0, 2)), C)  # the syzygy
        assert not self.agree(j(xmono(2, 3), xmono(0, 3)), C)  # neither divides

    def test_shifted_syzygy_pulled_back(self):
        # sig(j) = (x3 x4, t0 t0).  (x5, t0) and (x0, t0) reach its shift
        # through the map st that fixes 0 and adds 1 elsewhere, but st moves
        # neither monomial onto a divisor of x3 x4; (x0, t0 t0 t0) cannot
        # reach the shift at all.  (x2, t0) covers: st(x2) = x3.
        sigs = [
            Signature(tm(mono, *word), 0)
            for mono, word in [(xmono(5), (0,)), (xmono(0), (0,)), (xmono(0), (0, 0, 0))]
        ]
        target = Signature(twisted_mul(tm(xmono(3), 0), tm(xmono(3), 0)), 0)
        assert target.tm == tm(xmono(3, 4), 0, 0)
        j = unit_multiple(LabeledPoly(target, p((1, xmono(0, 1)))))
        assert not self.agree(j, cover_index(syzygies=sigs))
        sigs.append(Signature(tm(xmono(2), 0), 0))
        assert self.agree(j, cover_index(syzygies=sigs))

    def test_verdicts_follow_a_growing_index(self):
        # Every target below has the shift t0 (i -> i + 1); between tests the
        # index gains a new group, and entries appended to an existing group,
        # and each verdict reads the index as it stands
        def j(mono, lead):
            return unit_multiple(LabeledPoly(Signature(tm(mono, 0), 0), p((1, lead))))

        C = cover_index(syzygies=[Signature(tm(xmono(5)), 0)])
        # st = t0 moves x5 to x6, which does not divide x1 x3
        assert not self.agree(j(xmono(1, 3), xmono(0, 1)), C)
        # ... but divides x0 x6
        assert self.agree(j(xmono(0, 6), xmono(0, 1)), C)
        # a group added after those tests: (x3, t0), reached by the identity
        add_cover(C, Signature(tm(xmono(3), 0), 0))
        assert self.agree(j(xmono(1, 3), xmono(0, 1)), C)
        # another monomial at the same shift, which neither entry covers ...
        assert not self.agree(j(xmono(2, 4), xmono(0, 1)), C)
        # ... until a syzygy is appended to the identity group: t0 moves x1
        # to x2, which divides x2 x4
        add_cover(C, Signature(tm(xmono(1)), 0))
        assert [len(group) for group in C[0].values()] == [2, 1]
        assert self.agree(j(xmono(2, 4), xmono(0, 1)), C)
        # a basis element appended to the t0 group: x8 divides x8 x9 with
        # cofactor x9, and its lead moves to x9 * x0, below a lead x0 x10
        # and tied with x0 x9
        assert not self.agree(j(xmono(8, 9), xmono(0, 10)), C)
        add_cover(C, Signature(tm(xmono(8), 0), 0), xmono(0))
        assert self.agree(j(xmono(8, 9), xmono(0, 10)), C)
        assert not self.agree(j(xmono(8, 9), xmono(0, 9)), C)  # a tie
        # the same element judged against another target
        assert self.agree(j(xmono(8, 11), xmono(0, 12)), C)
        assert not self.agree(j(xmono(8, 11), xmono(0, 11)), C)

    def test_growing_index_against_linear_scan(self):
        # one index grown at random between tests of recurring target shifts
        rng = random.Random(37)
        words = [(), (0,), (1,), (0, 0), (0, 2), (2,)]
        C, verdicts = {}, Counter()
        for _ in range(600):
            mono = random_xmono(rng, 5, 3)
            if rng.random() < 0.15:
                lead = random_xmono(rng, 4, 2) if rng.random() < 0.5 else None
                add_cover(C, Signature(tm(mono, *rng.choice(words)), 0), lead)
                continue
            target = Signature(tm(mono, *rng.choice(words)), 0)
            lead = random_xmono(rng, 5, 3)
            verdicts[self.agree(unit_multiple(LabeledPoly(target, p((1, lead)))), C)] += 1
        assert min(verdicts.values()) > 50


class TestRegularTopReduce:
    def test_irreducible_unchanged(self):
        engine = SigEngine(X)
        engine.new_index(xmono(0, 1))
        g = LabeledPoly(Signature(UNIT_TM, 0), p((1, xmono(0, 1)), (-1, xmono(0))))
        engine.add_reducer(g)
        target = LabeledPoly(Signature(tm(xmono(5)), 0), p((1, xmono(0, 0))))
        out, singular, _tied = regular_top_reduce(target, engine)
        assert out.poly == target.poly and not singular

    def test_orbit_cancellation_to_zero(self):
        engine = SigEngine(X)
        engine.new_index(xmono(0))
        g = LabeledPoly(Signature(UNIT_TM, 0), p((1, xmono(0))))
        engine.add_reducer(g)
        target = LabeledPoly(Signature(tm(xmono(9)), 0), p((1, xmono(3))))
        out, singular, _tied = regular_top_reduce(target, engine)
        assert out.poly.is_zero and not singular
        assert out.sig == target.sig  # the signature never changes

    def test_tail_kept_below_an_irreducible_lead(self):
        # x1*x0 - x0 reduces the lead of x1*x0 + 2*x0^2 + x0 at a smaller
        # signature; no shift of x1*x0 divides x0^2, so 2*x0^2 + 2*x0 is left
        engine = SigEngine(X)
        engine.new_index(xmono(0, 1))
        g = LabeledPoly(Signature(UNIT_TM, 0), p((1, xmono(0, 1)), (-1, xmono(0))))
        engine.add_reducer(g)
        target = LabeledPoly(
            Signature(tm(xmono(9)), 0), p((1, xmono(0, 1)), (2, xmono(0, 0)), (1, xmono(0)))
        )
        out = regular_top_reduce(target, engine)
        assert out == reference_regular_top_reduce(target, [g], engine)
        assert out[0].poly == p((2, xmono(0, 0)), (2, xmono(0))) and not out[1]

    def test_memoized_miss_sees_an_appended_row(self, monkeypatch):
        # x0^2 misses row 0 (lead x1*x0) and is remembered so; row 1,
        # appended later, must still reduce it, and row 0 is not searched
        # against it again
        searches = recorded_searches(monkeypatch, poly_module)
        engine = SigEngine(X)
        g0 = LabeledPoly(
            Signature(UNIT_TM, engine.new_index(xmono(0, 1))), p((1, xmono(0, 1)), (-1, xmono(0)))
        )
        engine.add_reducer(g0)
        first = LabeledPoly(Signature(tm(xmono(9)), 0), p((1, xmono(0, 0))))
        assert regular_top_reduce(first, engine) == (first, False, False)
        g1 = LabeledPoly(Signature(UNIT_TM, engine.new_index(xmono(0, 0))), p((1, xmono(0, 0))))
        engine.add_reducer(g1)
        again = LabeledPoly(Signature(tm(xmono(9)), 1), p((1, xmono(0, 0)), (1, xmono(0))))
        out = regular_top_reduce(again, engine)
        assert out == reference_regular_top_reduce(again, [g0, g1], engine)
        assert out[0].poly == p((1, xmono(0))) and not out[1]
        x0x1, x0x0, x0 = xmono(0, 1), xmono(0, 0), xmono(0)
        assert searches == [(x0x1, x0x0), (x0x0, x0x0), (x0x1, x0), (x0x0, x0)]

    def test_one_term_judged_per_pop(self):
        # x3 has one candidate, x0 moved by 0 -> 3, at the signature
        # (1, 0 -> 3) of index 0.  The memo keeps that candidate, not a
        # verdict: popped at a larger signature x3 reduces, at exactly the
        # candidate's it is singular, at a smaller one it stays
        engine = SigEngine(X)
        g = LabeledPoly(Signature(UNIT_TM, engine.new_index(xmono(0))), p((1, xmono(0))))
        engine.add_reducer(g)
        rho = pi_divides(xmono(0), xmono(3))
        verdicts = []
        for sig in [
            Signature(tm(xmono(9)), 0),
            Signature(TwistedMonomial(Monomial(), rho), 0),
            Signature(UNIT_TM, 0),
        ]:
            target = LabeledPoly(sig, p((1, xmono(3))))
            out = regular_top_reduce(target, engine)
            assert out == reference_regular_top_reduce(target, [g], engine)
            verdicts.append((out[0].poly.is_zero, out[1]))
        assert verdicts == [(True, False), (False, True), (False, False)]


def reference_j_pairs(p, q, pi, qi, engine, checks):
    """The J-pairs as they were built before the Schreyer-head test, both
    sides' signatures and full keys for every generator, less the Koszul
    rule's: a generator whose moved leads share no variable and whose two
    sides differ at the Schreyer level (``key[:2]``).  checks counts the
    generators it drops and the coprime ones it keeps on a tie."""
    out = []
    for gen in reference_spair_generators(p.poly, q.poly, pi, qi, coprime_filter=False):
        sig1 = Signature(twisted_mul(TwistedMonomial(gen.cof1, gen.map1), p.sig.tm), p.sig.index)
        sig2 = Signature(twisted_mul(TwistedMonomial(gen.cof2, gen.map2), q.sig.tm), q.sig.index)
        key1, key2 = engine.sig_key(sig1), engine.sig_key(sig2)
        if coprime(m_act(gen.map1, lm(p.poly)), m_act(gen.map2, lm(q.poly))):
            if key1[:2] != key2[:2]:
                checks["koszul"] += 1
                continue
            checks["coprime ties"] += 1
        if key1 > key2:
            out.append(JPair(sig1, key1, gen.overlap, p, gen.map1, gen.cof1))
        elif key1 < key2:
            out.append(JPair(sig2, key2, gen.overlap, q, gen.map2, gen.cof2))
    return out


def j_pair_fields(jp):
    return jp.sig, jp.key, jp.lead, jp.source, jp.map, jp.cof


def reference_is_covered(j, G, S, engine):
    """The linear-scan cover test the cover index replaced, on the dense
    left quotient; S lists the syzygies as zero labeled polynomials."""
    if j.poly.is_zero:
        return False
    jl = order_key(engine.ring, lm(j.poly))
    for g in G:
        if g.sig.index != j.sig.index or g.poly.is_zero:
            continue
        for t in _reference_left_quotients(j.sig.tm, g.sig.tm):
            if order_key(engine.ring, tm_apply(t, lm(g.poly))) < jl:
                return True
    for s in S:
        if s.sig.index != j.sig.index:
            continue
        if _reference_left_quotients(j.sig.tm, s.sig.tm):
            return True
    return False


def cover_records(C, ring=X):
    """The basis elements and syzygies of a cover index, as the linear scan
    took them: an element as its lead alone, a syzygy as zero."""
    G, S = [], []
    for index, groups in C.items():
        for shift, group in groups.items():
            for mono, lead in group:
                sig = Signature(TwistedMonomial(mono, shift), index)
                if lead is None:
                    S.append(LabeledPoly(sig, poly(ring, [])))
                else:
                    G.append(LabeledPoly(sig, poly(ring, [(Fraction(1), lead)])))
    return G, S


def reference_regular_top_reduce(p, G, engine):
    """Regular top-reduction as it was before the term accumulator: whole
    polynomial ``subtract`` steps and the full signature key of every
    candidate reducer."""
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
            for rho in prepared_witnesses(prepare_lead(lead), term_profile(target)):
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


@contextmanager
def checked_against_oracles():
    """Run the engine with every J-pair list, cover test and top reduction
    checked: the J-pair list against the oracle's, a J-pair's lead and
    width against its built polynomial, its carried key against its
    signature's, the cover verdict and the reduction against the oracles
    above.  Yields the number of checks of each kind, and of the basis
    elements and syzygies the cover index got."""
    cover, reduce_top, pairs = signature.is_covered, signature.regular_top_reduce, signature.j_pairs
    add = signature.add_cover
    checks = Counter()

    def checked_pairs(p, q, pi, qi, engine):
        out = list(pairs(p, q, pi, qi, engine))
        expected = reference_j_pairs(p, q, pi, qi, engine, checks)
        assert list(map(j_pair_fields, out)) == list(map(j_pair_fields, expected))
        checks["j_pair lists"] += 1
        for jp in out:
            built = jp.poly
            assert (jp.lead, jp.width()) == (lm(built), built.width())
            checks["j_pairs"] += 1
            yield jp

    def checked_cover(j, C, engine):
        assert j.key == engine.sig_key(j.sig)  # the key a queued pair carries
        verdict = cover(j, C, engine)
        assert verdict == reference_is_covered(j, *cover_records(C, engine.ring), engine)
        checks["is_covered"] += 1
        return verdict

    def counted_add(C, sig, lead=None):
        checks["syzygy covers" if lead is None else "basis covers"] += 1
        return add(C, sig, lead)

    def checked_reduce(p, engine):
        out = reduce_top(p, engine)
        G = [LabeledPoly(sig, row[1]) for row, (sig, _) in zip(engine.rows, engine.labels)]
        assert out == reference_regular_top_reduce(LabeledPoly(p.sig, p.poly), G, engine)
        checks["regular_top_reduce"] += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signature, "j_pairs", checked_pairs)
        mp.setattr(signature, "is_covered", checked_cover)
        mp.setattr(signature, "add_cover", counted_add)
        mp.setattr(signature, "regular_top_reduce", checked_reduce)
        yield checks


def recorded_row_pairs(F, limits=EngineLimits()):
    """Every call (p, q, pi, qi, engine) that a signature run of F makes to
    ``j_pairs``.  Rows and module leads are only appended, so each call can
    be replayed on the run's final engine."""
    calls = []
    real = signature.j_pairs

    def recording(p, q, pi, qi, engine):
        calls.append((p, q, pi, qi, engine))
        return real(p, q, pi, qi, engine)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signature, "j_pairs", recording)
        egb_signature(F, limits)
    return calls


def j_pairs_against_reference(calls):
    """Replay each call of ``j_pairs`` against ``reference_j_pairs``: the
    same JPair fields in the same order, and as many ``koszul_pairs`` as
    the reference drops.  Returns the branches of the head-tie lemma the
    calls met: the per-pair test failing on distinct indices or on a lead
    that does not divide its Schreyer image, or passing, and then the
    coprime placements whose Schreyer rests tie and those whose do not."""
    branches = Counter()
    for p, q, pi, qi, engine in calls:
        checks = Counter()
        before = engine.stats["koszul_pairs"]
        out = list(j_pairs(p, q, pi, qi, engine))
        expected = reference_j_pairs(p, q, pi, qi, engine, checks)
        assert list(map(j_pair_fields, out)) == list(map(j_pair_fields, expected))
        assert engine.stats["koszul_pairs"] - before == checks["koszul"]
        image_p, image_q = engine.labels[pi][1], engine.labels[qi][1]
        if p.sig.index != q.sig.index:
            branches["distinct indices"] += 1
        elif not m_divides(lm(p.poly), image_p):
            branches["lf does not divide Ip"] += 1
        elif not m_divides(lm(q.poly), image_q):
            branches["lg does not divide Iq"] += 1
        else:
            branches["coprime ties"] += checks["coprime ties"]
            branches["coprime rests differ"] += checks["koszul"]
    return branches


def labeled_rows(engine, *rows):
    """Append each (signature, polynomial) as a row of the engine."""
    out = [LabeledPoly(sig, f) for sig, f in rows]
    for g in out:
        engine.add_reducer(g)
    return out


def self_pair_call():
    """The unit-signature self-pair of x[5]*x[0] - x[1]: every coprime
    placement ties at the Schreyer head."""
    engine = SigEngine(X)
    f = p((1, xmono(5, 0)), (-1, xmono(1)))
    (g,) = labeled_rows(engine, (Signature(UNIT_TM, engine.new_index(lm(f))), f))
    return [(g, g, 0, 0, engine)]


def schreyer_rest_call():
    """Rows x[0] at x[0] * e0 and x[1] at x[1] * e0, e0 labelling x[0]:
    both leads divide their Schreyer images, with rest x[0] each, so a
    coprime placement (a, b) ties exactly when a and b agree at 0."""
    engine = SigEngine(X)
    index = engine.new_index(xmono(0))
    rows = labeled_rows(
        engine,
        (Signature(tm(xmono(0)), index), p((1, xmono(0)))),
        (Signature(tm(xmono(1)), index), p((1, xmono(1)))),
    )
    return [(rows[0], rows[1], 0, 1, engine)]


GRLEX_TORIC_TEXT = """
ring {
  family x { arity = 1, constraint = none, weight = 1 }
  family y { arity = 2, constraint = strictly_decreasing, weight = 3 }
  order { kind = grlex, precedence = [x, y], weights = false }
}
generators { y[1,0] - x[1]*x[0]; }
"""


class TestJPairsHeadTieLemma:
    """``j_pairs`` decides coprime placements on index tuples and the
    per-pair head-tie test; its J-pairs and ``koszul_pairs`` are those of
    the reference, which builds and keys every generator."""

    def test_distinct_indices(self, member_problem):
        branches = j_pairs_against_reference(recorded_row_pairs(member_problem.generators))
        assert branches["distinct indices"] > 0

    def test_lead_not_dividing_its_image(self, toric_problem):
        branches = j_pairs_against_reference(recorded_row_pairs(toric_problem.generators))
        assert branches["lf does not divide Ip"] > 0 and branches["lg does not divide Iq"] > 0

    def test_unit_signature_self_pair_ties(self):
        branches = j_pairs_against_reference(self_pair_call())
        assert branches["coprime ties"] > 0 and branches["coprime rests differ"] == 0

    def test_schreyer_rests_compared(self):
        branches = j_pairs_against_reference(schreyer_rest_call())
        assert branches["coprime ties"] > 0 and branches["coprime rests differ"] > 0

    def test_grlex_ring(self):
        calls = recorded_row_pairs(parse(UNWEIGHTED_TEXT).generators)
        branches = j_pairs_against_reference(calls)
        assert branches["coprime ties"] > 0

    def test_every_row_pair_of_segre(self):
        problem = parse((GOLDEN / "segre.egb").read_text())
        calls = recorded_row_pairs(problem.generators)
        branches = j_pairs_against_reference(calls)
        assert len(calls) == 351 and branches["distinct indices"] > 0

    @pytest.mark.parametrize(
        "name, patch",
        [
            # the per-pair test always fails: a coprime head tie is dropped
            ("drops a coprime head tie", ("m_divides", lambda a, b: False)),
            # every placement shares a lead variable: a coprime non-tie is kept
            ("keeps a coprime non-tie", ("_shares", lambda fvars, getters, b: True)),
        ],
    )
    def test_mutations_are_caught(self, toric_problem, name, patch):
        calls = self_pair_call() + schreyer_rest_call()
        calls += recorded_row_pairs(toric_problem.generators)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signature, *patch)
            with pytest.raises(AssertionError):
                j_pairs_against_reference(calls)


class TestEngineOracle:
    """The engine's J-pairs, cover tests and top reductions against the
    subtract-based reduction and linear-scan cover test they replaced."""

    @pytest.mark.parametrize("problem", ["toric", "member", "wide5"])
    def test_corpus_runs(self, request, problem):
        # wide5 ties at the Schreyer head on most J-pair generators
        generators = corpus_generators(request, problem)
        with checked_against_oracles() as checks:
            res = egb_signature(generators)
        assert res.status == COMPLETE
        # each popped pair of a new signature is tested for cover, once, and
        # each uncovered one is counted and reduced
        stats = res.stats
        assert checks["is_covered"] == stats["pairs_processed"] + stats["covered_pairs"]
        assert checks["basis covers"] == stats["insertions"]
        assert checks["syzygy covers"] == stats["syzygies"]
        assert checks["regular_top_reduce"] == stats["pairs_processed"]
        assert checks["j_pairs"] > 0 and checks["j_pair lists"] > 0
        # the Koszul rule drops some generators and keeps coprime ones on a tie
        assert checks["koszul"] == stats["koszul_pairs"] > 0 and checks["coprime ties"] > 0

    def test_singular_is_judged_at_the_kept_term(self, x_problem):
        # the J-pair x1*G[0] meets a reducer at exactly its signature before
        # the smaller one it reduces by, and that step leaves zero: the pair
        # is a zero reduction and its syzygy is recorded, not discarded
        F = [expr(x_problem, "x[1]*x[0]"), expr(x_problem, "x[0]^2")]
        with checked_against_oracles() as checks:
            res = egb_signature(F)
        assert checks["regular_top_reduce"] == 6
        assert (res.stats["singular_discards"], res.stats["zero_reductions"]) == (0, 4)
        assert res.stats["syzygies"] == 4

    def test_over_width_pairs_skip_the_cover_test(self, x_problem):
        # push drops a pair wider than max_width, and only popped pairs are
        # tested for cover, so no cover test sees one
        limits = EngineLimits(max_width=7)
        widths = []
        with checked_against_oracles():
            cover = signature.is_covered

            def recorded_cover(j, C, engine):
                widths.append(j.width())
                return cover(j, C, engine)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(signature, "is_covered", recorded_cover)
                res = egb_signature([expr(x_problem, WIDE5)], limits)
        assert res.status == BUDGET  # some J-pair was too wide
        assert widths and max(widths) <= limits.max_width

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(inputs())
    def test_cross_engine_inputs(self, F):
        with checked_against_oracles() as checks:
            res = egb_signature(F, LIMITS)
        # a max_pairs stop follows the cover test of the pair it leaves
        tested = res.stats["pairs_processed"] + res.stats["covered_pairs"]
        assert tested <= checks["is_covered"] <= tested + 1
        assert checks["regular_top_reduce"] == res.stats["pairs_processed"]


# the reduced EGBs, which every engine returns: the direct engine's
# golden bases
TORIC_BASIS = [
    "x[1]*x[0] - y[1,0]",
    "x[1]*y[2,0] - x[0]*y[2,1]",
    "x[2]*y[1,0] - x[0]*y[2,1]",
    "x[0]^2*y[2,1] - y[2,0]*y[1,0]",
    "y[3,1]*y[2,0] - y[3,0]*y[2,1]",
    "y[3,2]*y[1,0] - y[3,0]*y[2,1]",
]

MEMBER_BASIS = [
    "x[1]^2*x[0] - 2*x[1]^2 + x[1]*x[0]^2 - 2*x[1]*x[0]",
    "x[1]^3 - x[1]*x[0]^2",
    "x[2]*x[1] - x[2]*x[0]",
    "x[2]^2 + x[2]*x[0] - x[1]^2 - x[1]*x[0]",
    "x[2]*x[0]^2 - x[1]^2 - x[1]*x[0]",
]

WIDE5 = "x[5]*x[0] - x[1]"

WIDE5_BASIS = ["x[1]*x[0] - x[1]", "x[1]^2 - x[1]", "x[2] - x[1]"]


def corpus_generators(request, problem):
    """The generators of perfbench's toric, member or wide5 problem."""
    if problem == "wide5":
        return [expr(request.getfixturevalue("x_problem"), WIDE5)]
    return request.getfixturevalue(f"{problem}_problem").generators

STAT_KEYS = (
    "pairs_processed",
    "zero_reductions",
    "tied_zero_reductions",
    "covered_pairs",
    "singular_discards",
    "duplicate_signatures",
    "insertions",
    "syzygies",
    "koszul_pairs",
    "full_zero_reductions",
)


class TestEgbSignature:
    @pytest.mark.parametrize(
        "problem, limits, status, counts, basis",
        [
            ("toric", None, COMPLETE, (77, 33, 3, 19, 0, 25, 6, 33, 1739, 38), TORIC_BASIS),
            ("member", None, COMPLETE, (112, 36, 7, 92, 0, 84, 6, 36, 438, 70), MEMBER_BASIS),
            ("wide5", None, COMPLETE, (38, 23, 10, 2111, 0, 2470, 4, 23, 528, 11), WIDE5_BASIS),
            ("wide5", (3, 10), BUDGET, (0,) * 10, [WIDE5]),
        ],
        ids=["toric", "member", "wide5", "wide5_budget"],
    )
    def test_stats_pinned(self, request, problem, limits, status, counts, basis):
        # any change to the signature order moves these counters; wide5 and
        # its budget stop (max_width, max_pairs) are perfbench's corpus files
        generators = corpus_generators(request, problem)
        res = egb_signature(generators, EngineLimits(*limits) if limits else EngineLimits())
        assert res.status == status
        assert res.stats == dict(zip(STAT_KEYS, counts))
        assert [format_polynomial(f) for f in res.basis] == basis

    def test_grlex_toric_budget_pinned(self, monkeypatch):
        # the toric kernel under grlex with the weights off stops on its
        # width budget; its J-pair enumeration meets 138,030 placements, of
        # which the Koszul rule drops 122,784 without building a map or a
        # monomial.  Only the other 15,246 are built as pair generators;
        # when every placement was built, this run took 5.8 s, and width 6
        # built 566,259 generators.  The count may only fall
        built = [0]
        real = signature._spair_gen

        def counting(*args):
            built[0] += 1
            return real(*args)

        monkeypatch.setattr(signature, "_spair_gen", counting)
        res = egb_signature(parse(GRLEX_TORIC_TEXT).generators, EngineLimits(max_width=5))
        assert (res.status, len(res.basis)) == (BUDGET, 21)
        assert (res.stats["pairs_processed"], res.stats["koszul_pairs"]) == (467, 122_784)
        assert built[0] == 15_246

    @pytest.mark.parametrize(
        "problem, loop_searches, final_searches",
        [("toric", 463, 67), ("member", 534, 75)],
        ids=["toric", "member"],
    )
    def test_witness_searches_pinned(
        self, request, monkeypatch, problem, loop_searches, final_searches
    ):
        # regular top-reduction and the full normal form share one memo of
        # candidate steps, which searches each (row, term) once per run;
        # autoreduce then searches its own tables.  Before the memo toric
        # made 15,696 searches in regular top-reduction alone and member
        # 5,174; with a second memo for the full normal form, 7,334 and
        # 1,158; before the Koszul rule, 5,879 and 818.  These may only fall
        calls = recorded_searches(monkeypatch, poly_module)
        loop = []
        real = signature.autoreduce

        def recording(polys):
            loop.extend(calls)
            return real(polys)

        monkeypatch.setattr(signature, "autoreduce", recording)
        res = egb_signature(request.getfixturevalue(f"{problem}_problem").generators)
        assert res.status == COMPLETE
        assert len(loop) == len(set(loop)) == loop_searches
        assert len(calls) - len(loop) == final_searches

    @pytest.mark.parametrize(
        "problem, final_preparations", [("toric", 8), ("member", 7)], ids=["toric", "member"]
    )
    def test_one_preparation_per_inserted_lead(
        self, request, monkeypatch, problem, final_preparations
    ):
        # one reducer table per run: the full normal form and regular
        # top-reduction both choose from the candidates of engine.rows, so
        # the loop prepares each inserted lead once.  With a second table
        # for the full normal form, toric prepared 18 leads and member 17.
        # autoreduce then builds its own table: one preparation per element,
        # and one more for each element whose reduction changes it
        prepared, scanned = [], []
        real_prepare, real_candidates = rings.prepare_lead, signature.candidates
        real_autoreduce = signature.autoreduce
        loop = []

        def counting_prepare(lead):
            prepared.append(lead)
            return real_prepare(lead)

        def recording_candidates(table):
            scanned.append(table)
            return real_candidates(table)

        def recording_autoreduce(polys):
            loop.extend(prepared)
            return real_autoreduce(polys)

        for module in (poly_module, rings, signature):
            if hasattr(module, "prepare_lead"):
                monkeypatch.setattr(module, "prepare_lead", counting_prepare)
        monkeypatch.setattr(signature, "candidates", recording_candidates)
        monkeypatch.setattr(signature, "autoreduce", recording_autoreduce)
        res = egb_signature(request.getfixturevalue(f"{problem}_problem").generators)
        assert res.status == COMPLETE
        assert len(loop) == res.stats["insertions"] == 6
        assert len(prepared) - len(loop) == final_preparations
        # the loop's one memo over its rows
        assert len(scanned) == 1 and len(scanned[0]) == res.stats["insertions"]

    def test_bookkeeping_work_pinned(self, toric_problem, monkeypatch):
        # The cover test looks a shift quotient up once per group of the
        # pair's index and test, from a cache on the maps, and j_pairs
        # builds a signature and its key for the winning side only, both on
        # a head tie, and neither for a Koszul pair.  Before the Koszul rule
        # a toric solve made 3,460 cover tests (935 covered), 2,863 sig_key
        # and 2,079 twisted_mul calls; with both keys per generator, 4,711
        # and 3,927 calls, and 32,196 quotient lookups.  Testing each pair
        # for cover at push as well as at pop made 214 tests (22 covered)
        # and 895 lookups.  These counts may only fall
        quotients, calls, verdicts = Counter(), Counter(), Counter()
        real_quotient, real_cover = signature._shift_quotient, signature.is_covered
        real_key, real_mul = SigEngine.sig_key, signature.twisted_mul
        index = None

        def cover(j, C, engine):
            nonlocal index
            index = j.sig.index
            verdict = real_cover(j, C, engine)
            verdicts[verdict] += 1
            return verdict

        def quotient(target, base):
            quotients[index, target, base] += 1
            return real_quotient(target, base)

        def key(engine, s):
            calls["sig_key"] += 1
            return real_key(engine, s)

        def mul(a, b):
            calls["twisted_mul"] += 1
            return real_mul(a, b)

        monkeypatch.setattr(signature, "is_covered", cover)
        monkeypatch.setattr(signature, "_shift_quotient", quotient)
        monkeypatch.setattr(SigEngine, "sig_key", key)
        monkeypatch.setattr(signature, "twisted_mul", mul)
        res = egb_signature(toric_problem.generators)
        assert res.status == COMPLETE
        assert (sum(verdicts.values()), verdicts[True]) == (96, 19)
        assert len(quotients) == 125 and sum(quotients.values()) <= 570
        assert calls["sig_key"] <= 234 and calls["twisted_mul"] <= 156

    def test_appended_rows_carry_their_preparation(self, toric_problem, monkeypatch):
        # each row add_reducer appends holds the element's lead and that
        # lead's preparation, which regular top-reduction searches on
        appended = []
        real = SigEngine.add_reducer

        def checked(engine, g):
            real(engine, g)
            assert engine.rows[-1][1] is g.poly and engine.labels[-1][0] is g.sig
            assert_current_preparations(engine.rows)
            appended.append(g)

        monkeypatch.setattr(SigEngine, "add_reducer", checked)
        res = egb_signature(toric_problem.generators)
        assert res.status == COMPLETE
        assert len(appended) == res.stats["insertions"] > 1

    def test_trivial_input(self):
        res = egb_signature([p((1, xmono(0)))])
        assert res.status == COMPLETE and res.basis == [p((1, xmono(0)))]

    def test_toric_reference_elements(self, toric_problem):
        res = egb_signature(toric_problem.generators, limits=EngineLimits(max_pairs=5000))
        assert res.status == COMPLETE
        rendered = sorted(map(format_polynomial, res.basis))
        for wanted in [
            "x[1]*x[0] - y[1,0]",
            "y[3,2]*y[1,0] - y[3,0]*y[2,1]",
            "y[3,1]*y[2,0] - y[3,0]*y[2,1]",
        ]:
            assert format_polynomial(monic(expr(toric_problem, wanted))) in rendered
        assert is_egb(res.basis)
        assert res.basis == egb_buchberger(toric_problem.generators).basis
        assert res.stats["zero_reductions"] > 0
        assert res.stats["covered_pairs"] > 0

    def test_toric_agrees_with_buchberger(self, toric_problem):
        sig = egb_signature(toric_problem.generators, limits=EngineLimits(max_pairs=5000))
        direct = egb_buchberger(toric_problem.generators)
        assert ideal_equal(sig.basis, direct.basis)

    def test_member_agrees_with_buchberger(self, member_problem):
        sig = egb_signature(member_problem.generators, limits=EngineLimits(max_pairs=20000))
        direct = egb_buchberger(member_problem.generators)
        assert sig.status == COMPLETE
        assert ideal_equal(sig.basis, direct.basis)

    def test_cover_is_only_an_optimization(self):
        # the pairs the cover test discards never lose part of the ideal
        F = [p((1, xmono(0, 1)), (-1, xmono(0, 0)))]
        sig = egb_signature(F, limits=EngineLimits(max_pairs=3000))
        direct = egb_buchberger(F, EngineLimits(max_pairs=3000))
        assert sig.status == COMPLETE and direct.status == COMPLETE
        assert sig.stats["covered_pairs"] > 0
        assert ideal_equal(sig.basis, direct.basis)

    def test_budget_exhaustion(self, toric_problem, x_problem):
        # a partial basis is the direct engine's: the generators, then the
        # insertions, so it still generates the input
        for f, limits in [
            (expr(toric_problem, "y[1,0] - x[1]*x[0]"), EngineLimits(max_pairs=3)),
            (expr(x_problem, "x[5]*x[0] - x[1]"), EngineLimits(max_width=3)),
        ]:
            res = egb_signature([f], limits)
            assert res.status == BUDGET
            assert res.basis[0] == monic(f)
            assert normal_form(f, res.basis).is_zero

    def test_stats_determinism(self, toric_problem):
        a = egb_signature(toric_problem.generators, limits=EngineLimits(max_pairs=5000))
        b = egb_signature(toric_problem.generators, limits=EngineLimits(max_pairs=5000))
        assert a.stats == b.stats and a.basis == b.basis

    def test_stats_schema_fixed(self, toric_problem):
        # every counter is present whatever the input, at 0 when unused
        toric = egb_signature(toric_problem.generators, limits=EngineLimits(max_pairs=5000))
        assert toric.stats["tied_zero_reductions"] > 0
        empty = egb_signature([]).stats
        assert set(empty.values()) == {0}
        for stats in (empty, egb_signature([p((1, xmono(0)))]).stats):
            assert stats.keys() == toric.stats.keys()

