"""Increasing maps, their breakpoint form and generator words, and dense oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgb.incmaps import (
    IDENTITY,
    IncMap,
    compose,
    extend_partial,
    increasing_maps,
    map_to_tau,
    word_key,
)
from incgb.rings import Monomial, m_act, pi_divides
from incgb.signature import (
    JPair,
    SigEngine,
    Signature,
    TwistedMonomial,
    _shift_quotient,
    add_cover,
    is_covered,
)

from conftest import X_RING, random_incmap, tau, word_map, xmono

incmaps = st.builds(
    lambda vals: IncMap(tuple(sorted(vals))),
    st.sets(st.integers(min_value=0, max_value=12), max_size=5),
)
words = st.lists(st.integers(min_value=0, max_value=6), max_size=8).map(tuple)


class TestApply:
    def test_identity(self):
        assert IDENTITY(7) == 7

    def test_direct_read(self):
        assert IncMap((2, 5))(1) == 5

    def test_minimal_extension(self):
        assert IncMap((2, 5))(4) == 8

    @given(incmaps, st.integers(min_value=0, max_value=100))
    def test_strictly_monotone(self, rho, i):
        assert rho(i) < rho(i + 1)


class TestCanonicalForm:
    def test_trailing_extension_trimmed(self):
        # only the breakpoints are stored: where the shift rho(i) - i grows
        assert IncMap((2, 3, 4)) == IncMap((2,))
        assert (IncMap((2, 3, 4)).starts, IncMap((2, 3, 4)).shifts) == ((0,), (0, 2))
        assert (IncMap((0, 1, 2)).starts, IncMap((0, 1, 2)).shifts) == ((), (0,))
        assert (IncMap((0, 3, 4, 7)).starts, IncMap((0, 3, 4, 7)).shifts) == ((1, 3), (0, 2, 4))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            IncMap((3, 3))
        with pytest.raises(ValueError):
            IncMap((-1,))

    @given(incmaps, incmaps)
    def test_structural_equality_is_functional(self, a, b):
        same_fn = all(a(i) == b(i) for i in range(20))
        assert (a == b) == same_fn


class TestCompose:
    def test_identity_neutral(self):
        b = IncMap((0, 2))
        assert compose(IDENTITY, b) == b
        assert compose(b, IDENTITY) == b

    def test_tau0_squared_is_plus_two(self):
        t0 = tau(0)
        sq = compose(t0, t0)
        assert all(sq(i) == i + 2 for i in range(10))
        assert (sq.starts, sq.shifts) == ((0,), (0, 2))  # one breakpoint

    def test_pointwise_example(self):
        a, b = IncMap((1, 2)), IncMap((0, 2))
        c = compose(a, b)
        assert all(c(i) == a(b(i)) for i in range(10))

    @given(incmaps, incmaps)
    def test_pointwise_oracle(self, a, b):
        c = compose(a, b)
        assert all(c(i) == a(b(i)) for i in range(25))

    @given(incmaps, incmaps, incmaps)
    def test_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestStandardForm:
    """The weakly increasing word of a generator product (``word_map``) is
    ``map_to_tau`` of the product."""

    def test_commutation_example(self):
        assert map_to_tau(word_map((3, 1))) == (1, 2)

    def test_already_standard(self):
        assert map_to_tau(word_map((1, 1))) == (1, 1)

    def test_empty(self):
        assert map_to_tau(word_map(())) == ()

    @given(words, incmaps)
    def test_output_weakly_increasing(self, w, rho):
        for out in (map_to_tau(word_map(w)), map_to_tau(rho)):
            assert all(a <= b for a, b in zip(out, out[1:]))

    @given(words)
    def test_idempotent_and_length_preserving(self, w):
        out = map_to_tau(word_map(w))
        assert len(out) == len(w)
        assert map_to_tau(word_map(out)) == out

    @given(words)
    def test_same_action(self, w):
        a, b = word_map(w), word_map(map_to_tau(word_map(w)))
        assert all(a(i) == b(i) for i in range(64))


class TestWordMapBijection:
    def test_single_generator(self):
        rho = word_map((2,))
        assert rho == tau(2)
        assert [rho(i) for i in range(4)] == [0, 1, 3, 4]

    def test_identity_both_ways(self):
        assert word_map(()) == IDENTITY
        assert map_to_tau(IDENTITY) == ()

    def test_image_complement(self):
        rho = word_map((1, 2))
        image = {rho(i) for i in range(10)}
        complement = set(range(max(image) + 1)) - image
        assert complement == {1, 3}

    @given(incmaps)
    def test_map_round_trip(self, rho):
        assert word_map(map_to_tau(rho)) == rho

    @given(words)
    def test_word_round_trip(self, w):
        standard = map_to_tau(word_map(w))
        assert map_to_tau(word_map(standard)) == standard

    @given(incmaps, incmaps)
    def test_word_key_orders_as_values(self, a, b):
        # the self-pair mirror check and the signature tie-break rely on it
        below = word_key(a) < word_key(b)
        assert below == ([a(i) for i in range(14)] < [b(i) for i in range(14)])
        assert below == ([-j for j in map_to_tau(a)] < [-j for j in map_to_tau(b)])


class TestIncreasingMaps:
    def test_singletons(self):
        maps = list(increasing_maps(1, 2))
        assert len(maps) == 2
        assert sorted(m(0) for m in maps) == [0, 1]

    def test_binomial_count(self):
        assert len(list(increasing_maps(2, 4))) == 6

    def test_empty_domain(self):
        assert list(increasing_maps(0, 5)) == [IDENTITY]

    def test_error_when_too_narrow(self):
        with pytest.raises(ValueError):
            next(increasing_maps(3, 2))


class TestExtendPartial:
    def test_empty_constraints(self):
        assert extend_partial((), ()) == IDENTITY

    def test_minimal_fill(self):
        rho = extend_partial((1, 3), (2, 5))
        assert rho is not None
        assert rho(1) == 2 and rho(3) == 5
        # unconstrained positions take the smallest increasing values
        assert rho(0) == 0 and rho(2) == 3

    def test_infeasible(self):
        assert extend_partial((0, 2), (5, 6)) is None

    @given(incmaps, incmaps)
    def test_recovers_factor(self, a, b):
        # a o b can always be factored back through b at b's image points
        c = compose(a, b)
        span = max((*a.starts, *b.starts), default=0) + 3
        sources = tuple(b(i) for i in range(span))
        targets = tuple(c(i) for i in range(span))
        rho = extend_partial(sources, targets)
        assert rho is not None
        assert all(rho(s) == t for s, t in zip(sources, targets))


def test_apply_compose_sampled_bulk():
    rng = random.Random(7)
    for _ in range(2000):
        a, b = random_incmap(rng), random_incmap(rng)
        i = rng.randrange(10_000)
        assert compose(a, b)(i) == a(b(i))


def dense_apply(values, i):
    """A map stored densely, as its values on a prefix, step 1 beyond."""
    if i < len(values):
        return values[i]
    return values[-1] + i - len(values) + 1 if values else i


def reference_extend_partial(sources, targets):
    """``extend_partial`` as it was with dense storage: the values up to the
    last source, or None."""
    if not sources:
        return ()
    values = []
    prev = -1
    pos = 0
    for i in range(sources[-1] + 1):
        if pos < len(sources) and sources[pos] == i:
            v = targets[pos]
            if v <= prev:
                return None
            pos += 1
        else:
            v = prev + 1
            if pos < len(sources) and v > targets[pos] - (sources[pos] - i):
                return None
        values.append(v)
        prev = v
    return tuple(values)


def reference_compose(a, b):
    """``compose`` as it was with dense storage, on value tuples."""
    return tuple(dense_apply(a, dense_apply(b, i)) for i in range(len(a) + len(b) + 1))


value_tuples = st.sets(st.integers(min_value=0, max_value=12), max_size=5).map(sorted).map(tuple)
point_sets = st.sets(st.integers(min_value=0, max_value=12), max_size=5).map(sorted).map(tuple)


class TestDenseOracles:
    @settings(max_examples=300, deadline=None)
    @given(value_tuples, value_tuples)
    def test_compose_matches_dense(self, a, b):
        c, dense = compose(IncMap(a), IncMap(b)), reference_compose(a, b)
        assert all(c(i) == dense_apply(dense, i) for i in range(40))

    @settings(max_examples=300, deadline=None)
    @given(point_sets, st.lists(st.integers(min_value=0, max_value=16), min_size=5, max_size=5))
    def test_extend_partial_matches_dense(self, sources, raw):
        targets = tuple(sorted(raw))[: len(sources)]
        rho, dense = extend_partial(sources, targets), reference_extend_partial(sources, targets)
        assert (rho is None) == (dense is None)
        if rho is not None:
            assert all(rho(i) == dense_apply(dense, i) for i in range(40))


BIG = 10**6


class TestHostileIndices:
    """Large indices cost breakpoints, not entries: each map below is stored
    in one or two breakpoints."""

    def test_extend_partial_shift_by_one_far_out(self):
        rho = extend_partial((BIG,), (BIG + 1,))
        assert (rho.starts, rho.shifts) == ((BIG,), (0, 1))
        assert (rho(BIG - 1), rho(BIG), rho(BIG + 5)) == (BIG - 1, BIG + 1, BIG + 6)

    def test_extend_partial_long_jump(self):
        rho = extend_partial((0,), (BIG,))
        assert (rho.starts, rho.shifts) == ((0,), (0, BIG))
        assert rho(3) == BIG + 3

    def test_compose(self):
        far, jump = extend_partial((BIG,), (BIG + 1,)), extend_partial((0,), (BIG,))
        for a, b in ((far, jump), (jump, far), (far, far), (jump, jump)):
            c = compose(a, b)
            assert len(c.starts) <= 2
            for i in (0, 1, BIG - 1, BIG, BIG + 1, 3 * BIG):
                assert c(i) == a(b(i))

    def test_cover(self):
        # entries at the shift i -> i + BIG reach targets at i -> i + BIG + 1
        # through the one-breakpoint quotient at BIG, which moves x[BIG] onto
        # x[BIG + 1]; the test never walks the indices below
        far, jump = extend_partial((BIG,), (BIG + 1,)), extend_partial((0,), (BIG,))
        shift = compose(far, jump)
        engine = SigEngine(X_RING)
        engine.new_index(xmono(0))

        def covered(mono, lead, C):
            sig = Signature(TwistedMonomial(mono, shift), 0)
            return is_covered(JPair(sig, None, lead, None, IDENTITY, Monomial()), C, engine)

        syzygy, element = {}, {}
        add_cover(syzygy, Signature(TwistedMonomial(xmono(BIG), jump), 0))
        add_cover(element, Signature(TwistedMonomial(xmono(BIG), jump), 0), xmono(BIG))
        assert covered(xmono(3, BIG + 1), xmono(0), syzygy)
        assert not covered(xmono(3, BIG), xmono(0), syzygy)  # x[BIG + 1] does not divide
        # the element's lead moves to x[3] x[BIG + 1], below x[3] x[BIG + 2]; a tie covers nothing
        assert covered(xmono(3, BIG + 1), xmono(3, BIG + 2), element)
        assert not covered(xmono(3, BIG + 1), xmono(3, BIG + 1), element)

    def test_shift_quotient(self):
        base = extend_partial((0,), (BIG,))
        target = compose(extend_partial((BIG,), (BIG + 1,)), base)
        st = _shift_quotient(target, base)
        assert len(st.starts) == 1
        assert compose(st, base) == target

    def test_pi_divides(self):
        rho = pi_divides(xmono(BIG), xmono(BIG + 1, 3))
        assert (rho.starts, rho.shifts) == ((BIG,), (0, 1))
        assert m_act(rho, xmono(BIG)) == xmono(BIG + 1)
