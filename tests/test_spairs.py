"""Interlacings and the finite generating sets of critical-pair modules."""

import itertools
import random
import time
from fractions import Fraction

from incgb import spairs
from incgb.incmaps import IDENTITY, IncMap, compose, increasing_maps
from incgb.poly import lm, poly
from incgb.rings import FamilySpec, Monomial, Ring, m_act, m_lcm, m_mul, m_quotient
from incgb.spairs import interlacings, spair_generators

from conftest import xmono

X = Ring((FamilySpec("x"),))


def p(*terms):
    return poly(X, [(Fraction(c), m) for c, m in terms])


def filter_interlacings(wf, wg):
    """Reference: every pair of images, kept when they jointly cover {0..k-1}."""
    out = []
    for k in range(max(wf, wg), wf + wg + 1):
        full = frozenset(range(k))
        for a in itertools.combinations(range(k), wf):
            for b in itertools.combinations(range(k), wg):
                if frozenset(a) | frozenset(b) == full:
                    out.append((IncMap(a), IncMap(b)))
    return out


class TestInterlacings:
    def test_trivial(self):
        assert list(interlacings(0, 0)) == [(IncMap(()), IncMap(()))]

    def test_one_one(self):
        pairs = set(interlacings(1, 1))
        assert pairs == {(IDENTITY, IDENTITY), (IDENTITY, IncMap((1,))), (IncMap((1,)), IDENTITY)}

    def test_images_jointly_initial(self):
        for wf, wg in [(1, 2), (2, 2), (2, 3)]:
            for a, b in interlacings(wf, wg):
                image = {a(i) for i in range(wf)} | {b(j) for j in range(wg)}
                assert image == set(range(len(image)))

    def test_count_matches_brute_force(self):
        # brute force: choose images of both maps inside a window, keep the
        # jointly-initial ones
        for wf, wg in [(1, 1), (1, 2), (2, 2)]:
            n = wf + wg
            brute = 0
            for a in itertools.combinations(range(n), wf):
                for b in itertools.combinations(range(n), wg):
                    united = set(a) | set(b)
                    if united == set(range(len(united))):
                        brute += 1
            assert len(list(interlacings(wf, wg))) == brute

    def test_order_matches_filter_oracle(self):
        for wf in range(6):
            for wg in range(6):
                assert list(interlacings(wf, wg)) == filter_interlacings(wf, wg), (wf, wg)

    def test_wide_first_draw_is_linear(self):
        # what f's image misses is read against a set of the image, so one
        # draw is linear in the width, not quadratic
        n = 10**5
        start = time.perf_counter()
        first = next(interlacings(n, n))
        assert time.perf_counter() - start < 1
        assert first == (IncMap(tuple(range(n))), IncMap(tuple(range(n))))

    def test_no_filter(self, monkeypatch):
        # built, not filtered: one tuple per f image plus one per result
        drawn = [0]
        real = itertools.combinations

        def counting(*args):
            for c in real(*args):
                drawn[0] += 1
                yield c

        monkeypatch.setattr(spairs.itertools, "combinations", counting)
        result = list(interlacings(6, 6))
        assert len(result) == 8989
        assert drawn[0] <= 2 * len(result)


class TestSpairGenerators:
    def test_self_pair_of_linear_binomial(self):
        f = p((1, xmono(0)), (-1, Monomial()))  # x0 - 1
        # diagonal skipped, mirror deduplicated, disjoint images coprime
        assert list(spair_generators(f, f, 0, 0, coprime_filter=True)) == []
        assert len(list(spair_generators(f, f, 0, 0, coprime_filter=False))) == 1

    def test_self_pair_cases(self):
        # x[0] has no index to spare, and its self-pairs are all coprime
        narrow = p((1, xmono(0)))
        assert list(spair_generators(narrow, narrow, 0, 0)) == []
        # x[2]*x[1]*x[0] uses every index below its width, but the identity
        # and the map skipping 2 both fix x[1] and x[0]
        full = p((1, xmono(2, 1, 0)), (-1, Monomial()))
        assert any(
            gen.map1 == IncMap(()) and gen.map2 == IncMap((0, 1, 3))
            for gen in spair_generators(full, full, 0, 0)
        )

    def test_coprime_filter_drops_all(self):
        f = p((1, xmono(0)))
        g = p((1, xmono(0, 0)))
        kept = list(spair_generators(f, g, 0, 1, coprime_filter=True))
        dropped_from = list(spair_generators(f, g, 0, 1, coprime_filter=False))
        # every interlacing where the two leads share no index is dropped
        assert all(not gen.overlap.is_unit for gen in kept)
        assert len(kept) < len(dropped_from)

    def test_overlap_equation(self):
        rng = random.Random(9)
        f = p((1, xmono(0, 1)), (-1, xmono(0)))
        g = p((1, xmono(0, 0)), (1, Monomial()))
        for gen in spair_generators(f, g, 0, 1, coprime_filter=False):
            left = m_mul(gen.cof1, m_act(gen.map1, lm(f)))
            right = m_mul(gen.cof2, m_act(gen.map2, lm(g)))
            assert left == gen.overlap == right
            assert gen.overlap == m_lcm(m_act(gen.map1, lm(f)), m_act(gen.map2, lm(g)))

    def test_generation_oracle_small(self):
        # every equal-lead multiplier pair within a small window factors
        # through some generator via the diagonal action
        f = p((1, xmono(0, 1)), (-1, xmono(0)))
        g = p((1, xmono(0, 0)), (1, Monomial()))
        gens = list(spair_generators(f, g, 0, 1, coprime_filter=False))
        n = 4
        for s1 in increasing_maps(f.width(), n):
            for s2 in increasing_maps(g.width(), n):
                l1, l2 = m_act(s1, lm(f)), m_act(s2, lm(g))
                overlap = m_lcm(l1, l2)
                factored = False
                for gen in gens:
                    for rho in increasing_maps(gen.overlap.width(), n + 2):
                        c1 = compose(rho, gen.map1)
                        c2 = compose(rho, gen.map2)
                        # equality matters only on each generator's domain
                        if all(c1(i) == s1(i) for i in range(f.width())) and all(
                            c2(i) == s2(i) for i in range(g.width())
                        ):
                            moved = m_act(rho, gen.overlap)
                            # the brute pair's overlap is a plain multiple
                            # of the shifted generator overlap
                            if all(
                                overlap.exponent(v) >= e for v, e in moved.factors
                            ):
                                factored = True
                                break
                    if factored:
                        break
                assert factored, (s1, s2)

    def test_zero_input_rejected(self):
        import pytest

        pairs = spair_generators(p((1, xmono(0))), poly(X, []), 0, 1)
        with pytest.raises(ValueError):
            next(pairs)
