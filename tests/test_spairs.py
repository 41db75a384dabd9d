"""Interlacings and the finite generating sets of critical-pair modules."""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from incgb import spairs
from incgb.buchberger import EngineLimits, egb_buchberger, egb_incremental
from incgb.incmaps import IDENTITY, IncMap, compose, increasing_maps, word_key
from incgb.poly import act, lm, poly
from incgb.problems import parse
from incgb.rings import CONSTRAINTS, FamilySpec, Monomial, Ring, m_act, m_lcm, m_mul, m_quotient
from incgb.signature import egb_signature
from incgb.spairs import SPairGen, interlacings, spair_generators

from conftest import expr, xmono

X = Ring((FamilySpec("x"),))
GOLDEN = Path(__file__).parent / "golden"


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


def reference_spair_generators(f, g, fi=0, gi=1, coprime_filter=True):
    """Reference: every interlacing built as two maps, its leads moved and
    compared as monomials, then filtered."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-pairs need nonzero polynomials")
    for s1, s2 in interlacings(f.width(), g.width()):
        if fi == gi and word_key(s1) >= word_key(s2):
            continue
        lf = m_act(s1, lm(f))
        lg = m_act(s2, lm(g))
        if coprime_filter and {v for v, _ in lf.factors}.isdisjoint(v for v, _ in lg.factors):
            continue
        overlap = m_lcm(lf, lg)
        yield SPairGen(fi, gi, s1, s2, m_quotient(overlap, lf), m_quotient(overlap, lg), overlap)


def distinct_pairs(gens, f, g):
    """Reference: the first generator of each distinct pair of shifted
    polynomials, built with ``act``; a self-pair's two shifts are taken
    unordered, and a self-pair of equal shifts is dropped."""
    seen = set()
    for gen in gens:
        pair = act(gen.map1, f), act(gen.map2, g)
        if gen.fi == gen.gi:
            if pair[0] == pair[1]:
                continue
            pair = frozenset(pair)
        if pair not in seen:
            seen.add(pair)
            yield gen


def reference_pair_source(f, g, fi, gi):
    """What ``spair_generators`` yields: each distinct shifted pair of
    productive interlacings once."""
    return list(distinct_pairs(reference_spair_generators(f, g, fi, gi), f, g))


def random_monomial(rng, ring, width):
    """Up to three variables, every index below ``width``: the unit at 0."""
    exps = {}
    for _ in range(rng.randrange(4) if width else 0):
        family = rng.choice(ring.families)
        idx = tuple(rng.randrange(width) for _ in range(family.arity))
        if family.check_indices(idx) is None:
            var = ring.variable(family.name, idx)
            exps[var] = exps.get(var, 0) + rng.randrange(1, 3)
    return Monomial.from_dict(exps)


def random_polynomial(rng, ring, width):
    """A nonzero polynomial with indices below ``width``; a constant at 0."""
    terms = [(Fraction(rng.choice([-2, -1, 1, 3])), random_monomial(rng, ring, width))]
    terms += [(Fraction(1), random_monomial(rng, ring, width)) for _ in range(rng.randrange(3))]
    f = poly(ring, terms)
    return f if not f.is_zero else poly(ring, [(Fraction(1), Monomial())])


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
        # diagonal skipped, mirror deduplicated, disjoint images coprime:
        # the one interlacing left has coprime leads
        assert list(spair_generators(f, f, 0, 0)) == []
        assert len(list(reference_spair_generators(f, f, 0, 0, coprime_filter=False))) == 1

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
        kept = list(spair_generators(f, g, 0, 1))
        dropped_from = list(reference_spair_generators(f, g, 0, 1, coprime_filter=False))
        # every interlacing where the two leads share no index is dropped
        assert all(not gen.overlap.is_unit for gen in kept)
        assert len(kept) < len(dropped_from)

    def test_overlap_equation(self):
        rng = random.Random(9)
        f = p((1, xmono(0, 1)), (-1, xmono(0)))
        g = p((1, xmono(0, 0)), (1, Monomial()))
        gens = list(spair_generators(f, g, 0, 1))
        assert gens
        for gen in gens:
            left = m_mul(gen.cof1, m_act(gen.map1, lm(f)))
            right = m_mul(gen.cof2, m_act(gen.map2, lm(g)))
            assert left == gen.overlap == right
            assert gen.overlap == m_lcm(m_act(gen.map1, lm(f)), m_act(gen.map2, lm(g)))

    def test_generation_oracle_small(self):
        # every equal-lead multiplier pair within a small window factors
        # through some generator via the diagonal action
        f = p((1, xmono(0, 1)), (-1, xmono(0)))
        g = p((1, xmono(0, 0)), (1, Monomial()))
        gens = list(reference_spair_generators(f, g, 0, 1, coprime_filter=False))
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
                            exps = dict(overlap.factors)
                            if all(exps.get(v, 0) >= e for v, e in moved.factors):
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

    def test_disjoint_family_leads_draw_nothing(self, toric_problem, monkeypatch):
        # leads in different families share no variable under any maps, so
        # under the filter the pair set is empty before any image is drawn
        x7 = expr(toric_problem, "x[7] - x[0]")
        y73 = expr(toric_problem, "y[7,3] - y[1,0]")

        def no_draw(*args):
            raise AssertionError("an interlacing was drawn")

        monkeypatch.setattr(spairs, "_images", no_draw)
        assert list(spair_generators(x7, y73)) == []
        assert list(spair_generators(y73, x7, 1, 0)) == []


def level(gen, wf, wg):
    """The k of a generator's interlacing: the size of its joint image."""
    return len({*map(gen.map1, range(wf)), *map(gen.map2, range(wg))})


class TestIndexTupleDecisions:
    """``spair_generators`` decides each interlacing on its image tuples;
    the maps, moved leads and S-pairs it builds are those of the reference,
    in the same order: the first of each distinct shifted pair."""

    @staticmethod
    def agrees(f, g, fi, gi):
        mine = list(spair_generators(f, g, fi, gi))
        assert mine == reference_pair_source(f, g, fi, gi)
        return len(mine)

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("constraint", [None, *CONSTRAINTS])
    def test_random_polynomials(self, constraint, order_kind):
        # x alone, or x + y under each constraint; widths 0-5, so constant
        # polynomials (unit leads) and leads narrower than their polynomial
        families = (FamilySpec("x"),)
        if constraint is not None:
            families += (FamilySpec("y", arity=2, constraint=constraint),)
        ring = Ring(families, order_kind)
        rng = random.Random(23)
        generated = 0
        for _ in range(60):
            f = random_polynomial(rng, ring, rng.randrange(6))
            g = random_polynomial(rng, ring, rng.randrange(6))
            generated += self.agrees(f, g, 0, 1) + self.agrees(g, f, 1, 0)
            generated += self.agrees(f, f, 0, 0) + self.agrees(g, g, 1, 1)
        assert generated > 1000

    def test_constant_and_unit_leads(self):
        one = p((1, Monomial()))
        unit_lead = p((3, Monomial()))
        x2 = p((1, xmono(2, 0)), (-1, xmono(1)))
        for f, g in [(one, one), (one, x2), (x2, unit_lead), (x2, x2)]:
            self.agrees(f, g, 0, 1)
            self.agrees(f, f, 0, 0)

    @pytest.mark.parametrize("name", ["toric", "member", "wide5"])
    def test_corpus_bases(self, name):
        # every pair of the generators and of each engine's basis
        problem = parse((GOLDEN / f"{name}.egb").read_text())
        limits = EngineLimits(**problem.options)
        basis = list(problem.generators)
        for engine in (egb_buchberger, egb_incremental, egb_signature):
            basis += [g for g in engine(problem.generators, limits).basis if g not in basis]
        generated = 0
        for i, f in enumerate(basis):
            for j in range(i, len(basis)):
                generated += self.agrees(f, basis[j], i, j)
        assert generated > 100

    def test_no_repeated_shifted_pair(self, toric_problem):
        # the pair source yields no shifted pair twice, and no self-pair of
        # equal shifts; the interlacings of the same inputs repeat pairs
        rng = random.Random(29)
        wide = expr(toric_problem, "x[5]*x[0] - x[1]")
        cases = [(wide, wide, 0)]
        for _ in range(40):
            f, g = (random_polynomial(rng, X, rng.randrange(1, 6)) for _k in range(2))
            cases += [(f, g, 1), (f, f, 0)]
        yielded = repeats = 0
        for f, g, gi in cases:
            for filtered in (True, False):
                gens = (
                    spair_generators(f, g, 0, gi)
                    if filtered
                    else reference_spair_generators(f, g, 0, gi, coprime_filter=False)
                )
                pairs = [(act(gen.map1, f), act(gen.map2, g)) for gen in gens]
                keys = [frozenset(pair) if gi == 0 else pair for pair in pairs]
                if filtered:
                    assert len(set(keys)) == len(keys), (f, g)
                    assert gi or all(a != b for a, b in pairs), f
                    yielded += len(keys)
                else:
                    repeats += len(keys) - len(set(keys))
        assert yielded > 500 and repeats > 500

    @pytest.mark.parametrize(
        "f_text, g_text",
        [
            ("x[5]*x[0] - x[1]", None),  # the wide5 self-pair
            ("x[4] - x[0]", "y[4,3] - y[1,0]"),  # coprime under every interlacing
            ("x[3]*x[0] - x[1]", "x[2]*x[1] - 1"),
        ],
    )
    def test_construction_counts(self, toric_problem, f_text, g_text, monkeypatch):
        # maps are built for yielded pairs only, one per f image of a level
        # and one per pair, an S-pair for each yielded pair, and the
        # coprime level k = wf + wg is not drawn
        f = expr(toric_problem, f_text)
        g = f if g_text is None else expr(toric_problem, g_text)
        gi = 0 if g_text is None else 1
        top = f.width() + g.width()
        built = {"maps": 0, "spairs": 0}
        drawn = []
        real_map, real_gen, real_comb = spairs.IncMap, spairs._spair_gen, itertools.combinations

        def counting_map(values=()):
            built["maps"] += 1
            return real_map(values)

        def counting_gen(*args):
            built["spairs"] += 1
            return real_gen(*args)

        def recording(pool, r):
            drawn.append((len(pool) if isinstance(pool, range) else None, r))
            return real_comb(pool, r)

        expected = reference_pair_source(f, g, 0, gi)
        monkeypatch.setattr(spairs, "IncMap", counting_map)
        monkeypatch.setattr(spairs, "_spair_gen", counting_gen)
        monkeypatch.setattr(spairs.itertools, "combinations", recording)
        gens = list(spair_generators(f, g, 0, gi))
        assert gens == expected
        images = {(level(gen, f.width(), g.width()), gen.map1) for gen in gens}
        assert built["maps"] <= len(images) + len(gens)
        assert built["spairs"] == len(gens)
        assert not [d for d in drawn if d[0] == top or d[1] == 0]
