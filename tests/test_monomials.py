"""Monomials, the index-shift action, divisibility, and monomial orders."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgb import rings
from incgb.incmaps import IDENTITY, IncMap, compose, extend_partial
from incgb.rings import (
    FamilySpec,
    Monomial,
    Ring,
    m_act,
    m_divides,
    m_lcm,
    m_mul,
    m_quotient,
    order_key,
    pi_divides,
    prepare_lead,
    prepared_witnesses,
    term_profile,
)

from conftest import order_sign, random_incmap, random_xmono, xmono, xvar

X = Ring((FamilySpec("x"),))
XG = Ring((FamilySpec("x"),), order_kind="grlex")
XY = Ring(
    (
        FamilySpec("x", weight=1),
        FamilySpec("y", arity=2, constraint="strictly_decreasing", weight=2),
    )
)


XYG = Ring(XY.families, order_kind="grlex")


def yvar(i, j):
    return XY.variable("y", (i, j))


def ymono(*pairs):
    exps = {}
    for i, j in pairs:
        exps[yvar(i, j)] = exps.get(yvar(i, j), 0) + 1
    return Monomial.from_dict(exps)


class TestWidth:
    def test_unit(self):
        assert Monomial().width() == 0

    def test_two_variables(self):
        assert xmono(0, 1).width() == 2

    def test_mixed_families(self):
        m = m_mul(ymono((3, 1)), Monomial.from_dict({xvar(5): 2}))
        assert m.width() == 6


class TestAct:
    def test_identity(self):
        m = xmono(0, 1, 1)
        assert m_act(IDENTITY, m) == m

    def test_direct_substitution(self):
        assert m_act(IncMap((1, 3)), xmono(0, 1, 1)) == xmono(1, 3, 3)

    def test_entrywise_on_tuples(self):
        assert m_act(IncMap((0, 2)), ymono((1, 0))) == ymono((2, 0))

    def test_constraints_preserved(self):
        # increasing maps keep strictly decreasing index tuples valid
        m = m_act(IncMap((2, 5)), ymono((1, 0)))
        ((_, indices), _e) = m.factors[0]
        assert indices[0] > indices[1]

    def test_action_composes(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = random_incmap(rng), random_incmap(rng)
            m = random_xmono(rng)
            assert m_act(compose(a, b), m) == m_act(a, m_act(b, m))

    def test_in_place_oracle(self):
        # m_act maps the factors in place; the reference rebuilds and sorts
        # them, as m_act did before relying on the action keeping the order
        def reference(rho, m):
            exps = {}
            for (rank, idx), e in m.factors:
                v = (rank, tuple(rho(i) for i in idx))
                exps[v] = exps.get(v, 0) + e
            return Monomial.from_dict(exps)

        families = tuple(
            FamilySpec(f"v{arity}{k}", arity, c)
            for arity in (1, 2, 3)
            for k, c in enumerate(rings.CONSTRAINTS)
        )
        ring = Ring(families)
        rng = random.Random(29)

        def variable():
            fam = rng.choice(families)
            if fam.constraint == "none":
                idx = [rng.randrange(6) for _ in range(fam.arity)]
            else:
                idx = rng.sample(range(6), fam.arity)
                if fam.constraint != "all_distinct":
                    idx.sort(reverse=fam.constraint == "strictly_decreasing")
            return ring.variable(fam.name, idx)

        for _ in range(2000):
            exps = {variable(): rng.randrange(1, 4) for _ in range(rng.randrange(5))}
            m = Monomial.from_dict(exps)
            rho = random_incmap(rng)
            assert m_act(rho, m) == reference(rho, m)


class TestPlainDivisibility:
    def test_unit_divides(self):
        assert m_divides(Monomial(), xmono(0, 3))

    def test_exponent_blocked(self):
        assert not m_divides(xmono(0, 0), xmono(0, 1))

    def test_lcm(self):
        assert m_lcm(xmono(0, 1), xmono(1, 1)) == xmono(0, 1, 1)

    def test_quotient_error(self):
        with pytest.raises(ValueError):
            m_quotient(xmono(1), xmono(0))

    def test_lcm_gcd_product(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = random_xmono(rng), random_xmono(rng)
            lcm = m_lcm(a, b)
            # lcm * gcd == a * b, with gcd recovered as a*b / lcm
            assert m_mul(m_quotient(m_mul(a, b), lcm), lcm) == m_mul(a, b)


def brute_pi_witnesses(a, b):
    """All increasing maps (restricted to a's indices) sending a into b."""
    ai = a.indices()
    bi = b.indices()
    if not ai:
        return [IDENTITY]
    found = []
    for targets in itertools.combinations(bi, len(ai)):
        rho_vals = dict(zip(ai, targets))
        full = _extend(ai, targets)
        if full is not None and m_divides(m_act(full, a), b):
            found.append(full)
    return found


def _extend(sources, targets):
    from incgb.incmaps import extend_partial

    return extend_partial(tuple(sources), tuple(targets))


class TestPiDivides:
    def test_unit(self):
        assert pi_divides(Monomial(), xmono(4)) == IDENTITY

    def test_shifted_square(self):
        rho = pi_divides(xmono(0, 1), m_mul(xmono(2), xmono(3, 3)))
        assert rho is not None and rho(0) == 2 and rho(1) == 3

    def test_y_family_witness(self):
        # both y-factors admit a witness; the lex-smallest image wins
        rho = pi_divides(ymono((1, 0)), ymono((3, 1), (2, 0)))
        assert rho is not None and (rho(0), rho(1)) == (0, 2)
        lead, term = prepare_lead(ymono((1, 0))), term_profile(ymono((3, 1), (2, 0)))
        witnesses = prepared_witnesses(lead, term)
        images = [(w(0), w(1)) for w in witnesses]
        assert images == [(0, 2), (1, 3)]

    def test_no_witness(self):
        assert pi_divides(xmono(0, 0), xmono(3)) is None

    def test_witness_is_lex_smallest(self):
        rho = pi_divides(xmono(0), xmono(1, 4))
        assert rho(0) == 1

    def test_brute_force_oracle_width4_degree4(self):
        # all x-monomial pairs of width <= 4 and degree <= 4
        monos = [
            xmono(*combo)
            for d in range(5)
            for combo in itertools.combinations_with_replacement(range(4), d)
        ]
        for a in monos:
            for b in monos:
                brute = brute_pi_witnesses(a, b)
                rho = pi_divides(a, b)
                assert (rho is not None) == bool(brute)
                if brute:
                    images = sorted(tuple(w(i) for i in a.indices()) for w in brute)
                    assert tuple(rho(i) for i in a.indices()) == images[0]

    def test_witnesses_enumeration(self):
        ws = list(prepared_witnesses(prepare_lead(xmono(0)), term_profile(xmono(1, 4))))
        assert sorted(w(0) for w in ws) == [1, 4]
        assert list(prepared_witnesses(prepare_lead(xmono(0, 0)), term_profile(xmono(3)))) == []
        unit = Monomial()
        assert list(prepared_witnesses(prepare_lead(unit), term_profile(unit))) == [IDENTITY]


class TestWitnessOracle:
    """The witness order of ``prepared_witnesses`` against the enumeration over
    index combinations.

    ``brute_pi_witnesses`` is the enumeration the witness search ran before
    the backtracking matcher: every combination of b's indices, extended
    minimally, kept when the image of a divides b.
    """

    @pytest.mark.parametrize("constraint", ["strictly_decreasing", "all_distinct"])
    def test_ordered_witnesses_over_two_families(self, constraint):
        ring = Ring((FamilySpec("x"), FamilySpec("y", arity=2, constraint=constraint)))
        rng = random.Random(23)

        def variable():
            if rng.random() < 0.4:
                return ring.variable("x", (rng.randrange(6),))
            i, j = rng.sample(range(6), 2)
            if constraint == "strictly_decreasing" and i < j:
                i, j = j, i
            return ring.variable("y", (i, j))

        def monomial(size):
            return Monomial.from_dict(
                {variable(): rng.randrange(1, 3) for _ in range(rng.randrange(size + 1))}
            )

        pairs = [(Monomial(), Monomial()), (Monomial(), monomial(4)), (monomial(4), Monomial())]
        for _ in range(1200):
            a = monomial(3)
            roll = rng.random()
            if roll < 0.1:
                b = a
            elif roll < 0.55:
                b = m_mul(m_act(random_incmap(rng), a), monomial(3))
            else:
                b = monomial(5)
            pairs.append((a, b))
        hits = 0
        for a, b in pairs:
            expected = brute_pi_witnesses(a, b)
            assert list(prepared_witnesses(prepare_lead(a), term_profile(b))) == expected
            assert pi_divides(a, b) == (expected[0] if expected else None)
            hits += bool(expected)
        assert hits >= 0.3 * len(pairs)

    @pytest.mark.parametrize("y_constraint", ["none", "strictly_decreasing", "all_distinct"])
    def test_prepared_search_over_three_families(self, y_constraint):
        # x, y of arity 2 and z of arity 3 (no constraint, so repeated
        # indices), exponents 1-3: the search on a lead preparation and a term
        # profile yields exactly the brute-force witnesses, in order, and no
        # pair its necessary tests reject has a witness
        ring = Ring(
            (FamilySpec("x"), FamilySpec("y", 2, y_constraint), FamilySpec("z", 3))
        )
        rng = random.Random(29)

        def variable():
            roll = rng.random()
            if roll < 0.35:
                return ring.variable("x", (rng.randrange(6),))
            if roll < 0.75 and y_constraint != "none":
                idx = rng.sample(range(6), 2)
                if y_constraint == "strictly_decreasing":
                    idx.sort(reverse=True)
                return ring.variable("y", tuple(idx))
            name, arity = ("y", 2) if roll < 0.75 else ("z", 3)
            return ring.variable(name, tuple(rng.randrange(4) for _ in range(arity)))

        def monomial(size):
            return Monomial.from_dict(
                {variable(): rng.randrange(1, 4) for _ in range(rng.randrange(size + 1))}
            )

        pairs = [(Monomial(), Monomial()), (Monomial(), monomial(4)), (monomial(3), Monomial())]
        for _ in range(1000):
            a = monomial(3)
            roll = rng.random()
            if roll < 0.1:
                b = a
            elif roll < 0.45:
                b = m_mul(m_act(random_incmap(rng), a), monomial(3))
            elif roll < 0.75:
                # a's factors split in two and each part shifted on its own:
                # the shapes match, a common map often does not exist
                cut = rng.randrange(len(a.factors) + 1)
                parts = Monomial(a.factors[:cut]), Monomial(a.factors[cut:])
                b = m_mul(*(m_act(random_incmap(rng), part) for part in parts))
            else:
                b = monomial(5)
            pairs.append((a, b))
        seen = {"hit": 0, "rejected": 0, "searched in vain": 0}
        for a, b in pairs:
            lead, term = rings.prepare_lead(a), rings.term_profile(b)
            expected = brute_pi_witnesses(a, b)
            assert list(rings.prepared_witnesses(lead, term)) == expected
            assert list(prepared_witnesses(prepare_lead(a), term_profile(b))) == expected
            if a.is_unit:
                continue
            if not rings._admits(lead, term):
                assert expected == []
                seen["rejected"] += 1
            else:
                seen["hit" if expected else "searched in vain"] += 1
        assert min(seen.values()) >= 40

    def test_no_enumeration(self, monkeypatch):
        # one map is built per witness, none per rejected combination
        built = []

        def counting(sources, targets):
            built.append(targets)
            return extend_partial(sources, targets)

        monkeypatch.setattr(rings, "extend_partial", counting)
        a, b = ymono((1, 0)), ymono((3, 1), (2, 0), (5, 4))
        ws = list(prepared_witnesses(prepare_lead(a), term_profile(b)))
        assert [(w(0), w(1)) for w in ws] == [(0, 2), (1, 3), (4, 5)]
        assert len(built) == len(ws)
        built.clear()
        assert pi_divides(a, b) == ws[0]
        assert len(built) <= 1


class TestCompare:
    def test_lex_indices(self):
        assert order_sign(X, xmono(0), xmono(1)) == -1

    def test_grlex_degree_first(self):
        assert order_sign(XG, xmono(0, 1), xmono(2)) == 1

    def test_reflexive(self):
        m = xmono(0, 2)
        assert order_sign(X, m, m) == 0

    def test_family_precedence(self):
        # x precedes y, so any x-variable beats any y-variable under lex
        assert order_sign(XY, xmono(0), ymono((5, 2))) == 1

    def test_grlex_weights_off(self):
        # use_weights false: the degree, and so the grlex key, count each
        # variable once, whatever its family's weight
        y3 = FamilySpec("y", arity=2, constraint="strictly_decreasing", weight=3)
        families = (XY.families[0], y3)
        weighted = Ring(families, order_kind="grlex")
        unweighted = Ring(families, order_kind="grlex", use_weights=False)
        y, xx = ymono((1, 0)), xmono(1, 1)
        assert (y.degree(weighted), xx.degree(weighted)) == (3, 2)
        assert (y.degree(unweighted), xx.degree(unweighted)) == (1, 2)
        assert order_key(unweighted, y) == (1, y.factors)
        assert order_sign(weighted, y, xx) == 1
        assert order_sign(unweighted, y, xx) == -1


class TestOrderOracle:
    """order_key against a dense definition of lex and grlex."""

    N = 4
    # every variable with indices below N, greatest first: x before y,
    # larger index tuples first within a family
    VARIABLES = [XY.variable("x", (i,)) for i in reversed(range(N))] + [
        XY.variable("y", (i, j)) for i in reversed(range(N)) for j in reversed(range(i))
    ]

    def _dense(self, ring, m):
        exps = dict(m.factors)
        vec = tuple(exps.get(v, 0) for v in self.VARIABLES)
        if ring.order_kind == "lex":
            return vec
        weights = [ring.family_of(v).weight for v in self.VARIABLES]
        return (sum(w * e for w, e in zip(weights, vec)), vec)

    def _random(self, rng):
        return Monomial.from_dict(
            {rng.choice(self.VARIABLES): rng.randrange(1, 4) for _ in range(rng.randrange(5))}
        )

    @pytest.mark.parametrize("ring", [XY, XYG], ids=["lex", "grlex"])
    def test_matches_dense_exponent_vectors(self, ring):
        rng = random.Random(9)
        for _ in range(2000):
            a, b = self._random(rng), self._random(rng)
            da, db = self._dense(ring, a), self._dense(ring, b)
            assert order_sign(ring, a, b) == (da > db) - (da < db)


class TestOrderAxioms:
    def _sample(self, rng):
        return random_xmono(rng), random_xmono(rng), random_incmap(rng)

    @pytest.mark.parametrize("ring", [X, XG], ids=["lex", "grlex"])
    def test_equivariance(self, ring):
        rng = random.Random(5)
        for _ in range(1500):
            a, b, rho = self._sample(rng)
            assert order_sign(ring, a, b) == order_sign(ring, m_act(rho, a), m_act(rho, b))

    @pytest.mark.parametrize("ring", [X, XG], ids=["lex", "grlex"])
    def test_multiplicativity(self, ring):
        rng = random.Random(6)
        for _ in range(1500):
            a, b, _ = self._sample(rng)
            c = random_xmono(rng)
            assert order_sign(ring, a, b) == order_sign(ring, m_mul(a, c), m_mul(b, c))

    @pytest.mark.parametrize("ring", [X, XG], ids=["lex", "grlex"])
    def test_divisibility_refinement(self, ring):
        rng = random.Random(7)
        for _ in range(1500):
            a, b, _ = self._sample(rng)
            if a != b and pi_divides(a, b) is not None:
                assert order_sign(ring, a, b) == -1

    @pytest.mark.parametrize("ring", [X, XG], ids=["lex", "grlex"])
    def test_total_and_antisymmetric(self, ring):
        rng = random.Random(8)
        for _ in range(1000):
            a, b, _ = self._sample(rng)
            c = order_sign(ring, a, b)
            assert c in (-1, 0, 1)
            assert c == -order_sign(ring, b, a)
            assert (c == 0) == (a == b)


def reference_var_key(ring, var):
    """``var_key`` as it was before variables were stored as their own sort
    keys: the family's precedence rank, negated, then the index tuple."""
    return (-ring.rank_of(ring.family_of(var).name), var[1])


def reference_from_dict(ring, exps):
    """``Monomial.from_dict`` with its ``var_key`` sort."""
    items = [(v, e) for v, e in exps.items() if e != 0]
    items.sort(key=lambda it: reference_var_key(ring, it[0]), reverse=True)
    return Monomial(tuple(items))


def reference_m_mul(ring, a, b):
    """``m_mul`` through an exponent dict, re-sorted."""
    exps = dict(a.factors)
    for v, e in b.factors:
        exps[v] = exps.get(v, 0) + e
    return reference_from_dict(ring, exps)


def reference_m_divides(a, b):
    """``m_divides`` by exponent lookups."""
    exps = dict(b.factors)
    return all(exps.get(v, 0) >= e for v, e in a.factors)


def reference_m_quotient(ring, b, a):
    """``m_quotient`` through an exponent dict, re-sorted."""
    exps = dict(b.factors)
    for v, e in a.factors:
        rem = exps.get(v, 0) - e
        if rem < 0:
            raise ValueError("quotient of non-divisor")
        exps[v] = rem
    return reference_from_dict(ring, exps)


def reference_m_lcm(ring, a, b):
    """``m_lcm`` through an exponent dict, re-sorted."""
    exps = dict(a.factors)
    for v, e in b.factors:
        exps[v] = max(exps.get(v, 0), e)
    return reference_from_dict(ring, exps)


def reference_order_key(ring, m):
    """``order_key`` rebuilt from ``var_key`` factor by factor."""
    key = tuple((reference_var_key(ring, v), e) for v, e in m.factors)
    if ring.order_kind == "grlex":
        return (sum(e * ring.family_of(v).weight for v, e in m.factors), key)
    return key


def _merge_rings():
    x = FamilySpec("x")
    y = FamilySpec("y", arity=2, constraint="strictly_decreasing", weight=2)
    z = FamilySpec("z", weight=3)
    return [
        Ring(families, order_kind=kind)
        for families in ((x,), (y, x), (x, z, y))
        for kind in ("lex", "grlex")
    ]


@st.composite
def _ring_monomial(draw, ring):
    exps = {}
    for _ in range(draw(st.integers(0, 5))):
        fam = draw(st.sampled_from(ring.families))
        if fam.arity == 1:
            idx = (draw(st.integers(0, 4)),)
        else:
            i = draw(st.integers(1, 4))
            idx = (i, draw(st.integers(0, i - 1)))
        v = ring.variable(fam.name, idx)
        exps[v] = exps.get(v, 0) + draw(st.integers(1, 3))
    return reference_from_dict(ring, exps)


def _sign(a, b):
    return (a > b) - (a < b)


class TestMergeOracle:
    """The merged monomial arithmetic and the stored-key order against the
    dict-and-sort operations and the ``var_key`` order they replaced, on
    rings of one, two and three families."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(_merge_rings()), st.data())
    def test_matches_reference(self, ring, data):
        a = data.draw(_ring_monomial(ring))
        b = data.draw(_ring_monomial(ring))
        if data.draw(st.booleans()):  # make a divide b
            b = reference_m_mul(ring, a, b)
        assert Monomial.from_dict(dict(a.factors)) == a
        assert m_mul(a, b) == reference_m_mul(ring, a, b)
        assert m_lcm(a, b) == reference_m_lcm(ring, a, b)
        for num, den in ((b, a), (a, b)):
            assert m_divides(den, num) == reference_m_divides(den, num)
            try:
                expected = reference_m_quotient(ring, num, den)
            except ValueError:
                with pytest.raises(ValueError):
                    m_quotient(num, den)
            else:
                assert m_quotient(num, den) == expected
        expected = _sign(reference_order_key(ring, a), reference_order_key(ring, b))
        assert _sign(order_key(ring, a), order_key(ring, b)) == expected
