"""Orbit Buchberger engines: direct, incremental, classical, and checks."""

import heapq
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from incgb import buchberger
from incgb import poly as poly_module
from incgb.buchberger import (
    BUDGET,
    COMPLETE,
    EgbResult,
    EngineLimits,
    _spoly,
    autoreduce,
    classical_buchberger,
    egb_buchberger,
    egb_incremental,
    is_egb,
    orbit_truncate,
)
from incgb.incmaps import IDENTITY, increasing_maps
from incgb.poly import (
    act,
    first_reducer,
    lm,
    monic,
    poly,
    reduce_terms,
    reducer_row,
    reducer_table,
    scale,
    sorted_basis,
)
from incgb.problems import format_polynomial, parse
from incgb.rings import (
    FamilySpec,
    Monomial,
    Ring,
    m_act,
    m_lcm,
    m_quotient,
    pi_divides,
    prepare_lead,
    prepared_witnesses,
    term_profile,
)
from incgb.spairs import _spair_gen, spair_generators

from conftest import (
    MEMBER_TEXT,
    MONOMIAL_MAP_TEXT,
    TORIC_TEXT,
    assert_current_preparations,
    checked_chain_update,
    coprime,
    expr,
    ideal_equal,
    random_xmono,
    recorded_searches,
    recorded_normal_form,
    without_chain_criterion,
    xmono,
    xvar,
)
from test_cross_engine import ENGINES, LIMITS, inputs
from test_spairs import reference_spair_generators

X = Ring((FamilySpec("x"),))
GOLDEN = Path(__file__).parent / "golden"


def p(*terms):
    return poly(X, [(Fraction(c), m) for c, m in terms])


def _cnf(f, G):
    """Classical normal form: reduction without the index action."""
    return recorded_normal_form(f, G, False)[0]


def all_pairs_classical(F, limits=EngineLimits()):
    """Reference classical loop, without the Gebauer–Möller update: every
    pair of distinct entries whose leads are not coprime is queued by
    (width, degree, seq) and reduced, under the engine's max_width and
    max_pairs rules."""
    G = list(dict.fromkeys(monic(f) for f in F if not f.is_zero))
    stats = {"pairs_processed": 0, "zero_reductions": 0, "insertions": 0}
    if not G:
        return EgbResult([], stats, COMPLETE)
    ring = G[0].ring
    table = reducer_table(G, False)
    choose = first_reducer(table, False)
    queue = []
    seq = itertools.count()
    over_width = False

    def push_pairs(i, j):
        nonlocal over_width
        if i == j or coprime(lm(G[i]), lm(G[j])):
            return
        gen = _spair_gen(i, j, IDENTITY, IDENTITY, lm(G[i]), lm(G[j]))
        width = gen.overlap.width()
        if width > limits.max_width:
            over_width = True
            return
        heapq.heappush(queue, (width, gen.overlap.degree(ring), next(seq), gen))

    for i in range(len(G)):
        for j in range(i, len(G)):
            push_pairs(i, j)
    while queue:
        gen = heapq.heappop(queue)[-1]
        if limits.max_pairs is not None and stats["pairs_processed"] >= limits.max_pairs:
            return EgbResult(G, stats, BUDGET)
        stats["pairs_processed"] += 1
        h = reduce_terms(ring, _spoly(gen, G), choose)
        if h.is_zero:
            stats["zero_reductions"] += 1
            continue
        G.append(monic(h))
        table.append(reducer_row(len(G) - 1, G[-1], False))
        stats["insertions"] += 1
        for i in range(len(G)):
            push_pairs(i, len(G) - 1)
    if over_width:
        return EgbResult(G, stats, BUDGET)
    return EgbResult(autoreduce(G, False), stats, COMPLETE)


TORIC_REFERENCE = [
    "x[0]*x[1] - y[1,0]",
    "x[2]*y[1,0] - x[1]*y[2,0]",
    "x[2]*y[1,0] - x[0]*y[2,1]",
    "x[1]*y[2,0] - x[0]*y[2,1]",
    "x[0]^2*y[2,1] - y[2,0]*y[1,0]",
    "y[3,2]*y[1,0] - y[3,0]*y[2,1]",
    "y[3,1]*y[2,0] - y[3,0]*y[2,1]",
]

MEMBER_REFERENCE = [
    "x[1]^2*x[0] - 2*x[1]^2 + x[1]*x[0]^2 - 2*x[1]*x[0]",
    "x[1]^3 - x[1]*x[0]^2",
    "x[2]*x[0]^2 - x[1]^2 - x[1]*x[0]",
    "x[2]*x[1] - x[2]*x[0]",
    "x[2]^2 + x[2]*x[0] - x[1]^2 - x[1]*x[0]",
]

# egb_incremental on monomial_map at max_width=4: the interreduced basis of
# the width-4 level, which is_egb rejects, so the run ends in BUDGET
MONOMIAL_MAP_W4_BASIS = [
    "x[1]*x[0]^2 - y[0,1]",
    "x[1]^2*x[0] - y[1,0]",
    "x[1]*y[0,1] - x[0]*y[1,0]",
    "x[0]^3*y[1,0] - y[0,1]^2",
    "x[1]*y[2,0] - x[0]*y[2,1]",
    "x[2]*y[0,1] - x[1]*y[0,2]",
    "x[2]*y[1,0] - x[0]*y[1,2]",
    "x[1]^2*y[0,2] - x[0]^2*y[1,2]",
    "y[2,0]*y[1,0] - y[1,2]*y[0,2]",
    "y[2,1]*y[0,1] - y[1,2]*y[0,2]",
    "x[0]^3*y[1,2] - y[1,0]*y[0,2]",
    "x[0]^3*y[2,1] - y[2,0]*y[0,1]",
    "x[2]*x[1]*x[0]*y[2,1] - y[2,0]*y[1,2]",
    "x[1]*y[0,2]^2 - x[0]*y[2,0]*y[0,1]",
    "x[1]*y[1,0]*y[0,2] - x[0]*y[1,2]*y[0,1]",
    "x[1]*y[1,2]*y[0,2] - x[0]*y[2,1]*y[1,0]",
    "x[1]*y[2,1]*y[0,2] - x[0]*y[2,0]*y[1,2]",
    "x[1]*y[2,1]*y[1,0] - x[0]*y[1,2]^2",
    "y[1,2]*y[0,1]^2 - y[1,0]^2*y[0,2]",
    "y[2,0]*y[0,1]^2 - y[1,0]*y[0,2]^2",
    "y[2,1]*y[0,2]^2 - y[2,0]^2*y[0,1]",
    "y[2,1]*y[1,0]*y[0,2] - y[2,0]*y[1,2]*y[0,1]",
    "y[2,1]*y[1,0]^2 - y[1,2]^2*y[0,1]",
    "y[2,1]^2*y[0,2] - y[2,0]^2*y[1,2]",
    "y[2,1]^2*y[1,0] - y[2,0]*y[1,2]^2",
    "y[1,3]*y[0,2] - y[1,2]*y[0,3]",
    "y[2,3]*y[0,1] - y[2,1]*y[0,3]",
    "y[2,3]*y[1,0] - y[2,0]*y[1,3]",
    "y[3,1]*y[2,0] - y[3,0]*y[2,1]",
    "y[3,2]*y[0,1] - y[3,1]*y[0,2]",
    "y[3,2]*y[1,0] - y[3,0]*y[1,2]",
    "x[2]*x[1]*x[0]*y[3,2] - y[3,0]*y[2,1]",
    "x[1]*y[2,1]*y[0,3] - x[0]*y[2,0]*y[1,3]",
    "x[1]*y[2,3]*y[0,3] - x[0]*y[3,0]*y[2,1]",
    "x[1]*y[3,1]*y[0,2] - x[0]*y[3,0]*y[1,2]",
    "x[2]*y[1,3]*y[0,3] - x[0]*y[3,0]*y[1,2]",
    "x[2]*y[2,0]*y[1,3] - x[0]*y[2,3]*y[1,2]",
    "x[2]*y[2,1]*y[0,3] - x[1]*y[2,3]*y[0,2]",
    "y[2,1]*y[1,0]*y[0,3] - y[2,0]*y[1,3]*y[0,1]",
    "y[2,1]^2*y[0,3] - y[2,0]^2*y[1,3]",
    "y[2,3]*y[1,2]*y[0,2] - y[2,0]^2*y[1,3]",
    "y[3,0]*y[1,2]*y[0,2] - y[2,0]*y[1,3]*y[0,3]",
    "y[3,0]*y[1,2]^2 - y[2,0]*y[1,3]^2",
    "y[3,0]*y[2,1]^2 - y[2,3]*y[2,0]*y[1,3]",
    "y[3,1]*y[0,2]^2 - y[2,1]*y[0,3]^2",
    "y[3,1]*y[1,0]*y[0,2] - y[3,0]*y[1,2]*y[0,1]",
    "y[3,1]*y[1,2]*y[0,2] - y[2,1]*y[1,3]*y[0,3]",
    "y[3,1]*y[2,3]*y[0,3] - y[3,0]^2*y[2,1]",
    "y[3,1]^2*y[0,2] - y[3,0]^2*y[1,2]",
    "y[3,2]*y[1,3]*y[0,3] - y[3,0]^2*y[1,2]",
    "y[3,2]*y[2,0]*y[1,3] - y[3,0]*y[2,3]*y[1,2]",
    "y[3,2]*y[2,1]*y[0,3] - y[3,1]*y[2,3]*y[0,2]",
    "x[2]*x[1]*x[0]*y[2,3]^2 - y[3,2]*y[2,1]*y[2,0]",
    "x[3]*x[1]*x[0]*y[3,2]^2 - y[3,1]*y[3,0]*y[2,3]",
    "x[1]*y[1,2]^2*y[0,3] - x[0]*y[2,1]*y[1,3]*y[1,0]",
    "x[1]*y[2,3]^2*y[0,2] - x[0]*y[3,2]*y[2,1]*y[2,0]",
    "y[2,1]*y[1,2]*y[0,3]*y[0,2] - y[2,0]^2*y[1,3]*y[0,1]",
    "y[2,1]*y[1,2]^2*y[0,3]^2 - y[2,0]^2*y[1,3]^2*y[0,1]",
]


class TestEgbBuchberger:
    def test_single_variable(self):
        res = egb_buchberger([p((1, xmono(0)))])
        assert res.status == COMPLETE
        assert res.basis == [p((1, xmono(0)))]

    def test_equal_shifted_copies_drop_nothing(self):
        # x[2]'s self-interlacings that share index 2's image pair two equal
        # copies, S = 0, with overlaps up to x[4]; they are not drawn, so
        # max_width 3 drops no pair and the run completes
        res = egb_buchberger([p((1, xmono(2)))], EngineLimits(max_width=3))
        assert res.status == COMPLETE
        assert res.basis == [p((1, xmono(2)))]

    def test_toric_matches_reference(self, toric_problem):
        res = egb_buchberger(toric_problem.generators)
        assert res.status == COMPLETE
        reference = [expr(toric_problem, s) for s in TORIC_REFERENCE]
        assert ideal_equal(res.basis, reference)
        assert is_egb(res.basis)

    def test_member_matches_reference(self, member_problem):
        res = egb_buchberger(member_problem.generators)
        assert res.status == COMPLETE
        assert len(res.basis) == 5
        reference = [expr(member_problem, s) for s in MEMBER_REFERENCE]
        assert ideal_equal(res.basis, reference)
        # here the agreement is even syntactic
        assert sorted(map(format_polynomial, res.basis)) == sorted(
            map(format_polynomial, map(monic, reference))
        )

    def test_budget_returns_partial(self, toric_problem):
        res = egb_buchberger(toric_problem.generators, EngineLimits(max_pairs=1))
        assert res.status == BUDGET
        assert res.basis  # partial basis retained

    def test_empty_input(self):
        res = egb_buchberger([])
        assert res.status == COMPLETE and res.basis == []

    def test_max_basis_stops_after_an_insertion(self, toric_problem):
        # the third insertion makes four entries, past max_basis: the run
        # returns the prepared generator, then its insertions, unreduced
        res = egb_buchberger(toric_problem.generators, EngineLimits(max_basis=3))
        assert res.status == BUDGET
        assert list(map(format_polynomial, res.basis)) == [
            "x[1]*x[0] - y[1,0]",
            "x[2]*y[1,0] - x[1]*y[2,0]",
            "x[1]*y[2,0] - x[0]*y[2,1]",
            "x[0]^2*y[2,1] - y[2,0]*y[1,0]",
        ]
        assert res.stats == {"pairs_processed": 6, "zero_reductions": 3, "insertions": 3}

    def test_stats_determinism(self, toric_problem):
        a = egb_buchberger(toric_problem.generators)
        b = egb_buchberger(toric_problem.generators)
        assert a.stats == b.stats and a.basis == b.basis

    def test_monotone_initial_ideals(self, toric_problem):
        # in the final autoreduced basis no lead divides another lead
        basis = egb_buchberger(toric_problem.generators).basis
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                if i != j:
                    assert pi_divides(lm(g), lm(f)) is None


class TestWidthSkip:
    """A pair set whose wider lead exceeds max_width is dropped before any
    of it is drawn, and the run returns BUDGET."""

    @pytest.mark.parametrize(
        "text, limits",
        [
            ("x[40]*x[0] - x[1]", EngineLimits(max_pairs=1)),
            ("x[6]*x[0] - x[1]", EngineLimits(max_width=3, max_pairs=10)),
            ("x[2]*x[1]*x[0] - x[1]", EngineLimits(max_width=2)),
            # the lead uses every index below its width and each of its
            # variables touches index 6: no shortcut shows the set nonempty
            ("*".join(f"y[7,{j}]" for j in range(7)) + " - y[1,0]", EngineLimits(max_width=7)),
        ],
        ids=["x40-max_pairs1", "x6-max_width3", "x210-max_width2", "y7-max_width7"],
    )
    def test_wide_lead_returns_budget_at_once(self, toric_problem, text, limits, monkeypatch):
        drawn = []
        real = buchberger.spair_generators

        def counting(*args):
            drawn.append(0)
            k = len(drawn) - 1
            for gen in real(*args):
                drawn[k] += 1
                yield gen

        monkeypatch.setattr(buchberger, "spair_generators", counting)
        f = expr(toric_problem, text)
        start = time.monotonic()
        res = egb_buchberger([f], limits)
        assert time.monotonic() - start < 1
        assert res.status == BUDGET
        assert res.basis == [f]
        assert res.stats == {"pairs_processed": 0, "zero_reductions": 0, "insertions": 0}
        assert drawn == []  # the lead decides: no pair set is drawn

    def test_mixed_skip_pinned(self):
        # the self-pair of the first generator is skipped, the rest are
        # processed; status, basis and stats are those of full generation
        F = [p((1, xmono(5, 0)), (-1, xmono(1))), p((1, xmono(1, 1)), (-1, xmono(0)))]
        res = egb_buchberger(F, EngineLimits(max_width=3))
        assert res.status == BUDGET
        assert list(map(format_polynomial, res.basis)) == [
            "x[5]*x[0] - x[1]",
            "x[1]^2 - x[0]",
            "x[1] - x[0]",
            "x[0]^2 - x[0]",
        ]
        assert res.stats == {"pairs_processed": 7, "zero_reductions": 5, "insertions": 2}

    def test_wide_lead_pair_set_without_generator(self, toric_problem):
        # the leads x[7] and y[7,3] share no variable under any
        # interlacing: their pair set yields nothing.  Drawing its ~250,000
        # interlacings took 3.3 s when each was built as two maps and
        # 0.35-0.45 s decided on index tuples; leads with no family in
        # common now return before the first draw, in under 1 ms (2-core
        # x86-64 host)
        F = [expr(toric_problem, "x[7] - x[0]"), expr(toric_problem, "y[7,3] - y[1,0]")]
        start = time.monotonic()
        res = egb_buchberger(F, EngineLimits(max_width=6))
        assert time.monotonic() - start < 1.5
        assert res.status == BUDGET and res.basis == F
        assert res.stats == {"pairs_processed": 0, "zero_reductions": 0, "insertions": 0}

    @pytest.mark.parametrize("text, width", [("y[1,0]", 1), ("x[0]", 0), ("x[0] - 1", 0)])
    def test_wide_lead_without_pairs_is_budget(self, toric_problem, text, width):
        # a self-pair set can be empty although the lead is too wide; it is
        # dropped undrawn all the same, as the incremental and signature
        # engines drop a generator wider than max_width
        f = expr(toric_problem, text)
        res = egb_buchberger([f], EngineLimits(max_width=width))
        assert res.status == BUDGET and res.basis == [f]
        assert res.stats == {"pairs_processed": 0, "zero_reductions": 0, "insertions": 0}

    def test_classical_wide_leads_complete(self):
        # classical self-pairs are empty and these leads are coprime
        F = [p((1, xmono(5, 0)), (-1, xmono(1))), p((1, xmono(1, 1)), (-1, xmono(0)))]
        res = classical_buchberger(F, EngineLimits(max_width=3))
        assert res.status == COMPLETE
        assert res.stats["pairs_processed"] == 0

    def test_classical_pair_removed_by_criterion_sets_no_budget(self, x_problem):
        # the pair of x[5]*x[0] with x[1]*x[0] is wider than 3, but the lcm
        # of x[1] with x[1]*x[0] divides its lcm (criterion M): it is
        # never made, so it drops nothing, where the all-pairs loop stops
        texts = ("x[5]*x[0] - x[0]", "x[1] - x[0]^2", "x[1]*x[0] - x[0]^3")
        F = [expr(x_problem, t) for t in texts]
        limits = EngineLimits(max_width=3)
        res = classical_buchberger(F, limits)
        assert res.status == COMPLETE
        assert res.basis == all_pairs_classical(F).basis
        assert all_pairs_classical(F, limits).status == BUDGET


class TestOrbitTruncate:
    def test_single_variable(self):
        out = orbit_truncate([p((1, xmono(0)))], 3)
        assert out == [p((1, xmono(0))), p((1, xmono(1))), p((1, xmono(2)))]

    def test_toric_copies(self, toric_problem):
        out = orbit_truncate(toric_problem.generators, 3)
        assert len(out) == 3  # C(3, 2)
        assert all(f.width() <= 3 for f in out)

    def test_width_equal_generator(self):
        f = p((1, xmono(0, 1)))
        assert orbit_truncate([f], 2) == [f]

    def test_too_narrow_is_error(self):
        with pytest.raises(ValueError):
            orbit_truncate([p((1, xmono(0, 1)))], 1)

    def test_width_twenty_matches_list_scan(self, member_problem):
        # duplicates are dropped through a dict: the list scan's copies in
        # its order, without its quadratic time (about 1 s for this input on
        # a 2-core host)
        expected = []
        for rho in increasing_maps(member_problem.generators[0].width(), 20):
            g = act(rho, member_problem.generators[0])
            if g not in expected:
                expected.append(g)
        start = time.monotonic()
        out = orbit_truncate(member_problem.generators * 2, 20)
        assert time.monotonic() - start < 0.25
        assert len(out) == 1140 and out == expected


class TestClassicalBuchberger:
    def test_already_a_basis(self):
        G = [p((1, xmono(0))), p((1, xmono(1)))]
        assert classical_buchberger(G).basis == G

    def test_single_polynomial_monic(self):
        f = p((2, xmono(0, 1)), (4, xmono(0)))
        assert classical_buchberger([f]).basis == [monic(f)]

    def test_budget_returns_partial(self):
        F = [p((1, xmono(0, 1)), (1, xmono(0))), p((2, xmono(1, 1)), (-1, xmono(1)))]
        res = classical_buchberger(F, EngineLimits(max_pairs=0))
        assert res.status == BUDGET
        assert res.basis == [monic(f) for f in F]

    def test_max_basis_stops_after_an_insertion(self, toric_problem):
        # the width-4 truncation's six generators and three insertions make
        # nine entries, past max_basis: the run returns them in that order,
        # unreduced
        F = orbit_truncate(toric_problem.generators, 4)
        res = classical_buchberger(F, EngineLimits(max_basis=8))
        assert res.status == BUDGET
        assert res.basis[:6] == [monic(f) for f in F]
        assert list(map(format_polynomial, res.basis[6:])) == [
            "x[2]*y[1,0] - x[1]*y[2,0]",
            "x[1]*y[2,0] - x[0]*y[2,1]",
            "x[0]^2*y[2,1] - y[2,0]*y[1,0]",
        ]
        assert res.stats == {"pairs_processed": 5, "zero_reductions": 2, "insertions": 3}

    def test_agrees_with_sympy_on_random_systems(self):
        import sympy

        rng = random.Random(13)
        xs = sympy.symbols("s0 s1 s2")
        for _ in range(10):
            polys = []
            sympy_polys = []
            for _k in range(rng.randrange(3, 5)):
                terms = []
                for _t in range(rng.randrange(1, 4)):
                    c = rng.randint(-2, 2)
                    exps = [rng.randrange(3) for _ in range(3)]
                    terms.append((c, exps))
                polys.append(
                    poly(
                        X,
                        [
                            (
                                Fraction(c),
                                Monomial.from_dict(
                                    {xvar(i): e for i, e in enumerate(exps) if e}
                                ),
                            )
                            for c, exps in terms
                        ],
                    )
                )
                sympy_polys.append(
                    sum(
                        c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                        for c, e in terms
                    )
                )
            polys = [f for f in polys if not f.is_zero]
            sympy_polys = [f for f in sympy_polys if f != 0]
            if not polys:
                continue
            mine = classical_buchberger(polys).basis
            assert all(_cnf(f, mine).is_zero for f in polys)
            # sympy's lex order ranks s0 highest; ours ranks the highest
            # index highest, so compare against reversed symbol precedence
            theirs = sympy.groebner(sympy_polys, xs[2], xs[1], xs[0], order="lex")
            mine_strs = sorted(format_polynomial(f) for f in mine)
            converted = []
            for g in theirs.exprs:
                g = sympy.Poly(g, xs[2], xs[1], xs[0]).monic()
                terms = []
                for mono_exps, coeff in g.terms():
                    e2, e1, e0 = mono_exps
                    m = Monomial.from_dict(
                        {xvar(2): e2, xvar(1): e1, xvar(0): e0}
                    )
                    terms.append((Fraction(str(coeff)), m))
                converted.append(poly(X, terms))
            theirs_strs = sorted(format_polynomial(f) for f in converted)
            assert mine_strs == theirs_strs


class TestChainCriteria:
    """The Gebauer–Möller partner choice and the pop-time chain test
    against the all-pairs loop: the same status and reduced basis, from no
    more processed pairs."""

    @staticmethod
    def agrees(F, limits=EngineLimits()):
        mine, ref = classical_buchberger(F, limits), all_pairs_classical(F, limits)
        assert (mine.status, mine.basis) == (ref.status, ref.basis)
        assert mine.stats["pairs_processed"] <= ref.stats["pairs_processed"]
        return mine, ref

    def test_monomial_map_levels(self):
        # the inputs of egb_incremental's levels at widths 2-4
        G = parse(MONOMIAL_MAP_TEXT).generators
        seed, counts = [], []
        for n in (2, 3, 4):
            mine, ref = self.agrees(orbit_truncate(G, n) + seed)
            counts.append((mine.stats["pairs_processed"], ref.stats["pairs_processed"]))
            seed = mine.basis
        assert counts == [(4, 5), (146, 264), (1357, 3400)]

    @pytest.mark.parametrize("name", ["toric", "member", "wide5"])
    def test_orbit_truncations(self, name):
        G = parse((GOLDEN / f"{name}.egb").read_text()).generators
        w = max(g.width() for g in G)
        for n in range(w + 1, w + 4):
            self.agrees(orbit_truncate(G, n))

    @pytest.mark.parametrize("name", ["monomial_map", "toric", "member"])
    def test_update_keeps_earlier_rows_sharing_a_variable(self, name, monkeypatch):
        # the rows _chain_update returns for row k lie below k and have a
        # lead sharing a variable with k's, over every classical level of
        # the incremental engine: the classical generator needs no filter
        text = MONOMIAL_MAP_TEXT if name == "monomial_map" else (GOLDEN / f"{name}.egb").read_text()
        problem = parse(text)
        limits = EngineLimits(max_width=4) if name == "monomial_map" else EngineLimits(**problem.options)
        returned = checked_chain_update(monkeypatch)
        egb_incremental(problem.generators, limits)
        assert returned[0] > 10

    def test_pop_test_drops_queued_pairs(self, monkeypatch):
        # criterion B on queued pairs is the chain test at pop time: without
        # it the width-4 level of monomial_map processes more pairs for the
        # same basis
        F = orbit_truncate(parse(MONOMIAL_MAP_TEXT).generators, 4)
        with_test = classical_buchberger(F)
        without_chain_criterion(monkeypatch)
        without_test = classical_buchberger(F)
        assert with_test.basis == without_test.basis
        pairs = with_test.stats["pairs_processed"], without_test.stats["pairs_processed"]
        assert pairs == (1357, 1392)

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    def test_random_systems_that_kill_queued_pairs(self, order_kind, monkeypatch):
        # 50 systems of 3-4 generators, each drawn until the chain test
        # skips a queued pair of the classical run
        ring = Ring((FamilySpec("x"),), order_kind)
        killed = []
        real = buchberger._chained

        def counting(gen, choose):
            out = real(gen, choose)
            killed[-1] += out
            return out

        monkeypatch.setattr(buchberger, "_chained", counting)
        rng = random.Random(29)

        def term():
            return rng.choice([-2, -1, 1, 3]), random_xmono(rng, 2, 3)

        systems = saved = 0
        for _ in range(2000):
            F = [
                poly(ring, [term() for _t in range(rng.randrange(1, 4))])
                for _k in range(rng.randrange(3, 5))
            ]
            killed.append(0)
            classical_buchberger(F)
            if not killed[-1]:
                continue
            mine, ref = self.agrees(F)
            saved += ref.stats["pairs_processed"] - mine.stats["pairs_processed"]
            systems += 1
            if systems == 50:
                break
        assert systems == 50 and saved > 50


class TestReducerTable:
    def test_one_row_per_basis_element(self, monkeypatch):
        # rows are built per basis element, not per normal form, and no
        # S-polynomial is rebuilt through poly()
        F = orbit_truncate(parse(MONOMIAL_MAP_TEXT).generators, 3)
        rows, polys, loop_rows = [], [], []
        real_row, real_poly, real_autoreduce = poly_module.reducer_row, poly_module.poly, autoreduce

        def counting_row(*args):
            rows.append(args)
            return real_row(*args)

        def counting_poly(*args):
            polys.append(args)
            return real_poly(*args)

        def counting_autoreduce(G, orbit=True):
            loop_rows.append(len(rows))
            out = real_autoreduce(G, orbit)
            assert len(rows) - loop_rows[0] <= 2 * len(G)
            return out

        monkeypatch.setattr(poly_module, "reducer_row", counting_row)
        monkeypatch.setattr(buchberger, "reducer_row", counting_row)
        monkeypatch.setattr(buchberger, "autoreduce", counting_autoreduce)
        monkeypatch.setattr(poly_module, "poly", counting_poly)
        res = classical_buchberger(F)
        assert res.status == COMPLETE and res.stats["pairs_processed"] == 146
        assert loop_rows == [len(F) + res.stats["insertions"]]
        assert polys == []

    def test_orbit_witness_searches_pinned(self, x_problem, monkeypatch):
        # the orbit choice remembers each term's step: without the memo the
        # 5,380 choices of one wide5 solve made 11,512 witness searches.  The
        # chain criterion left 2,748 reduction choices and asked the same
        # choice 1,404 times; their memo made 109 searches (118 with a
        # second memo for the chain test).  Drawing each shifted pair once,
        # not once per interlacing, leaves 625 choices and the same searches
        searches = recorded_searches(monkeypatch, poly_module)
        choices, real_first = [], buchberger.first_reducer

        def counting_first(table, orbit):
            choose = real_first(table, orbit)

            def counted(m):
                choices.append(m)
                return choose(m)

            return counted

        monkeypatch.setattr(buchberger, "first_reducer", counting_first)
        res = egb_buchberger([expr(x_problem, "x[5]*x[0] - x[1]")])
        assert res.status == COMPLETE
        assert (len(choices), len(searches)) == (625, 109)


class TestLeadPreparations:
    """Orbit rows carry the preparation of their current lead wherever a
    table changes: ``autoreduce`` replacing a row, and ``is_egb`` scanning
    its monic copy."""

    def test_autoreduce_replaced_row(self, monkeypatch):
        # x1^2 + x0 reduces by x0^2 - x0 (0 -> 1) to x1 + x0, a new lead; the
        # other element is then reduced against the replaced row
        tables = []
        real = buchberger.first_reducer

        def checked(table, orbit):
            assert_current_preparations(table)
            tables.append([row[1] for row in table])
            return real(table, orbit)

        monkeypatch.setattr(buchberger, "first_reducer", checked)
        replaced = p((1, xmono(1)), (1, xmono(0)))
        out = autoreduce([p((1, xmono(0, 0)), (-1, xmono(0))), p((1, xmono(1, 1)), (1, xmono(0)))])
        assert out == [p((1, xmono(0, 0)), (-1, xmono(0))), replaced]
        assert [replaced] in tables

    def test_is_egb_monic_copy(self, member_problem, monkeypatch):
        basis = egb_buchberger(member_problem.generators).basis
        scaled = [scale(g, (2, -3, Fraction(1, 5))[k % 3]) for k, g in enumerate(basis)]
        tables, choices, asked = [], [], set()
        real_first, real_chained = buchberger.first_reducer, buchberger._chained

        def checked_first(table, orbit):
            tables.append(table)
            choices.append(real_first(table, orbit))
            return choices[-1]

        def checked_chained(gen, choose):
            asked.add(choose)
            return real_chained(gen, choose)

        monkeypatch.setattr(buchberger, "first_reducer", checked_first)
        monkeypatch.setattr(buchberger, "_chained", checked_chained)
        assert is_egb(scaled)
        # one choice over one table serves the reductions and the chain test
        assert len(tables) == 1 and asked == {choices[0]}
        assert [row[1] for row in tables[0]] == [monic(g) for g in scaled]
        assert_current_preparations(tables[0])


class TestIsEgb:
    def test_single_variable(self):
        assert is_egb([p((1, xmono(0)))])

    def test_member_generator_alone_is_not(self, member_problem):
        assert not is_egb(member_problem.generators)

    def test_engine_output_passes(self, member_problem):
        assert is_egb(egb_buchberger(member_problem.generators).basis)

    def test_scaled_copies(self, monkeypatch):
        # the S-polynomials are built over a monic copy: every overlap entry
        # cancels whatever the lead coefficients, and scaling the elements by
        # 2, 3 and -5 leaves the verdict of EGBs and non-EGBs alike
        problems = [parse((GOLDEN / f"{name}.egb").read_text()) for name in ("toric", "member", "wide5")]
        egbs = [egb_buchberger(problem.generators).basis for problem in problems]
        level = orbit_truncate(parse(MONOMIAL_MAP_TEXT).generators, 3)
        others = [problem.generators for problem in problems]
        others.append(autoreduce(classical_buchberger(level).basis))
        overlaps = []
        real = buchberger._spoly

        def recording(gen, G):
            acc = real(gen, G)
            overlaps.append(acc[gen.overlap])
            return acc

        monkeypatch.setattr(buchberger, "_spoly", recording)
        verdicts = []
        for basis in egbs + others:
            scaled = [scale(g, (2, 3, -5)[k % 3]) for k, g in enumerate(basis)]
            verdicts.append(is_egb(scaled))
            assert is_egb(basis) == verdicts[-1]
        assert verdicts == [True] * len(egbs) + [False] * len(others)
        assert overlaps and not any(overlaps)


def is_egb_every_interlacing(G):
    """Reference criterion: ``is_egb`` over every interlacing of every pair
    of entries, repeated shifted pairs included.  Only coprime leads (the
    cofactor of f is the whole moved lead of g), the diagonal and mirrors
    are skipped, and chained pairs."""
    basis = [monic(g) for g in G if not g.is_zero]
    choose = first_reducer(reducer_table(basis, True), True)
    for i, j in itertools.combinations_with_replacement(range(len(basis)), 2):
        for gen in reference_spair_generators(basis[i], basis[j], i, j, coprime_filter=False):
            if gen.cof1 == m_act(gen.map2, lm(basis[j])) or buchberger._chained(gen, choose):
                continue
            if not reduce_terms(basis[i].ring, _spoly(gen, basis), choose).is_zero:
                return False
    return True


class TestIsEgbRepeatedPairs:
    """``is_egb`` draws each shifted pair once; its verdicts are those of
    the criterion over every interlacing."""

    @pytest.mark.parametrize("name", ["toric", "member", "wide5", "wide5_budget"])
    def test_golden_bases(self, name):
        # every engine's recorded basis, the generators, and each element
        # of the recorded direct basis left out in turn
        problem = parse((GOLDEN / f"{name}.egb").read_text())
        reports = [
            json.loads((GOLDEN / f"{name}.{algorithm}.json").read_text())
            for algorithm in ("buchberger", "incremental", "signature")
        ]
        bases = [[expr(problem, text) for text in report["basis"]] for report in reports]
        complete = [report["status"] == COMPLETE for report in reports]
        direct = bases[0]
        variants = bases + [list(problem.generators)]
        variants += [direct[:k] + direct[k + 1 :] for k in range(len(direct))]
        verdicts = [is_egb(B) for B in variants]
        assert verdicts == [is_egb_every_interlacing(B) for B in variants]
        assert verdicts[: len(bases) + 1] == complete + [False]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inputs())
    def test_cross_engine_bases(self, F):
        # the complete bases of the cross-engine inputs, and the inputs
        for result in (engine(F, LIMITS) for engine in ENGINES):
            if result.status == COMPLETE:
                assert is_egb(result.basis) and is_egb_every_interlacing(result.basis)
        assert is_egb(F) == is_egb_every_interlacing(F)


def chained_literally(gen, table):
    """The chain condition as defined: some shifted lead u of a row divides
    the overlap t, and u's lcms with both moved leads properly divide t;
    every witness of every row is tried."""
    t = gen.overlap
    a, b = m_quotient(t, gen.cof1), m_quotient(t, gen.cof2)
    for _, _, lead, _ in table:
        for rho in prepared_witnesses(prepare_lead(lead), term_profile(t)):
            u = m_act(rho, lead)
            if m_lcm(a, u) != t and m_lcm(b, u) != t:
                return True
    return False


def random_xy_polynomial(rng, ring):
    """1-3 terms over x[0..2], and y[i,j], i > j, when the ring has y."""
    variables = [ring.variable("x", (i,)) for i in range(3)]
    if len(ring.families) > 1:
        variables += [ring.variable("y", (i, j)) for i in range(3) for j in range(i)]
    terms = []
    for _ in range(rng.randrange(1, 4)):
        factors = Counter(rng.choice(variables) for _d in range(rng.randrange(4)))
        terms.append((rng.choice([-2, -1, 1, 3]), Monomial.from_dict(factors)))
    return poly(ring, terms)


class TestOrbitChainCriterion:
    """The strict orbit chain criterion: exact against its definition, and
    with no effect on any basis, status or ``is_egb`` verdict."""

    @pytest.mark.parametrize("order_kind", ["lex", "grlex"])
    @pytest.mark.parametrize("families", ["x", "xy"])
    def test_matches_definition(self, families, order_kind):
        # over a table of one row, then over the rows appended after it:
        # the memo scans only the appended rows for a monomial it missed
        specs = (FamilySpec("x"),)
        if families == "xy":
            specs += (FamilySpec("y", arity=2, constraint="strictly_decreasing"),)
        ring = Ring(specs, order_kind)
        rng = random.Random(37)
        seen = Counter()
        for _ in range(30):
            basis = [f for f in (random_xy_polynomial(rng, ring) for _k in range(3)) if not f.is_zero]
            gens = [
                gen
                for i, j in itertools.combinations_with_replacement(range(len(basis)), 2)
                for gen in spair_generators(basis[i], basis[j], i, j)
            ]
            table = reducer_table(basis[:1], True)
            choose = first_reducer(table, True)

            def chained(gen):
                return buchberger._chained(gen, choose)

            assert [chained(gen) for gen in gens] == [chained_literally(gen, table) for gen in gens]
            table.extend(reducer_row(k, g, True) for k, g in enumerate(basis) if k)
            verdicts = [chained(gen) for gen in gens]
            assert verdicts == [chained_literally(gen, table) for gen in gens]
            seen.update(verdicts)
        assert seen[True] > 20 and seen[False] > 20

    @pytest.mark.parametrize("name", ["toric", "member", "wide5", "wide5_budget"])
    def test_direct_engine_unchanged(self, name, monkeypatch):
        problem = parse((GOLDEN / f"{name}.egb").read_text())
        limits = EngineLimits(**problem.options)
        mine = egb_buchberger(problem.generators, limits)
        without_chain_criterion(monkeypatch)
        ref = egb_buchberger(problem.generators, limits)
        assert (mine.status, mine.basis) == (ref.status, ref.basis)
        assert mine.stats["pairs_processed"] <= ref.stats["pairs_processed"]

    def test_is_egb_verdicts_unchanged(self, monkeypatch):
        # every level candidate of the incremental engine, every complete
        # basis, and each complete basis with one element removed
        candidates = []
        real = buchberger.is_egb

        def recording(G):
            candidates.append(G)
            return real(G)

        monkeypatch.setattr(buchberger, "is_egb", recording)
        egb_incremental(parse(MONOMIAL_MAP_TEXT).generators, EngineLimits(max_width=4))
        for text in (TORIC_TEXT, MEMBER_TEXT):
            candidates.append(egb_buchberger(parse(text).generators).basis)
            egb_incremental(parse(text).generators)
        monkeypatch.undo()
        complete = [B for B in candidates if is_egb(B)]
        bases = candidates + [B[:k] + B[k + 1 :] for B in complete for k in range(len(B))]
        verdicts = [is_egb(B) for B in bases]
        without_chain_criterion(monkeypatch)
        assert [is_egb(B) for B in bases] == verdicts
        assert verdicts.count(True) == 4 and verdicts.count(False) > 20


class TestAutoreduce:
    def test_orbit_redundancy_dropped(self):
        # x1 lies in the orbit of x0, so only one survives, made monic
        out = autoreduce([p((1, xmono(0))), p((2, xmono(1)))])
        assert out == [p((1, xmono(0)))]

    def test_scaling_and_tails(self):
        out = autoreduce(
            [p((2, xmono(0, 0))), p((1, xmono(0, 1)), (1, xmono(0, 0)))]
        )
        assert out == [p((1, xmono(0, 0))), p((1, xmono(0, 1)))]

    def test_idempotent(self, toric_problem):
        basis = egb_buchberger(toric_problem.generators).basis
        assert autoreduce(basis) == basis

    @pytest.mark.parametrize("orbit", [True, False], ids=["pi", "plain"])
    def test_agrees_with_restart_scan(self, orbit):
        rng = random.Random(21)
        lead_changes = 0
        for _ in range(150):
            G = []
            for _k in range(rng.randrange(1, 6)):
                terms = [
                    (rng.choice([-2, -1, 1, 3]), random_xmono(rng, max_index=3, max_degree=3))
                    for _t in range(rng.randrange(1, 4))
                ]
                G.append(p(*terms))
            expected = _restart_autoreduce(G, orbit)
            assert autoreduce(G, orbit) == expected
            leads = {lm(g) for g in G if not g.is_zero}
            lead_changes += any(lm(h) not in leads for h in expected)
        # the inputs exercise the flag reset: some reduce a lead away
        assert lead_changes > 0


def _restart_autoreduce(G, orbit):
    """Reference interreduction: restart the scan after every change."""
    basis = [monic(g) for g in G if not g.is_zero]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            h = recorded_normal_form(basis[i], others, orbit)[0]
            if h.is_zero:
                basis.pop(i)
                changed = True
                break
            h = monic(h)
            if h != basis[i]:
                basis[i] = h
                changed = True
    return sorted_basis(basis)


class TestIncremental:
    def test_empty_input(self):
        res = egb_incremental([])
        assert (res.status, res.basis, res.stats) == (COMPLETE, [], {"levels": 0})

    def test_single_variable(self):
        res = egb_incremental([p((1, xmono(0)))])
        assert res.status == COMPLETE and res.basis == [p((1, xmono(0)))]
        assert res.stats["final_width"] == 1

    def test_toric_agrees_with_direct(self, toric_problem):
        inc = egb_incremental(toric_problem.generators)
        direct = egb_buchberger(toric_problem.generators)
        assert inc.status == COMPLETE
        assert ideal_equal(inc.basis, direct.basis)

    def test_member_agrees_with_direct(self, member_problem):
        inc = egb_incremental(member_problem.generators)
        direct = egb_buchberger(member_problem.generators)
        assert inc.status == COMPLETE
        assert ideal_equal(inc.basis, direct.basis)

    def test_budget_when_width_exhausted(self, toric_problem):
        res = egb_incremental(toric_problem.generators, EngineLimits(max_width=2))
        assert res.status == BUDGET

    def test_monomial_map_levels_pinned(self, monkeypatch):
        # the classical counters of every level pin the reducer choice and
        # the Gebauer–Möller update (the all-pairs loop: 5/3, 264/239 and
        # 3400/3298 pairs/zero reductions)
        levels = []
        real = buchberger.classical_buchberger

        def recording(F, limits):
            res = real(F, limits)
            levels.append(res.stats)
            return res

        monkeypatch.setattr(buchberger, "classical_buchberger", recording)
        res = egb_incremental(parse(MONOMIAL_MAP_TEXT).generators, EngineLimits(max_width=4))
        assert levels == [
            {"pairs_processed": 4, "zero_reductions": 2, "insertions": 2},
            {"pairs_processed": 146, "zero_reductions": 119, "insertions": 27},
            {"pairs_processed": 1357, "zero_reductions": 1228, "insertions": 129},
        ]
        assert res.status == BUDGET and res.stats == {"levels": 3}
        assert [format_polynomial(g) for g in res.basis] == MONOMIAL_MAP_W4_BASIS

    def test_budget_interreduces_each_level_once(self, toric_problem, monkeypatch):
        # the budgeted return reuses the last level's interreduced basis
        orbit_calls = []
        real = buchberger.autoreduce

        def counting(G, orbit=True):
            if orbit:
                orbit_calls.append(len(G))
            return real(G, orbit)

        monkeypatch.setattr(buchberger, "autoreduce", counting)
        res = egb_incremental(toric_problem.generators, EngineLimits(max_width=3))
        assert res.status == BUDGET
        assert len(orbit_calls) <= res.stats["levels"]
