"""All three orbit engines on random small inputs, under one tight budget.

A ``complete`` basis must pass the orbit Buchberger criterion, and any two
complete bases must span the same ideal and be equal, since every engine
returns the reduced EGB.  A ``budget_exhausted`` basis is partial, but it
must span the input's ideal: every input generator lies in its ideal, and
where an engine completed, every element reduces to zero against that
complete basis.

Orbit reduction against the partial basis itself does not decide the
first half.  The basis is no Groebner basis, so a generator can leave a
nonzero remainder although it lies in the ideal.  With ``[x0, x1*x0 + 1]``
and no pair processed, x0 cancels the lead of the second generator and
leaves 1 (``test_budget_basis_of_divisible_leads``); against
``[x1*x0 - x0, x2 + 1]``, ``x2*x0 + x1*x0`` leaves 2*x0.  A remainder of
zero against the basis, or against a direct run's basis of it, proves
membership.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from incgb.buchberger import (
    BUDGET,
    COMPLETE,
    EngineLimits,
    classical_buchberger,
    egb_buchberger,
    egb_incremental,
    is_egb,
    orbit_truncate,
)
from incgb.poly import monic, normal_form, poly
from incgb.problems import format_polynomial, parse, parse_polynomial
from incgb.rings import FamilySpec, Monomial, Ring
from incgb.signature import egb_signature

from conftest import (
    MONOMIAL_MAP_TEXT,
    UNWEIGHTED_TEXT,
    X_RING_TEXT,
    checked_chain_update,
    expr,
    ideal_equal,
    without_chain_criterion,
)

ENGINES = (egb_buchberger, egb_incremental, egb_signature)
LIMITS = EngineLimits(max_width=3, max_pairs=30, max_basis=12)
# the membership check's own run may need wider shifts than the engines
CLOSURE_LIMITS = EngineLimits(max_width=4, max_pairs=200)
GOLDEN = Path(__file__).parent / "golden"


def holds_fractions(basis):
    """Whether every coefficient of the basis is a Fraction, by type: the
    reduction kernel's ints equal their Fractions, so ``==`` misses a leak."""
    return all(type(c) is Fraction for f in basis for c, _ in f.terms)


@st.composite
def inputs(draw):
    """1-2 generators of width <= 3, degree <= 3, coefficients in -2..2."""
    constraint = draw(st.sampled_from([None, "strictly_decreasing", "all_distinct"]))
    families = (FamilySpec("x"),)
    if constraint is not None:
        families += (FamilySpec("y", arity=2, constraint=constraint),)
    ring = Ring(families, order_kind=draw(st.sampled_from(["lex", "grlex"])))
    variables = [ring.variable("x", (i,)) for i in range(3)]
    if constraint is not None:
        variables += [
            ring.variable("y", (i, j))
            for i in range(3)
            for j in range(3)
            if i > j or (constraint == "all_distinct" and i != j)
        ]
    monomials = st.lists(st.sampled_from(variables), max_size=3).map(
        lambda factors: Monomial.from_dict(Counter(factors))
    )
    terms = st.lists(st.tuples(st.integers(-2, 2), monomials), min_size=1, max_size=3)
    polynomials = terms.map(lambda ts: poly(ring, ts)).filter(lambda f: not f.is_zero)
    return draw(st.lists(polynomials, min_size=1, max_size=2))


def spans_generators(basis, F):
    """Whether every f in F is shown to lie in the ideal of the basis.

    A reduction to zero against any part of that ideal shows it: against
    the basis itself, or against what a budgeted direct run on the basis
    returns, complete or partial.
    """
    rest = [f for f in F if monic(f) not in basis and not normal_form(f, basis).is_zero]
    if not rest:
        return True
    closure = egb_buchberger(basis, CLOSURE_LIMITS).basis
    return all(normal_form(f, closure).is_zero for f in rest)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs())
def test_engines_agree(F):
    results = [engine(F, LIMITS) for engine in ENGINES]
    assert all(holds_fractions(r.basis) for r in results)
    complete = [r.basis for r in results if r.status == COMPLETE]
    for basis in complete:
        assert is_egb(basis)
    for a, b in combinations(complete, 2):
        assert ideal_equal(a, b)
        assert a == b  # one reduced EGB, in sorted_basis order
    for r in results:
        if r.status == BUDGET:
            assert spans_generators(r.basis, F)
            for basis in complete:
                assert all(normal_form(f, basis).is_zero for f in r.basis)


def monic_terms(polys):
    """sympy polynomials, each made monic, as a sorted list of their sorted
    (exponents, coefficient) items: equal bases give equal lists."""
    return sorted(tuple(sorted(f.monic().terms())) for f in polys)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs())
def test_classical_agrees_with_sympy(F):
    # an oracle that shares no code with incgb: the classical engine's
    # reduced basis of the width-3 truncation against sympy's.  Every family
    # of inputs() has weight 1, so grlex is sympy's grlex.  The variables
    # become sympy's gens greatest first, as sympy orders them; x[0] is one
    # always, so that a constant input has a gen too
    ring = F[0].ring
    assert all(family.weight == 1 for family in ring.families)
    G = orbit_truncate(F, 3)
    variables = {v for f in G for _, m in f.terms for v, _ in m} | {ring.variable("x", (0,))}
    where = {v: k for k, v in enumerate(sorted(variables, reverse=True))}
    gens = sympy.symbols(f"v:{len(where)}")

    def to_sympy(f):
        terms = {}
        for c, m in f.terms:
            exponents = [0] * len(gens)
            for v, e in m:
                exponents[where[v]] = e
            terms[tuple(exponents)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(terms, *gens, domain="QQ")

    theirs = sympy.groebner([to_sympy(f) for f in G], *gens, order=ring.order_kind)
    res = classical_buchberger(G)
    assert res.status == COMPLETE
    assert monic_terms(map(to_sympy, res.basis)) == monic_terms(theirs.polys)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs())
def test_orbit_chain_criterion_changes_no_answer(F):
    # the direct engine with and without the criterion, under LIMITS less
    # its pair budget: the criterion's skipped pairs are not counted, so a
    # pair budget would stop the two runs at different points.  The same
    # status, and the same basis when complete; a budgeted basis is the
    # unreduced partial one, which holds what the processed pairs inserted.
    # And the is_egb verdicts on the input, the basis and, when it is
    # complete, the basis less each element
    limits = EngineLimits(max_width=LIMITS.max_width, max_basis=LIMITS.max_basis)
    mine = egb_buchberger(F, limits)
    bases = [F, mine.basis]
    if mine.status == COMPLETE:
        bases += [mine.basis[:k] + mine.basis[k + 1 :] for k in range(len(mine.basis))]
    verdicts = [is_egb(B) for B in bases]
    with pytest.MonkeyPatch.context() as mp:
        without_chain_criterion(mp)
        ref = egb_buchberger(F, limits)
        assert [is_egb(B) for B in bases] == verdicts
    assert mine.status == ref.status
    if mine.status == COMPLETE:
        assert mine.basis == ref.basis
    assert mine.stats["pairs_processed"] <= ref.stats["pairs_processed"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs())
def test_chain_update_rows_share_a_variable(F):
    # the classical engine on the inputs and on the incremental engine's
    # truncation levels asks only for pairs of distinct rows whose leads
    # share a variable
    with pytest.MonkeyPatch.context() as mp:
        checked_chain_update(mp)
        classical_buchberger(F, LIMITS)
        egb_incremental(F, LIMITS)


# the outcomes of a reduced pair, one each: pairs_processed counts the pairs
# an engine reduces, and a pair it skips (chained, a duplicate signature or
# covered) is not counted
OUTCOMES = {
    "buchberger": ("zero_reductions", "insertions"),
    "signature": ("singular_discards", "zero_reductions", "full_zero_reductions", "insertions"),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs())
def test_processed_pairs_are_reduced_pairs(F):
    for algorithm, engine in [("buchberger", egb_buchberger), ("signature", egb_signature)]:
        stats = engine(F, LIMITS).stats
        assert stats["pairs_processed"] == sum(stats[key] for key in OUTCOMES[algorithm])


@pytest.mark.parametrize("algorithm", sorted(OUTCOMES))
@pytest.mark.parametrize("problem", sorted(path.stem for path in GOLDEN.glob("*.egb")))
def test_golden_processed_pairs_are_reduced_pairs(problem, algorithm):
    # the committed reports, which ``solve --json`` reproduces byte for byte
    stats = json.loads((GOLDEN / f"{problem}.{algorithm}.json").read_text())["stats"]
    assert stats["pairs_processed"] == sum(stats[key] for key in OUTCOMES[algorithm])


@pytest.mark.parametrize("engine", [egb_buchberger, egb_signature], ids=lambda e: e.__name__)
@pytest.mark.parametrize("problem", ["toric", "member"])
def test_budget_of_the_reduced_pairs_completes(request, problem, engine):
    # max_pairs bounds the pairs an engine reduces: at exactly a complete
    # run's count the skipped pairs left in the queue drain and the run
    # completes; one pair fewer stops it
    F = request.getfixturevalue(f"{problem}_problem").generators
    full = engine(F)
    n = full.stats["pairs_processed"]
    capped = engine(F, EngineLimits(max_pairs=n))
    assert full.status == capped.status == COMPLETE and capped.basis == full.basis
    assert engine(F, EngineLimits(max_pairs=n - 1)).status == BUDGET


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
@pytest.mark.parametrize("problem", ["toric", "member", "wide5", "wide5_budget"])
def test_corpus_bases_hold_fractions(problem, engine):
    # the corpus problems under their own options, complete or budgeted
    file = parse((GOLDEN / f"{problem}.egb").read_text())
    res = engine(file.generators, EngineLimits(**file.options))
    assert res.basis and holds_fractions(res.basis)


def test_unweighted_ring_engines_agree():
    # weights = false moves the lead from y[1,0] to x[1]^2, and with it the
    # pair-queue keys and the signature degree bands; every engine
    # completes, on the same ideal, with a basis that passes is_egb
    problem = parse(UNWEIGHTED_TEXT)
    results = [engine(problem.generators, EngineLimits(max_width=6)) for engine in ENGINES]
    assert [r.status for r in results] == [COMPLETE] * 3
    assert [format_polynomial(f) for f in results[0].basis] == [
        "x[1]^2 - y[1,0]",
        "y[2,1] - y[2,0]",
    ]
    for r in results:
        assert is_egb(r.basis)
    for a, b in combinations([r.basis for r in results], 2):
        assert ideal_equal(a, b)


def test_monomial_map_basis_holds_fractions():
    res = egb_incremental(parse(MONOMIAL_MAP_TEXT).generators, EngineLimits(max_width=4))
    assert len(res.basis) == 58 and holds_fractions(res.basis)


def test_budget_basis_of_divisible_leads(x_problem):
    # no pair fits the width budget, so every engine returns the generators
    F = [expr(x_problem, "x[0]"), expr(x_problem, "x[1]*x[0] + 1")]
    for engine in ENGINES:
        res = engine(F, EngineLimits(max_width=1))
        assert res.status == BUDGET
        assert res.basis == F
    assert format_polynomial(normal_form(F[1], F)) == "1"


def test_incremental_budget_basis_spans_generators(x_problem):
    # the interreduced level basis [x1*x0 - x0, x2 + 1] does not keep the
    # second generator, which leaves 2*x0 against it
    F = [expr(x_problem, "x[2] + 1"), expr(x_problem, "x[2]*x[0] + x[1]*x[0]")]
    res = egb_incremental(F, LIMITS)
    assert res.status == BUDGET
    assert not normal_form(F[1], res.basis).is_zero
    assert spans_generators(res.basis, F)


@pytest.mark.parametrize("order_kind", ["lex", "grlex"])
def test_signature_budget_drains_narrow_pairs(order_kind):
    # the signature queue runs by degree band, so a pair past max_width can
    # pop before narrower ones: it is skipped, as in the direct engine, and
    # the run goes on; stopping at it returned only the generators
    problem = parse(X_RING_TEXT.replace("kind = lex", f"kind = {order_kind}"))
    F = [expr(problem, "x[2]*x[0] + 3"), expr(problem, "x[2]*x[1]*x[0]")]
    res, direct = egb_signature(F, LIMITS), egb_buchberger(F, LIMITS)
    assert res.status == direct.status == BUDGET
    assert res.stats["pairs_processed"] == 4  # 5 with covered pops, 10 before the Koszul rule
    assert [format_polynomial(f) for f in res.basis] == [
        "x[2]*x[0] + 3",
        "x[2]*x[1]*x[0]",
        "x[1]",
        "1",
    ]
    assert res.basis == direct.basis


def test_coprime_over_width_pairs_stop_nothing():
    # a derandomized input of inputs() at max_width=4: every J-pair wider
    # than 4 had coprime moved leads and distinct Schreyer heads, so the
    # signature engine dropped 35 of them for width and returned BUDGET
    # after 27 pairs, with this basis.  The Koszul rule drops them first
    ring = Ring((FamilySpec("x"), FamilySpec("y", arity=2, constraint="all_distinct")))
    F = [parse_polynomial(ring, "-x[1]*y[1,0]*y[0,1] + 1")]
    limits = EngineLimits(max_width=4)
    res, direct = egb_signature(F, limits), egb_buchberger(F, limits)
    assert res.status == direct.status == COMPLETE
    assert [format_polynomial(f) for f in res.basis] == [
        "x[1]*y[1,0]*y[0,1] - 1",
        "y[2,1]*y[1,2] - y[2,0]*y[0,2]",
    ]
    assert res.stats["koszul_pairs"] > 0
    assert is_egb(res.basis) and ideal_equal(res.basis, direct.basis)
