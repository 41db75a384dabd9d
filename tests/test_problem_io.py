"""Problem-file parsing and canonical serialization."""

import time

import pytest

from incgb.poly import lm
from incgb.problems import (
    ProblemSyntaxError,
    format_monomial,
    format_polynomial,
    parse,
    serialize,
    serialize_ring,
)
from incgb.rings import Monomial

from conftest import MEMBER_TEXT, TORIC_TEXT, X_RING_TEXT, expr, xmono


class TestParse:
    def test_x_ring(self, x_problem):
        ring = x_problem.ring
        assert len(ring.families) == 1
        assert ring.families[0].name == "x"
        assert ring.families[0].arity == 1
        assert ring.order_kind == "lex"

    def test_toric(self, toric_problem):
        ring = toric_problem.ring
        assert [f.name for f in ring.families] == ["x", "y"]
        assert ring.families[1].arity == 2
        assert ring.families[1].constraint == "strictly_decreasing"
        assert ring.families[1].weight == 2
        assert len(toric_problem.generators) == 1
        f = toric_problem.generators[0]
        assert format_polynomial(f) in ("y[1,0] - x[1]*x[0]", "-x[1]*x[0] + y[1,0]")

    def test_member_generator(self, member_problem):
        (g,) = member_problem.generators
        assert lm(g) == xmono(1, 2, 2)

    def test_numeric_literals_and_powers(self, x_problem):
        f = expr(x_problem, "3*x[2]^2 - 5*x[0] + 7")
        assert len(f.terms) == 3
        assert format_polynomial(f) == "3*x[2]^2 - 5*x[0] + 7"

    def test_powers_match_repeated_products(self, x_problem):
        base = "(x[1] - 2*x[0] + 1/3)"
        for k in range(7):
            product = "*".join([base] * k) or "1"
            assert expr(x_problem, f"{base}^{k}") == expr(x_problem, product), k

    def test_huge_power_parses_fast(self, x_problem):
        # square and multiply: about 30 products, not 10^9
        start = time.monotonic()
        f = expr(x_problem, "x[0]^1000000000")
        assert time.monotonic() - start < 1
        [(c, m)] = f.terms
        assert c == 1 and [e for _, e in m.factors] == [10**9]

    def test_options_block(self):
        pf = parse(X_RING_TEXT + "options { max_width = 7; algorithm = buchberger; strict = true; }\n")
        assert pf.options == {"max_width": 7, "algorithm": "buchberger", "strict": True}

    def test_whitespace_and_newlines_irrelevant(self):
        a = parse(TORIC_TEXT)
        b = parse(" ".join(TORIC_TEXT.split()))
        assert a.ring == b.ring and a.generators == b.generators


class TestSyntaxErrors:
    def test_truncated_expression(self):
        bad = X_RING_TEXT.replace("x[0];", "x[0] + ;")
        with pytest.raises(ProblemSyntaxError) as e:
            parse(bad)
        assert e.value.line >= 1 and e.value.col >= 1

    def test_unexpected_character(self):
        with pytest.raises(ProblemSyntaxError):
            parse(X_RING_TEXT.replace("x[0];", "x[0] $ 1;"))

    def test_constraint_violation_rejected(self):
        bad = TORIC_TEXT.replace("y[1,0]", "y[1,2]")
        with pytest.raises(ProblemSyntaxError) as e:
            parse(bad)
        assert "y" in str(e.value)

    def test_missing_ring_block(self):
        with pytest.raises(ProblemSyntaxError):
            parse("generators { x[0]; }")

    def test_unknown_family(self):
        with pytest.raises(ProblemSyntaxError):
            parse(X_RING_TEXT.replace("x[0];", "z[0];"))


class TestFormatting:
    def test_unit_monomial(self, x_ring):
        assert format_monomial(x_ring, Monomial()) == "1"

    def test_power_grouping(self, x_ring):
        assert format_monomial(x_ring, xmono(0, 0, 2)) == "x[2]*x[0]^2"

    def test_zero_polynomial(self, x_problem):
        from incgb.poly import zero

        assert format_polynomial(zero(x_problem.ring)) == "0"

    def test_expression_round_trip(self, x_problem):
        for text in [
            "x[1]*x[0] - x[2]",
            "x[0]^2 - x[1]*x[0]",
            "x[1]^3 - x[1]*x[0]^2 + 1",
            "-x[4] + 2*x[3] - 3",
        ]:
            f = expr(x_problem, text)
            assert expr(x_problem, format_polynomial(f)) == f


class TestSerialize:
    def test_round_trip(self, member_problem):
        text = serialize(member_problem.generators, member_problem.ring)
        pf = parse(text)
        assert pf.ring == member_problem.ring
        assert pf.generators == member_problem.generators

    def test_double_round_trip_is_fixed_point(self, toric_problem):
        once = serialize(toric_problem.generators, toric_problem.ring)
        pf = parse(once)
        twice = serialize(pf.generators, pf.ring)
        assert once == twice

    def test_empty_basis(self, x_ring):
        text = serialize([], x_ring)
        assert parse(text).generators == []

    def test_basis_sorted_by_width_then_degree(self, x_problem):
        gens = [
            expr(x_problem, "x[2]*x[0] - 1"),
            expr(x_problem, "x[0]"),
            expr(x_problem, "x[0]^2 - x[0]"),
        ]
        text = serialize(gens, x_problem.ring)
        in_gens = False
        body = []
        for l in text.splitlines():
            if l.startswith("generators"):
                in_gens = True
            elif l.startswith("}"):
                in_gens = False
            elif in_gens:
                body.append(l.strip().rstrip(";"))
        assert body == ["x[0]", "x[0]^2 - x[0]", "x[2]*x[0] - 1"]

    def test_byte_determinism(self, toric_problem):
        a = serialize(toric_problem.generators, toric_problem.ring, {"max_width": 6})
        b = serialize(toric_problem.generators, toric_problem.ring, {"max_width": 6})
        assert a == b

    def test_ring_block_round_trip(self, toric_problem):
        text = serialize_ring(toric_problem.ring) + "\ngenerators { }\n"
        assert parse(text).ring == toric_problem.ring
