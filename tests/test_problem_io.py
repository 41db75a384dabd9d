"""Problem-file parsing and canonical serialization."""

import time

import pytest

from incgb.poly import lm
from incgb.problems import (
    ProblemSyntaxError,
    format_monomial,
    format_polynomial,
    parse,
    parse_polynomial,
    serialize,
    serialize_ring,
)
from incgb.rings import Monomial

from conftest import TORIC_TEXT, UNWEIGHTED_TEXT, X_RING_TEXT, expr, xmono

RING = "ring { family x { arity = 1 } }"
GENS = "generators { x[0]; }"


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

    def test_semicolons_separate_fields(self):
        # every { key = value } block takes , or ; between fields
        text = TORIC_TEXT.replace(", ", "; ").replace("[x; y]", "[x, y]")
        assert "arity = 2; constraint" in text and "kind = lex; precedence" in text
        assert parse(text) == parse(TORIC_TEXT)

    def test_generators_before_ring(self):
        ring, rest = TORIC_TEXT.split("generators")
        options = "options { max_width = 5, algorithm = signature }\n"
        text = options + "generators" + rest + ring
        assert parse(text) == parse(TORIC_TEXT + options)

    def test_parse_polynomial(self, x_problem):
        f = parse_polynomial(x_problem.ring, "x[1]*x[0] - 2")
        assert format_polynomial(f) == "x[1]*x[0] - 2"
        with pytest.raises(ProblemSyntaxError) as e:
            parse_polynomial(x_problem.ring, "x[1] x[0]")
        assert str(e.value) == "1:6: trailing input after expression"


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

    def test_zero_denominator(self, x_problem):
        # a diagnostic at the denominator, not a ZeroDivisionError
        text = "ring { family x { arity = 1 } }\ngenerators { x[0] - 1/0; }\n"
        with pytest.raises(ProblemSyntaxError) as e:
            parse(text)
        assert (e.value.line, e.value.col) == (2, 23)
        with pytest.raises(ProblemSyntaxError) as e:
            parse_polynomial(x_problem.ring, "1/0")
        assert str(e.value) == "1:3: zero denominator"

    def test_expansion_capped_at_the_operator(self, x_problem):
        # a hostile power of a sum fails at its ^, before expanding
        with pytest.raises(ProblemSyntaxError) as e:
            parse_polynomial(x_problem.ring, "(x[0] + x[1])^2000")
        assert str(e.value) == "1:14: expansion past 10000 term products"
        wide = "*".join(f"(x[{2 * i}] + x[{2 * i + 1}])" for i in range(15))
        with pytest.raises(ProblemSyntaxError) as e:
            parse_polynomial(x_problem.ring, wide)
        assert wide[e.value.col - 1] == "*"
        # a large exponent on a monomial, and a modest power of a sum, still parse
        assert len(parse_polynomial(x_problem.ring, "x[0]^1000000").terms) == 1
        assert len(parse_polynomial(x_problem.ring, "(x[0] + x[1])^100").terms) == 101

    def test_coefficient_capped_at_the_operator(self, x_problem):
        # a power whose coefficient would pass MAX_COEFFICIENT_BITS fails at
        # its ^, before expanding; a power of a unit coefficient costs nothing
        for text, col in [("2^100001", 2), ("(1/3)^3000000*x[0]", 6), ("(2^1000)^1000", 9)]:
            with pytest.raises(ProblemSyntaxError) as e:
                parse_polynomial(x_problem.ring, text)
            assert str(e.value) == f"1:{col}: coefficient past 100000 bits"
        assert parse_polynomial(x_problem.ring, "2^100000").terms[0][0] == 2**100000
        huge = "1" * 400  # a 400-digit exponent
        for text in ("x[0]^1000000000", "1^1000000000", "(-1)^" + huge, "x[0]^" + huge):
            f = parse_polynomial(x_problem.ring, text)
            assert len(f.terms) == 1 and abs(f.terms[0][0]) == 1

    def test_unknown_family_message(self, x_problem):
        # the message itself, not the quoted str() of a KeyError
        with pytest.raises(ProblemSyntaxError) as e:
            parse_polynomial(x_problem.ring, "z[0]")
        assert str(e.value) == "1:1: no family named 'z'"

    def test_error_points_at_offending_token(self):
        text = "ring { family x { arity = 1 } }\ngenerators { x[0] + ; }\n"
        with pytest.raises(ProblemSyntaxError) as e:
            parse(text)
        assert (e.value.line, e.value.col) == (2, 21)

    @pytest.mark.parametrize(
        "ring, message",
        [
            ("family x { arity = 1 } family x { arity = 1 }", "family names must be unique"),
            ("family x { arity = 1 } order { kind = revlex }", "unknown order kind 'revlex'"),
            (
                "family x { arity = 1 } family x { arity = 2 } order { precedence = [x] }",
                "order precedence must list every family exactly once",
            ),
        ],
        ids=["duplicate-family", "unknown-order-kind", "duplicate-family-in-precedence"],
    )
    def test_malformed_ring(self, ring, message):
        with pytest.raises(ProblemSyntaxError) as e:
            parse(f"ring {{ {ring} }}\ngenerators {{ x[0]; }}\n")
        assert str(e.value) == f"2:1: {message}"

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            (f"ring {{ family x {{ arity 1 }} }}\n{GENS}", "1:25: expected '=', found '1'"),
            (f"{RING}\n{GENS}\noptions {{ max_width", "3:20: expected '=', found end of input"),
            (f"ring {{ family 1 {{ arity = 1 }} }}\n{GENS}", "1:15: expected an identifier"),
            (f"ring {{ family x {{ arity = one }} }}\n{GENS}", "1:27: expected a number"),
            (f"{RING}\n{GENS}\nsolver {{ }}", "3:1: unknown section 'solver'"),
            (RING, "1:32: missing generators block"),
            (f"{RING}\ngenerators {{ x[0];", "2:19: unterminated generators block"),
            (
                f"ring {{ families x {{ }} }}\n{GENS}",
                "1:8: expected 'family' or 'order', found 'families'",
            ),
            (f"ring {{ order {{ kind = lex }} }}\n{GENS}", "2:1: ring block declares no families"),
            (
                f"ring {{ family x {{ arity = 1, size = 2 }} }}\n{GENS}",
                "1:30: unknown family field 'size'",
            ),
            (
                f"ring {{ family x {{ arity = 1 }} order {{ direction = up }} }}\n{GENS}",
                "1:39: unknown order field 'direction'",
            ),
            (
                f"ring {{ family x {{ arity = 1 }} order {{ weights = yes }} }}\n{GENS}",
                "1:49: weights must be true or false",
            ),
            (f"{RING}\n{GENS}\noptions {{ max_width = [3]; }}", "3:23: expected an option value"),
            (f"ring {{ family x {{ arity = 0 }} }}\n{GENS}", "1:8: family x: arity must be >= 1"),
            (
                f"ring {{ family x {{ arity = 1, weight = 0 }} }}\n{GENS}",
                "1:8: family x: weight must be >= 1",
            ),
            (
                f"ring {{ family x {{ arity = 1, constraint = odd }} }}\n{GENS}",
                "1:8: family x: unknown constraint 'odd'",
            ),
            (f"{RING}\ngenerators {{ x[1,2]; }}", "2:14: x[1, 2]: expects 1 indices, got 2"),
        ],
        ids=[
            "expected-found",
            "expected-end-of-input",
            "missing-identifier",
            "missing-number",
            "unknown-section",
            "missing-generators",
            "unterminated-generators",
            "unknown-ring-word",
            "no-families",
            "unknown-family-field",
            "unknown-order-field",
            "weights-not-boolean",
            "bad-option-value",
            "arity-zero",
            "weight-zero",
            "unknown-constraint",
            "index-count",
        ],
    )
    def test_malformed_file(self, text, diagnostic):
        # each diagnostic points at the offending token: a misplaced word, a
        # field's key or value, a family's declaration, a variable's name
        with pytest.raises(ProblemSyntaxError) as e:
            parse(text)
        assert str(e.value) == diagnostic


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
        a = serialize(toric_problem.generators, toric_problem.ring)
        b = serialize(toric_problem.generators, toric_problem.ring)
        assert a == b

    def test_unweighted_round_trip(self):
        # weights = false survives serialize and parse, and keeps the
        # family weights it ignores
        problem = parse(UNWEIGHTED_TEXT)
        assert not problem.ring.use_weights
        assert [f.weight for f in problem.ring.families] == [1, 3]
        assert [format_polynomial(f) for f in problem.generators] == ["-x[1]^2 + y[1,0]"]
        text = serialize(problem.generators, problem.ring)
        assert "weights = false" in text
        again = parse(text)
        assert again.ring == problem.ring
        assert again.generators == problem.generators
        assert serialize(again.generators, again.ring) == text

    def test_ring_block_round_trip(self, toric_problem):
        text = serialize_ring(toric_problem.ring) + "\ngenerators { }\n"
        assert parse(text).ring == toric_problem.ring
