"""Problem-file grammar, parser, and canonical serialization.

A problem file has three blocks::

    ring {
      family x { arity = 1, constraint = none, weight = 1 }
      family y { arity = 2, constraint = strictly_decreasing, weight = 2 }
      order { kind = lex, precedence = [x, y], weights = true }
    }
    generators {
      y[1,0] - x[1]*x[0];
    }
    options {
      algorithm = buchberger;
      max_width = 16;
    }

The blocks may come in any order.  Family declaration order doubles as the
default precedence (first listed is greatest).  In the family, order and
options blocks, ``,`` or ``;`` separates the ``key = value`` fields; the
options are free-form and interpreted by the CLI.  Generator expressions use
+ - * ^, integer and rational literals and parentheses, and are
whitespace-insensitive; generators are separated by semicolons.  Variables
are written ``x[3]`` or ``y[2,1]`` and are checked against their family's
arity and index constraint at parse time.  A product or power that would
multiply out more than ``MAX_TERM_PRODUCTS`` pairs of terms in one step is an
error at its ``*`` or ``^``, so a hostile power of a sum fails fast; so is a
power whose coefficients would pass ``MAX_COEFFICIENT_BITS``.  Every error is a ``ProblemSyntaxError`` with a line/column diagnostic.
``parse_polynomial`` reads one expression that must use the whole of its text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2

from .poly import Polynomial, add, constant, mul, poly, scale, sorted_basis, subtract
from .rings import FamilySpec, Monomial, Ring


class ProblemSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


MAX_TERM_PRODUCTS = 10_000
MAX_COEFFICIENT_BITS = 100_000


@dataclass
class ProblemFile:
    ring: Ring
    generators: list
    options: dict = field(default_factory=dict)


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[{}\[\],=;()+\-*/^])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ProblemSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ProblemSyntaxError(message, tok[2], tok[3])

    def expect(self, lexeme):
        tok = self.next()
        if tok[1] != lexeme:
            found = repr(tok[1]) if tok[1] else "end of input"
            self.error(f"expected {lexeme!r}, found {found}", tok)

    def expect_name(self):
        tok = self.next()
        if tok[0] != "name":
            self.error("expected an identifier", tok)
        return tok[1]

    def expect_nat(self):
        tok = self.next()
        if tok[0] != "num":
            self.error("expected a number", tok)
        return int(tok[1])

    def bracketed(self, read_item):
        """``[item, item, ...]``, one item or more."""
        self.expect("[")
        items = [read_item()]
        while self.peek()[1] == ",":
            self.next()
            items.append(read_item())
        self.expect("]")
        return items

    def checked(self, build, *args, tok=None, **kwargs):
        """``build(*args, **kwargs)``, its KeyError or ValueError reported at tok."""
        try:
            return build(*args, **kwargs)
        except (KeyError, ValueError) as exc:
            self.error(exc.args[0], tok)

    # --- file structure -------------------------------------------------

    def parse_file(self) -> ProblemFile:
        ring = None
        gens_at = None
        options = {}
        while self.peek()[0] != "eof":
            at, section = self.peek(), self.expect_name()
            if section == "ring":
                ring = self.parse_ring()
            elif section == "generators":
                gens_at = self.pos
                self.skip_block()
            elif section == "options":
                options = self.parse_fields(self.option_value)
            else:
                self.error(f"unknown section {section!r}", at)
        if ring is None:
            self.error("missing ring block")
        if gens_at is None:
            self.error("missing generators block")
        self.pos = gens_at  # the generators need the ring, which may come later
        return ProblemFile(ring, self.parse_generators(ring), options)

    def skip_block(self):
        self.expect("{")
        depth = 0
        while depth or self.peek()[1] != "}":
            tok = self.next()
            if tok[0] == "eof":
                self.error("unterminated generators block", tok)
            depth += {"{": 1, "}": -1}.get(tok[1], 0)
        self.next()

    def parse_generators(self, ring: Ring) -> list:
        self.expect("{")
        gens = []
        while self.peek()[1] != "}":
            if self.peek()[1] != ";":
                gens.append(self.parse_expression(ring))
            if self.peek()[1] != "}":
                self.expect(";")
        self.next()
        return gens

    def parse_fields(self, read_value) -> dict:
        """A ``{ key = value, ... }`` block, fields separated by ``,`` or
        ``;``.  ``read_value(key)`` reads the value or rejects the key."""
        self.expect("{")
        fields = {}
        while self.peek()[1] != "}":
            key = self.expect_name()
            self.expect("=")
            fields[key] = read_value(key)
            if self.peek()[1] in (",", ";"):
                self.next()
        self.next()
        return fields

    def parse_ring(self) -> Ring:
        self.expect("{")
        families = []
        order = {}
        while self.peek()[1] != "}":
            at, word = self.peek(), self.expect_name()
            if word == "family":
                name = self.expect_name()
                fields = self.parse_fields(self.family_value)
                families.append(self.checked(FamilySpec, name, **fields, tok=at))
            elif word == "order":
                order = self.parse_fields(self.order_value)
            else:
                self.error(f"expected 'family' or 'order', found {word!r}", at)
        self.next()
        if not families:
            self.error("ring block declares no families")
        if "precedence" in order:
            by_name = {f.name: f for f in families}
            if sorted(order["precedence"]) != sorted(f.name for f in families):
                self.error("order precedence must list every family exactly once")
            families = [by_name[n] for n in order["precedence"]]
        kind, weights = order.get("kind", "lex"), order.get("weights", True)
        return self.checked(Ring, tuple(families), kind, weights)

    def family_value(self, key):
        if key in ("arity", "weight"):
            return self.expect_nat()
        if key == "constraint":
            return self.expect_name()
        self.error(f"unknown family field {key!r}", self.tokens[self.pos - 2])  # the key

    def order_value(self, key):
        if key == "kind":
            return self.expect_name()
        if key == "precedence":
            return self.bracketed(self.expect_name)
        if key == "weights":
            at, word = self.peek(), self.expect_name()
            if word not in ("true", "false"):
                self.error("weights must be true or false", at)
            return word == "true"
        self.error(f"unknown order field {key!r}", self.tokens[self.pos - 2])  # the key

    def option_value(self, key):
        tok = self.next()
        if tok[0] == "num":
            return int(tok[1])
        if tok[0] == "name":
            return {"true": True, "false": False}.get(tok[1], tok[1])
        self.error("expected an option value", tok)

    # --- expressions ----------------------------------------------------

    def parse_expression(self, ring: Ring) -> Polynomial:
        lhs = self.parse_term(ring)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term(ring)
            lhs = add(lhs, rhs) if op == "+" else subtract(lhs, rhs)
        return lhs

    def parse_term(self, ring: Ring) -> Polynomial:
        lhs = self.parse_factor(ring)
        while self.peek()[1] == "*":
            op = self.next()
            lhs = self.product(lhs, self.parse_factor(ring), op)
        return lhs

    def parse_factor(self, ring: Ring) -> Polynomial:
        base = self.parse_atom(ring)
        if self.peek()[1] == "^":
            op = self.next()
            exponent = self.expect_nat()
            # log2 of c^e is e * log2(c), c the larger of numerator and denominator
            sizes = (max(abs(c.numerator), c.denominator) for c, _ in base.terms)
            bits = log2(max(sizes, default=1))
            if bits and exponent > MAX_COEFFICIENT_BITS / bits:
                self.error(f"coefficient past {MAX_COEFFICIENT_BITS} bits", op)
            out = constant(ring, 1)
            while exponent:  # square and multiply
                if exponent & 1:
                    out = self.product(out, base, op)
                exponent >>= 1
                if exponent:
                    base = self.product(base, base, op)
            return out
        return base

    def product(self, f, g, op):
        """f * g, unless it multiplies out more than MAX_TERM_PRODUCTS term
        pairs: then an error at the operator token ``op``."""
        if len(f.terms) * len(g.terms) > MAX_TERM_PRODUCTS:
            self.error(f"expansion past {MAX_TERM_PRODUCTS} term products", op)
        return mul(f, g)

    def parse_atom(self, ring: Ring) -> Polynomial:
        tok = self.peek()
        if tok[1] == "-":
            self.next()
            return scale(self.parse_factor(ring), -1)
        if tok[1] == "(":
            self.next()
            inner = self.parse_expression(ring)
            self.expect(")")
            return inner
        if tok[0] == "num":
            self.next()
            value = Fraction(int(tok[1]))
            if self.peek()[1] == "/":
                self.next()
                tok = self.peek()
                den = self.expect_nat()
                if den == 0:
                    self.error("zero denominator", tok)
                value /= den
            return constant(ring, value)
        if tok[0] == "name":
            self.next()
            var = self.checked(ring.variable, tok[1], self.bracketed(self.expect_nat), tok=tok)
            return poly(ring, [(Fraction(1), Monomial(((var, 1),)))])
        self.error("expected a number, variable, or parenthesized expression", tok)


def parse(text: str) -> ProblemFile:
    return _Parser(text).parse_file()


def parse_polynomial(ring: Ring, text: str) -> Polynomial:
    """One expression in ring's variables that must use the whole of text."""
    parser = _Parser(text)
    f = parser.parse_expression(ring)
    if parser.peek()[0] != "eof":
        parser.error("trailing input after expression")
    return f


# --- serialization ------------------------------------------------------


def format_monomial(ring: Ring, m: Monomial) -> str:
    if m.is_unit:
        return "1"
    parts = []
    for var, e in m:
        v = f"{ring.family_of(var).name}[{','.join(str(i) for i in var[1])}]"
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    out = []
    for k, (c, m) in enumerate(f.terms):
        mag = abs(c)
        if m.is_unit:
            body = str(mag)
        elif mag == 1:
            body = format_monomial(f.ring, m)
        else:
            body = f"{mag}*{format_monomial(f.ring, m)}"
        if k == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def serialize_ring(ring: Ring) -> str:
    lines = ["ring {"]
    for f in ring.families:
        lines.append(
            f"  family {f.name} {{ arity = {f.arity}, constraint = {f.constraint},"
            f" weight = {f.weight} }}"
        )
    prec = ", ".join(f.name for f in ring.families)
    weights = "true" if ring.use_weights else "false"
    lines.append(
        f"  order {{ kind = {ring.order_kind}, precedence = [{prec}], weights = {weights} }}"
    )
    lines.append("}")
    return "\n".join(lines)


def serialize(basis, ring: Ring) -> str:
    """Canonical problem-file text for a basis (round-trips through parse)."""
    gens = "".join(f"  {format_polynomial(f)};\n" for f in sorted_basis(list(basis)))
    return f"{serialize_ring(ring)}\ngenerators {{\n{gens}}}\n"
