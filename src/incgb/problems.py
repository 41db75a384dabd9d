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

Family declaration order doubles as the default precedence (first listed is
greatest).  Generator expressions use + - * ^, integer and rational literals
and parentheses, and are whitespace-insensitive; generators are separated by
semicolons.  Variables are written ``x[3]`` or ``y[2,1]`` and are checked
against their family's arity and index constraint at parse time, with a
line/column diagnostic on violation.  The options block is free-form
key = value pairs interpreted by the CLI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import Polynomial, add, constant, mul, poly, scale, sorted_basis, subtract
from .rings import FamilySpec, Monomial, Ring


class ProblemSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


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
        return tok

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

    # --- file structure -------------------------------------------------

    def parse_file(self) -> ProblemFile:
        ring = None
        gens_src = None
        options = {}
        while self.peek()[0] != "eof":
            section = self.expect_name()
            if section == "ring":
                ring = self.parse_ring()
            elif section == "generators":
                gens_src = self.collect_generator_tokens()
            elif section == "options":
                options = self.parse_options()
            else:
                self.error(f"unknown section {section!r}")
        if ring is None:
            self.error("missing ring block")
        if gens_src is None:
            self.error("missing generators block")
        gens = []
        for chunk in gens_src:
            sub = _Parser("")
            sub.tokens = chunk + [("eof", "", chunk[0][2], chunk[0][3])]
            gens.append(sub.parse_expression(ring))
            if sub.peek()[0] != "eof":
                sub.error("trailing input after expression")
        return ProblemFile(ring, gens, options)

    def parse_ring(self) -> Ring:
        self.expect("{")
        families = []
        order_kind = "lex"
        precedence = None
        use_weights = True
        while self.peek()[1] != "}":
            word = self.expect_name()
            if word == "family":
                families.append(self.parse_family())
            elif word == "order":
                order_kind, precedence, use_weights = self.parse_order()
            else:
                self.error(f"expected 'family' or 'order', found {word!r}")
        self.expect("}")
        if not families:
            self.error("ring block declares no families")
        if precedence is not None:
            by_name = {f.name: f for f in families}
            if sorted(precedence) != sorted(by_name):
                self.error("order precedence must list every family exactly once")
            families = [by_name[n] for n in precedence]
        return Ring(tuple(families), order_kind, use_weights)

    def parse_family(self) -> FamilySpec:
        name = self.expect_name()
        self.expect("{")
        fields = {"arity": 1, "constraint": "none", "weight": 1}
        while self.peek()[1] != "}":
            key = self.expect_name()
            self.expect("=")
            if key in ("arity", "weight"):
                fields[key] = self.expect_nat()
            elif key == "constraint":
                fields[key] = self.expect_name()
            else:
                self.error(f"unknown family field {key!r}")
            if self.peek()[1] == ",":
                self.next()
        self.expect("}")
        try:
            return FamilySpec(name, **fields)
        except ValueError as exc:
            self.error(str(exc))

    def parse_order(self):
        self.expect("{")
        kind = "lex"
        precedence = None
        use_weights = True
        while self.peek()[1] != "}":
            key = self.expect_name()
            self.expect("=")
            if key == "kind":
                kind = self.expect_name()
            elif key == "precedence":
                self.expect("[")
                precedence = [self.expect_name()]
                while self.peek()[1] == ",":
                    self.next()
                    precedence.append(self.expect_name())
                self.expect("]")
            elif key == "weights":
                word = self.expect_name()
                if word not in ("true", "false"):
                    self.error("weights must be true or false")
                use_weights = word == "true"
            else:
                self.error(f"unknown order field {key!r}")
            if self.peek()[1] == ",":
                self.next()
        self.expect("}")
        return kind, precedence, use_weights

    def collect_generator_tokens(self):
        self.expect("{")
        chunks = []
        current = []
        depth = 0
        while True:
            tok = self.peek()
            if tok[0] == "eof":
                self.error("unterminated generators block", tok)
            if tok[1] == "{":
                depth += 1
            if tok[1] == "}" and depth == 0:
                self.next()
                break
            if tok[1] == "}":
                depth -= 1
            if tok[1] == ";" and depth == 0:
                self.next()
                if current:
                    chunks.append(current)
                current = []
                continue
            current.append(self.next())
        if current:
            chunks.append(current)
        return chunks

    def parse_options(self):
        self.expect("{")
        options = {}
        while self.peek()[1] != "}":
            key = self.expect_name()
            self.expect("=")
            tok = self.next()
            if tok[0] == "num":
                options[key] = int(tok[1])
            elif tok[0] == "name":
                options[key] = {"true": True, "false": False}.get(tok[1], tok[1])
            else:
                self.error("expected an option value", tok)
            if self.peek()[1] in (",", ";"):
                self.next()
        self.expect("}")
        return options

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
            self.next()
            lhs = mul(lhs, self.parse_factor(ring))
        return lhs

    def parse_factor(self, ring: Ring) -> Polynomial:
        base = self.parse_atom(ring)
        if self.peek()[1] == "^":
            self.next()
            exponent = self.expect_nat()
            out = constant(ring, 1)
            while exponent:  # square and multiply
                if exponent & 1:
                    out = mul(out, base)
                exponent >>= 1
                if exponent:
                    base = mul(base, base)
            return out
        return base

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
                value /= self.expect_nat()
            return constant(ring, value)
        if tok[0] == "name":
            self.next()
            self.expect("[")
            indices = [self.expect_nat()]
            while self.peek()[1] == ",":
                self.next()
                indices.append(self.expect_nat())
            self.expect("]")
            try:
                var = ring.variable(tok[1], indices)
            except (KeyError, ValueError) as exc:
                self.error(str(exc), tok)
            return poly(ring, [(Fraction(1), Monomial(((var, 1),)))])
        self.error("expected a number, variable, or parenthesized expression", tok)


def parse(text: str) -> ProblemFile:
    return _Parser(text).parse_file()


# --- serialization ------------------------------------------------------


def format_monomial(ring: Ring, m: Monomial) -> str:
    if m.is_unit:
        return "1"
    parts = []
    for var, e in m.factors:
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


def serialize(basis, ring: Ring, options=None) -> str:
    """Canonical problem-file text for a basis (round-trips through parse)."""
    lines = [serialize_ring(ring), "generators {"]
    for f in sorted_basis(list(basis)):
        lines.append(f"  {format_polynomial(f)};")
    lines.append("}")
    if options:
        lines.append("options {")
        for key in sorted(options):
            value = options[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"  {key} = {value};")
        lines.append("}")
    return "\n".join(lines) + "\n"
