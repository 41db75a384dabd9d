"""The benchmark's workloads: their set-up, one timed pass, and the checks.

A workload's pass is a fixed amount of work, so its counters repeat exactly
from run to run.  The seed fixes the order of the solves in each pass, and
the query stream of ``reduce-queries``.  Every output is checked after the
timed region; a wrong answer or an exception counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"

MODULES = ("incmaps", "rings", "poly", "spairs", "buchberger", "signature", "problems", "cli")

LIMIT_KEYS = ("max_width", "max_pairs", "max_basis")

COMPLETE = "complete"
BUDGET = "budget_exhausted"

# The reference basis each problem's answer is checked against: ideal
# equality for a complete answer, containment in the ideal for a partial one.
REFERENCES = {
    "toric": "toric",
    "member": "member",
    "wide5": "wide5",
    "wide5_budget": "wide5",
    "monomial_map": None,
}

# Problems whose ideal is the kernel of a monomial map y[i,j] -> x[i]^a*x[j]^b,
# as (a, b): every basis element, partial or complete, must vanish under it.
KERNELS = {
    "toric": (1, 1),
    "monomial_map": (2, 1),
}

EXPECTED_STATUS = {
    "toric": (COMPLETE,),
    "member": (COMPLETE,),
    "wide5": (COMPLETE,),
    "wide5_budget": (BUDGET,),
    "monomial_map": (COMPLETE, BUDGET),
}

# Engine statistics under a fixed key set: keys an engine leaves out are 0.
COUNTER_KEYS = {
    "buchberger": ("pairs_processed", "zero_reductions", "insertions", "levels", "final_width"),
    "signature": (
        "pairs_processed",
        "zero_reductions",
        "covered_pairs",
        "singular_discards",
        "duplicate_signatures",
        "insertions",
        "syzygies",
        "tied_zero_reductions",
    ),
}

ENGINES = {
    "buchberger": ("buchberger", "egb_buchberger"),
    "incremental": ("buchberger", "egb_incremental"),
    "signature": ("signature", "egb_signature"),
}


class Lib:
    """The incgb modules, looked up at call time so tracing can rebind them."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "incgb" or m.startswith("incgb.")]:
            del sys.modules[name]
        self.package = importlib.import_module("incgb")
        self.modules = [importlib.import_module(f"incgb.{m}") for m in MODULES]
        for mod in self.modules:
            setattr(self, mod.__name__.rsplit(".", 1)[-1], mod)

    def clear_caches(self):
        """Empty every functools cache in the package, as in a fresh CLI run."""
        seen = set()
        for mod in self.modules:
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and id(obj) not in seen:
                    seen.add(id(obj))
                    obj.cache_clear()

    def load(self, name):
        return self.problems.parse((CORPUS / f"{name}.egb").read_text())

    def limits(self, problem):
        opts = {k: problem.options[k] for k in LIMIT_KEYS if k in problem.options}
        return self.buchberger.EngineLimits(**opts)

    def solve(self, engine, problem):
        module, fn = ENGINES[engine]
        solver = getattr(getattr(self, module), fn)
        if engine == "signature":
            return solver(problem.generators, limits=self.limits(problem))
        return solver(problem.generators, self.limits(problem))

    def reduces_to_zero(self, f, basis):
        return self.poly.normal_form(f, basis).is_zero

    def ideal_equal(self, a, b):
        """Mutual orbit reduction to zero; decides equality between EGBs."""
        return all(self.reduces_to_zero(f, b) for f in a) and all(
            self.reduces_to_zero(g, a) for g in b
        )


def kernel_image(f, powers):
    """f with y[i,j] replaced by x[i]^a*x[j]^b: {x exponents: coefficient}, zeros dropped."""
    a, b = powers
    image = {}
    for c, m in f.terms:
        exps = {}
        for (rank, idx), e in m.factors:
            if f.ring.families[rank].name == "x":
                exps[idx[0]] = exps.get(idx[0], 0) + e
            else:
                i, j = idx
                exps[i] = exps.get(i, 0) + a * e
                exps[j] = exps.get(j, 0) + b * e
        key = tuple(sorted(exps.items()))
        image[key] = image.get(key, 0) + c
    return {k: v for k, v in image.items() if v}


class Op:
    """One timed operation and what it returned."""

    __slots__ = ("key", "interval", "output", "error", "counters")

    def __init__(self, key, interval, output=None, error=None, counters=None):
        self.key = key
        self.interval = interval
        self.output = output
        self.error = error
        self.counters = counters


def _timed(clock, call):
    """(Interval, result, error); any exception is a failed operation."""
    error = []

    def guarded():
        try:
            return call()
        except Exception as exc:
            error.append(f"{type(exc).__name__}: {exc}")
            return None

    interval, out = clock.measure(guarded)
    return interval, out, error[0] if error else None


class SolveWorkload:
    """Solve a fixed list of corpus problems with one engine, per pass.

    ``repeats`` names problems solved more than once per pass: a short solve
    next to long ones, so the median latency rests on several samples.
    """

    kind = "solve"

    def __init__(self, engine, problems, repeats=None):
        self.engine = engine
        self.problems = problems
        self.repeats = repeats or {}
        self.counter_group = ENGINES[engine][0]
        self._verdicts = {}

    def setup(self, lib, seed):
        refs = {REFERENCES[p] for p in self.problems} - {None}
        return {
            "problems": {p: lib.load(p) for p in self.problems},
            "references": {r: lib.load(f"{r}.ref").generators for r in refs},
            "rng": random.Random(seed),
        }

    def setup_failures(self, lib, state):
        return []

    def run_pass(self, lib, state, clock):
        order = [p for p in self.problems for _ in range(self.repeats.get(p, 1))]
        state["rng"].shuffle(order)
        ops = []
        for name in order:
            problem = state["problems"][name]
            lib.clear_caches()
            interval, result, error = _timed(clock, lambda: lib.solve(self.engine, problem))
            counters = None
            if result is not None:
                counters = {k: result.stats.get(k, 0) for k in COUNTER_KEYS[self.counter_group]}
                counters["basis_size"] = len(result.basis)
            ops.append(Op(name, interval, result, error, counters))
        return ops

    def check(self, lib, state, op):
        """None when the answer is right, else what is wrong with it."""
        if op.error is not None:
            return op.error
        result = op.output
        key = (op.key, result.status, tuple(result.basis))
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(lib, state, op.key, result)
        return self._verdicts[key]

    def _judge(self, lib, state, name, result):
        if result.status not in EXPECTED_STATUS[name]:
            return f"status {result.status}, expected {' or '.join(EXPECTED_STATUS[name])}"
        basis = result.basis
        if name in KERNELS and any(kernel_image(f, KERNELS[name]) for f in basis):
            return "a basis element does not vanish under the monomial map"
        ref_name = REFERENCES[name]
        reference = state["references"][ref_name] if ref_name else None
        if result.status == COMPLETE:
            if not lib.buchberger.is_egb(basis):
                return "complete basis fails is_egb"
            if reference is not None and not lib.ideal_equal(basis, reference):
                return "basis is not ideal-equal to the reference"
            return None
        if not all(lib.reduces_to_zero(g, basis) for g in state["problems"][name].generators):
            return "a generator does not reduce to zero against the partial basis"
        if reference is not None and not all(lib.reduces_to_zero(f, reference) for f in basis):
            return "partial basis leaves the reference ideal"
        return None


# A pass of reduce-queries: this many queries, with variable indices up to
# MAX_INDEX and monomials of degree at most MAX_DEGREE.
QUERIES_PER_PASS = 1200
MAX_INDEX = 5
MAX_DEGREE = 3


class ReduceWorkload:
    """Answer a seeded stream of normal-form queries against fixed bases.

    Half the queries are constructed ideal members (sums of monomial
    multiples of shifted generators), half are random polynomials.
    """

    kind = "reduce"

    def __init__(self, problems):
        self.problems = problems
        self._verdicts = {}

    def setup(self, lib, seed):
        problems = {p: lib.load(p) for p in self.problems}
        bases = {}
        for name, problem in problems.items():
            lib.clear_caches()
            bases[name] = lib.solve("buchberger", problem)
        rng = random.Random(seed)
        queries = []
        for i in range(QUERIES_PER_PASS):
            name = self.problems[i % len(self.problems)]
            j = i // len(self.problems)
            member = j % 2 == 0
            make = self._member if member else self._random
            queries.append((name, member, make(lib, problems[name], rng, j // 2)))
        return {
            "problems": problems,
            "references": {p: lib.load(f"{p}.ref").generators for p in self.problems},
            "bases": bases,
            "queries": queries,
        }

    def setup_failures(self, lib, state):
        failures = []
        for name, result in state["bases"].items():
            if result.status != COMPLETE:
                failures.append(f"{name}: set-up basis status {result.status}")
            elif not lib.buchberger.is_egb(result.basis):
                failures.append(f"{name}: set-up basis fails is_egb")
            elif not lib.ideal_equal(result.basis, state["references"][name]):
                failures.append(f"{name}: set-up basis is not ideal-equal to the reference")
        return failures

    def _monomial(self, lib, ring, rng, degree):
        exps = {}
        for _ in range(degree):
            rank = rng.randrange(len(ring.families))
            fam = ring.families[rank]
            indices = rng.sample(range(MAX_INDEX + 1), fam.arity)
            if fam.constraint == "strictly_decreasing":
                indices.sort(reverse=True)
            elif fam.constraint == "strictly_increasing":
                indices.sort()
            elif fam.constraint == "none":
                indices = [rng.randrange(MAX_INDEX + 1) for _ in range(fam.arity)]
            var = ring.variable(fam.name, indices)
            exps[var] = exps.get(var, 0) + 1
        return lib.rings.Monomial.from_dict(exps)

    def _coefficient(self, rng):
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))

    # The shape of the j-th query of a kind (how many summands or terms, of
    # which degrees) cycles through a fixed list, so every seed asks for the
    # same mix of cheap and costly queries; the seed draws the generator
    # shifts, variables and coefficients.

    def _member(self, lib, problem, rng, j):
        ring = problem.ring
        total = lib.poly.zero(ring)
        summands = 1 + j % 3
        while total.is_zero:
            for s in range(summands):
                g = rng.choice(problem.generators)
                w = g.width()
                shift = lib.incmaps.IncMap(tuple(sorted(rng.sample(range(MAX_INDEX + 1), w))))
                m = self._monomial(lib, ring, rng, (j // 3 + s) % MAX_DEGREE)
                term = lib.poly.mul_term(lib.poly.act(shift, g), self._coefficient(rng), m)
                total = lib.poly.add(total, term)
        return total

    def _random(self, lib, problem, rng, j):
        ring = problem.ring
        count = 2 + j % 4
        while True:
            terms = [
                (self._coefficient(rng), self._monomial(lib, ring, rng, 1 + (j // 4 + t) % MAX_DEGREE))
                for t in range(count)
            ]
            f = lib.poly.poly(ring, terms)
            if not f.is_zero:
                return f

    def run_pass(self, lib, state, clock):
        bases = state["bases"]
        ops = []
        for i, (name, _member, query) in enumerate(state["queries"]):
            basis = bases[name].basis
            interval, nf, error = _timed(clock, lambda: lib.poly.normal_form(query, basis))
            ops.append(Op(i, interval, nf, error))
        return ops

    def check(self, lib, state, op):
        if op.error is not None:
            return op.error
        key = (op.key, op.output)
        if key not in self._verdicts:
            name, member, query = state["queries"][op.key]
            nf = op.output
            if member:
                verdict = None if nf.is_zero else "constructed member does not reduce to zero"
            else:
                basis = state["bases"][name].basis
                again = lib.poly.normal_form(nf, basis)
                verdict = None if again == nf else "normal form is not idempotent"
            self._verdicts[key] = verdict
        return self._verdicts[key]


WORKLOADS = {
    "solve-direct": SolveWorkload(
        "buchberger", ("toric", "member", "wide5", "wide5_budget"), repeats={"member": 4}
    ),
    "solve-signature": SolveWorkload("signature", ("toric", "member"), repeats={"member": 4}),
    "solve-incremental": SolveWorkload(
        "incremental", ("monomial_map", "toric", "member"), repeats={"member": 15}
    ),
    "reduce-queries": ReduceWorkload(("member", "toric")),
}

CLI_PROBLEMS = ("toric", "member")


def cli_determinism(lib):
    """Run ``incgb solve FILE --json`` twice per problem; outputs must match.

    Returns one failure message or None per problem.
    """
    outcomes = []
    for name in CLI_PROBLEMS:
        path = str(CORPUS / f"{name}.egb")
        runs = []
        for _ in range(2):
            lib.clear_caches()
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = lib.cli.main(["solve", path, "--json"])
            except Exception as exc:
                runs.append((None, f"{type(exc).__name__}: {exc}"))
                continue
            runs.append((code, buf.getvalue()))
        if runs[0][0] is None or runs[1][0] is None:
            outcomes.append(f"cli solve {name} raised: {runs[0][1] if runs[0][0] is None else runs[1][1]}")
        elif runs[0][0] != 0:
            outcomes.append(f"cli solve {name} exited with {runs[0][0]}")
        elif runs[0] != runs[1]:
            outcomes.append(f"cli solve {name} output differs between two runs")
        else:
            outcomes.append(None)
    return outcomes
