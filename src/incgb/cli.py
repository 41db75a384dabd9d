"""Command-line driver.

Subcommands: solve, reduce, member, orbit, check.  Exit codes: 0 success,
1 negative answer (member), 2 usage or parse error, 3 budget exhausted
(solve still reports the partial basis).  Reports are deterministic: the
same input and options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .buchberger import (
    BUDGET,
    EngineLimits,
    egb_buchberger,
    egb_incremental,
    is_egb,
    orbit_truncate,
)
from .poly import normal_form
from .problems import (
    ProblemSyntaxError,
    format_polynomial,
    parse,
    parse_polynomial,
    serialize,
)
from .signature import egb_signature

REPORT_FORMAT = "incgb-report-1"

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# ``orbit`` refuses to print more shifted copies than this
ORBIT_MAX_COPIES = 100_000

# the engines ``solve --algorithm`` names
ENGINES = {
    "buchberger": egb_buchberger,
    "incremental": egb_incremental,
    "signature": egb_signature,
}

# the keys an ``options`` block may hold
OPTION_KEYS = ("algorithm", "max_width", "max_pairs", "max_basis")


def _load(path):
    try:
        with open(path) as handle:
            return parse(handle.read())
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    except ProblemSyntaxError as exc:
        raise SystemExit2(f"{path}:{exc}")


class SystemExit2(Exception):
    """Usage or parse failure; maps to exit code 2."""


class BudgetStop(Exception):
    """A basis computation that exhausted its budget; maps to exit code 3."""


def _limits(problem, args):
    """The engine limits: command-line flags, then the problem's options,
    then the defaults.  Each must be a nonnegative integer (or unset)."""
    default = EngineLimits()
    flags = {"max_width": args.max_width, "max_pairs": args.max_pairs, "max_basis": None}
    limits = {}
    for name, flag in flags.items():
        value = flag if flag is not None else problem.options.get(name, getattr(default, name))
        # type(), not isinstance(): a bool is an int
        if value is not None and (type(value) is not int or value < 0):
            raise SystemExit2(f"option {name} must be a nonnegative integer, not {value!r}")
        limits[name] = value
    return EngineLimits(**limits)


def _solve(problem, args):
    """Run the selected engine; returns (algorithm, limits, result)."""
    unknown = [key for key in problem.options if key not in OPTION_KEYS]
    if unknown:
        known = ", ".join(OPTION_KEYS)
        raise SystemExit2(f"unknown option {unknown[0]!r}; the options are {known}")
    algorithm = args.algorithm or problem.options.get("algorithm", "buchberger")
    limits = _limits(problem, args)
    if algorithm not in ENGINES:
        raise SystemExit2(f"unknown algorithm {algorithm!r}")
    return algorithm, limits, ENGINES[algorithm](problem.generators, limits)


def cmd_solve(args):
    problem = _load(args.file)
    algorithm, limits, result = _solve(problem, args)
    basis_lines = [format_polynomial(f) for f in result.basis]
    report = {
        "format": REPORT_FORMAT,
        "status": result.status,
        "algorithm": algorithm,
        "options": {
            "max_width": limits.max_width,
            "max_pairs": limits.max_pairs,
        },
        "basis": basis_lines,
        "stats": result.stats,
    }
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = serialize(result.basis, problem.ring)
    sys.stdout.write(text)
    if args.report:
        try:
            with open(args.report, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise SystemExit2(f"cannot write {args.report}: {exc}")
    if result.status == BUDGET:
        print("budget exhausted; basis is partial", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _reduce(args):
    """The orbit normal form of --poly against the problem's basis."""
    problem = _load(args.file)
    try:
        target = parse_polynomial(problem.ring, args.poly)
    except ProblemSyntaxError as exc:
        raise SystemExit2(f"--poly:{exc}")
    *_, result = _solve(problem, args)
    if result.status == BUDGET:
        raise BudgetStop("basis computation exhausted its budget")
    return normal_form(target, result.basis)


def cmd_reduce(args):
    print(format_polynomial(_reduce(args)))
    return EXIT_OK


def cmd_member(args):
    return EXIT_OK if _reduce(args).is_zero else EXIT_NO


def _copies(n, w, cap):
    """C(n, w), the shifted copies at width n of a generator of width w, or
    cap + 1 once it passes cap: C(n, i) grows with i up to n/2, so the
    product stops within a few factors however large n and w are."""
    if not 0 <= w <= n:
        return 0
    count = 1
    for i in range(min(w, n - w)):
        count = count * (n - i) // (i + 1)
        if count > cap:
            return cap + 1
    return count


def cmd_orbit(args):
    problem = _load(args.file)
    copies = 0
    for f in problem.generators:
        copies += _copies(args.width, f.width(), ORBIT_MAX_COPIES)
        if copies > ORBIT_MAX_COPIES:
            raise SystemExit2(
                f"orbit: more than {ORBIT_MAX_COPIES} shifted copies at width {args.width}"
            )
    try:
        shifted = orbit_truncate(problem.generators, args.width)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    for f in shifted:
        print(format_polynomial(f))
    return EXIT_OK


def cmd_check(args):
    problem = _load(args.file)
    ok = is_egb(problem.generators)
    print("EGB" if ok else "not an EGB")
    return EXIT_OK if ok else EXIT_NO


def build_parser():
    parser = argparse.ArgumentParser(
        prog="incgb", description="Equivariant Groebner basis calculator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments that solve, reduce and member share: the basis computation
    basis = argparse.ArgumentParser(add_help=False)
    basis.add_argument("file")
    basis.add_argument("--algorithm", choices=list(ENGINES), default=None)
    basis.add_argument("--max-width", type=int, default=None)
    basis.add_argument("--max-pairs", type=int, default=None)

    solve = sub.add_parser("solve", parents=[basis], help="compute an equivariant Groebner basis")
    solve.add_argument("--report", metavar="FILE", default=None)
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=cmd_solve)

    for name, func, help_text in [
        ("reduce", cmd_reduce, "print the orbit normal form of a polynomial"),
        ("member", cmd_member, "test orbit ideal membership"),
    ]:
        query = sub.add_parser(name, parents=[basis], help=help_text)
        query.add_argument("--poly", required=True)
        query.set_defaults(func=func)

    orbit = sub.add_parser(
        "orbit",
        help=f"print the generator truncation at a width (at most {ORBIT_MAX_COPIES} copies)",
    )
    orbit.add_argument("file")
    orbit.add_argument("--width", type=int, required=True)
    orbit.set_defaults(func=cmd_orbit)

    check = sub.add_parser(
        "check", help="test the generators with the Buchberger criterion (unbounded)"
    )
    check.add_argument("file")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except BudgetStop as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
