"""End-to-end tests of the command-line driver via main(argv)."""

import json
import time
from pathlib import Path

import pytest

from incgb import cli
from incgb.cli import (
    EXIT_BUDGET,
    EXIT_NO,
    EXIT_OK,
    EXIT_USAGE,
    ORBIT_MAX_COPIES,
    REPORT_FORMAT,
    main,
)

from conftest import MEMBER_H, MEMBER_TEXT, TORIC_TEXT, X_RING_TEXT

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def toric_file(tmp_path):
    f = tmp_path / "toric.egb"
    f.write_text(TORIC_TEXT)
    return str(f)


@pytest.fixture
def member_file(tmp_path):
    f = tmp_path / "member.egb"
    f.write_text(MEMBER_TEXT)
    return str(f)


class TestGoldenReports:
    """``solve --json`` on copies of the benchmark corpus problems, byte for
    byte against reports recorded from an earlier version: a change of
    internal representation must leave every basis, counter and option
    unmoved.  Re-record a file only for a deliberate change of output."""

    @pytest.mark.parametrize("algorithm", ["buchberger", "incremental", "signature"])
    @pytest.mark.parametrize("problem", ["toric", "member", "wide5", "wide5_budget", "segre"])
    def test_matches_recorded_report(self, problem, algorithm, capsys):
        code = main(["solve", str(GOLDEN / f"{problem}.egb"), "--algorithm", algorithm, "--json"])
        assert code == (EXIT_BUDGET if problem == "wide5_budget" else EXIT_OK)
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN / f"{problem}.{algorithm}.json").read_bytes()


def test_golden_complete_bases_agree():
    # an ideal has one reduced EGB: the committed reports of every golden
    # problem that all three engines complete hold the same basis
    compared = []
    for path in sorted(GOLDEN.glob("*.egb")):
        reports = [
            json.loads((GOLDEN / f"{path.stem}.{algorithm}.json").read_text())
            for algorithm in ("buchberger", "incremental", "signature")
        ]
        if all(report["status"] == "complete" for report in reports):
            assert reports[0]["basis"] == reports[1]["basis"] == reports[2]["basis"], path.stem
            compared.append(path.stem)
    assert compared == ["member", "segre", "toric", "wide5"]


class TestSolveCheckRoundTrip:
    """Every engine's basis of every golden problem, written by ``solve``
    and read back by ``check``: a run that completes is an EGB."""

    @pytest.mark.parametrize("algorithm", list(cli.ENGINES))
    @pytest.mark.parametrize("problem", sorted(path.stem for path in GOLDEN.glob("*.egb")))
    def test_complete_basis_checks(self, problem, algorithm, tmp_path, capsys):
        code = main(["solve", str(GOLDEN / f"{problem}.egb"), "--algorithm", algorithm])
        basis = capsys.readouterr().out
        assert code == (EXIT_BUDGET if problem == "wide5_budget" else EXIT_OK)
        if code == EXIT_OK:
            path = tmp_path / "basis.egb"
            path.write_text(basis)
            assert main(["check", str(path)]) == EXIT_OK
            assert capsys.readouterr().out == "EGB\n"


class TestSolve:
    def test_exit_and_output(self, toric_file, capsys):
        assert main(["solve", toric_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("ring {")
        assert "generators {" in out
        assert out.count(";") >= 6  # six basis elements

    def test_json_report(self, toric_file, capsys):
        assert main(["solve", toric_file, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == REPORT_FORMAT
        assert report["status"] == "complete"
        assert report["algorithm"] == "buchberger"
        assert len(report["basis"]) == 6
        assert report["stats"]["pairs_processed"] > 0
        assert report["options"]["max_width"] == 16

    def test_signature_algorithm(self, toric_file, capsys):
        assert main(["solve", toric_file, "--algorithm", "signature", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "complete"
        assert "y[3,1]*y[2,0] - y[3,0]*y[2,1]" in report["basis"]

    @pytest.mark.parametrize("algorithm", ["buchberger", "incremental", "signature"])
    def test_budget_exit(self, tmp_path, capsys, algorithm):
        # every stop comes at once; x[1000000] is wider than the default
        # max_width, so no engine draws a pair of it (the direct engine's
        # self-pair set walks combinations of a million indices when drawn)
        wide = X_RING_TEXT.replace("x[0];", "x[5]*x[0] - x[1];")
        huge = X_RING_TEXT.replace("x[0];", "x[1000000] - x[0];")
        cases = [(TORIC_TEXT, ["--max-pairs", "1"]), (wide, ["--max-width", "3"]), (huge, [])]
        for text, limit in cases:
            f = tmp_path / "problem.egb"
            f.write_text(text)
            argv = ["solve", str(f), "--algorithm", algorithm, *limit, "--json"]
            start = time.monotonic()
            assert main(argv) == EXIT_BUDGET
            assert time.monotonic() - start < 2
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert report["status"] == "budget_exhausted"
            assert report["basis"]  # partial basis still reported
            assert "budget" in captured.err

    def test_report_file_byte_stable(self, toric_file, tmp_path, capsys):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", toric_file, "--report", str(r1)]) == EXIT_OK
        assert main(["solve", toric_file, "--report", str(r2)]) == EXIT_OK
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_stdout_byte_stable(self, toric_file, capsys):
        main(["solve", toric_file])
        a = capsys.readouterr().out
        main(["solve", toric_file])
        b = capsys.readouterr().out
        assert a == b

    def test_principal_syzygies_flag_removed(self, toric_file, capsys):
        argv = ["solve", toric_file, "--algorithm", "signature", "--principal-syzygies"]
        assert main(argv) == EXIT_USAGE

    def test_unknown_algorithm_in_options(self, tmp_path, capsys):
        f = tmp_path / "bad.egb"
        f.write_text(X_RING_TEXT + "\noptions { algorithm = nonsense; }\n")
        assert main(["solve", str(f)]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["solve", "reduce", "member"])
    def test_unknown_option_key(self, tmp_path, capsys, command):
        # a misspelt budget would otherwise run at the default width
        f = tmp_path / "bad.egb"
        f.write_text(TORIC_TEXT + "\noptions { max_width = 3; max_widht = 1; }\n")
        query = ["--poly", "y[1,0]"] if command != "solve" else []
        assert main([command, str(f), *query]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_widht" in captured.err


    @pytest.mark.parametrize(
        "options, flags, name",
        [
            ("max_width = wide;", [], "max_width"),
            ("max_width = true;", [], "max_width"),
            ("max_pairs = false;", [], "max_pairs"),
            ("max_basis = none;", [], "max_basis"),
            ("", ["--max-width", "-1"], "max_width"),
            ("", ["--max-pairs", "-1"], "max_pairs"),
        ],
        ids=["wide", "true", "false", "none", "negative-width-flag", "negative-pairs-flag"],
    )
    def test_invalid_budget_option(self, tmp_path, capsys, options, flags, name):
        f = tmp_path / "bad.egb"
        f.write_text(TORIC_TEXT + f"\noptions {{ {options} }}\n")
        assert main(["solve", str(f), "--json", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err

    def test_budget_options_from_file(self, tmp_path, capsys):
        f = tmp_path / "budget.egb"
        f.write_text(TORIC_TEXT + "\noptions { max_width = 0; max_pairs = 0; max_basis = 0; }\n")
        assert main(["solve", str(f), "--json"]) == EXIT_BUDGET
        report = json.loads(capsys.readouterr().out)
        assert report["options"] == {"max_width": 0, "max_pairs": 0}


class TestReduce:
    def test_member_h_reduces_to_zero(self, member_file, capsys):
        assert main(["reduce", member_file, "--poly", MEMBER_H]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"

    def test_nonmember_keeps_remainder(self, member_file, capsys):
        assert main(["reduce", member_file, "--poly", "x[0] + 1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "x[0] + 1"

    def test_trailing_garbage_in_poly(self, member_file, capsys):
        assert main(["reduce", member_file, "--poly", "x[0] x"]) == EXIT_USAGE

    def test_honours_algorithm_option(self, member_file, tmp_path, capsys):
        # buchberger exhausts max_width = 4 on this input; incremental completes
        query = "x[3]*x[1]*x[0] + x[2]^3 - x[4]"
        assert main(["reduce", member_file, "--poly", query]) == EXIT_OK
        expected = capsys.readouterr().out
        f = tmp_path / "member_incremental.egb"
        f.write_text(MEMBER_TEXT + "\noptions { algorithm = incremental; max_width = 4; }\n")
        assert main(["reduce", str(f), "--poly", query]) == EXIT_OK
        assert capsys.readouterr().out == expected
        assert main(["member", str(f), "--poly", MEMBER_H]) == EXIT_OK

    def test_algorithm_flag(self, toric_file, capsys):
        # normal forms modulo an EGB are unique: every engine prints the same
        # line, and the flag overrides the file's option as for solve
        query = "3/2*x[3]*x[1] - 1/6*y[2,0] + 5*x[2]"
        lines = set()
        for algorithm in cli.ENGINES:
            assert main(["reduce", toric_file, "--algorithm", algorithm, "--poly", query]) == EXIT_OK
            lines.add(capsys.readouterr().out)
        assert len(lines) == 1 and lines != {"0\n"}
        member = "3/2*x[3]*x[2] - 3/2*y[3,2]"
        assert main(["member", toric_file, "--algorithm", "signature", "--poly", member]) == EXIT_OK
        assert main(["reduce", toric_file, "--algorithm", "nonsense", "--poly", query]) == EXIT_USAGE


class TestMember:
    def test_positive(self, member_file):
        assert main(["member", member_file, "--poly", MEMBER_H]) == EXIT_OK

    def test_negative(self, member_file):
        assert main(["member", member_file, "--poly", "x[0] + 1"]) == EXIT_NO


@pytest.mark.parametrize("command", ["reduce", "member"])
def test_budget_stop_exits_budget(tmp_path, capsys, command):
    # the basis computation runs out of width: exit 3, as for solve, not 2
    f = tmp_path / "wide.egb"
    f.write_text(X_RING_TEXT.replace("x[0];", "x[5]*x[0] - x[1];"))
    argv = [command, str(f), "--poly", "x[1]", "--max-width", "3"]
    assert main(argv) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exhausted its budget" in captured.err


@pytest.mark.parametrize("command", ["reduce", "member"])
@pytest.mark.parametrize(
    "query, message",
    [
        ("x[0] +", "--poly:1:7: expected a number, variable, or parenthesized expression"),
        ("z[0]", "--poly:1:1: no family named 'z'"),
        ("1/0", "--poly:1:3: zero denominator"),
    ],
    ids=["truncated", "unknown-family", "zero-denominator"],
)
def test_poly_syntax_error(member_file, capsys, command, query, message):
    assert main([command, member_file, "--poly", query]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


class TestOrbit:
    def test_width_three(self, tmp_path, capsys):
        f = tmp_path / "x.egb"
        f.write_text(X_RING_TEXT)
        assert main(["orbit", str(f), "--width", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["x[0]", "x[1]", "x[2]"]

    def test_width_below_generator(self, member_file, capsys):
        assert main(["orbit", member_file, "--width", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("generator", ["x[0]", "x[1000000]*x[0] - x[1]"])
    def test_refuses_past_the_cap_at_once(self, tmp_path, capsys, generator):
        # the copy count is C(width, generator width), bounded before any
        # copy is built: 10^8 copies of x[0], or C(10^8, 10^6 + 1)
        f = tmp_path / "x.egb"
        f.write_text(X_RING_TEXT.replace("x[0];", f"{generator};"))
        start = time.perf_counter()
        assert main(["orbit", str(f), "--width", "100000000"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            f"orbit: more than {ORBIT_MAX_COPIES} shifted copies at width 100000000"
        )

    def test_cap_counts_every_generator(self, tmp_path, capsys, monkeypatch):
        # x[0] and x[1]*x[0] have 3 + 3 copies at width 3, 4 + 6 at width 4
        monkeypatch.setattr(cli, "ORBIT_MAX_COPIES", 6)
        f = tmp_path / "x.egb"
        f.write_text(X_RING_TEXT.replace("x[0];", "x[0]; x[1]*x[0];"))
        assert main(["orbit", str(f), "--width", "3"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert main(["orbit", str(f), "--width", "4"]) == EXIT_USAGE


class TestCheck:
    def test_not_an_egb(self, member_file, capsys):
        assert main(["check", member_file]) == EXIT_NO
        assert capsys.readouterr().out.strip() == "not an EGB"

    def test_is_an_egb(self, toric_file, tmp_path, capsys):
        main(["solve", toric_file])
        solved = tmp_path / "solved.egb"
        solved.write_text(capsys.readouterr().out)
        assert main(["check", str(solved)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "EGB"


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/input.egb"]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_with_location(self, tmp_path, capsys):
        f = tmp_path / "broken.egb"
        f.write_text(X_RING_TEXT.replace("x[0];", "x[0] + ;"))
        assert main(["solve", str(f)]) == EXIT_USAGE
        # diagnostics carry file:line:col
        assert str(f) in capsys.readouterr().err

    def test_zero_denominator(self, tmp_path, capsys):
        # exit 2 with a line:col diagnostic, not a ZeroDivisionError
        f = tmp_path / "zero.egb"
        f.write_text(X_RING_TEXT.replace("x[0];", "x[0] - 1/0;"))
        assert main(["solve", str(f)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"{f}:6:23: zero denominator"

    def test_expansion_capped(self, tmp_path, capsys):
        # exit 2 at the ^, not a half-minute expansion
        f = tmp_path / "power.egb"
        f.write_text(X_RING_TEXT.replace("x[0];", "(x[0] + x[1])^2000;"))
        assert main(["solve", str(f)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"{f}:6:27: expansion past 10000 term products"

    @pytest.mark.parametrize(
        "power, col", [("2^30000000*x[0]", 15), ("(1/3)^3000000*x[0]", 19)], ids=["int", "fraction"]
    )
    def test_coefficient_capped(self, tmp_path, capsys, power, col):
        # exit 2 at the ^, before building a coefficient of millions of bits
        f = tmp_path / "coefficient.egb"
        f.write_text(X_RING_TEXT.replace("x[0];", f"{power};"))
        assert main(["solve", str(f)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"{f}:6:{col}: coefficient past 100000 bits"

    @pytest.mark.parametrize(
        "ring",
        [
            "family x { arity = 1 } family x { arity = 1 }",
            "family x { arity = 1 } order { kind = revlex }",
        ],
        ids=["duplicate-family", "unknown-order-kind"],
    )
    def test_malformed_ring_block(self, tmp_path, capsys, ring):
        f = tmp_path / "ring.egb"
        f.write_text(f"ring {{ {ring} }}\ngenerators {{ x[0]; }}\n")
        assert main(["solve", str(f)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"{f}:1:1: ")

    def test_repeated_block(self, tmp_path, capsys):
        # a second generators block is an error at its keyword, not a
        # silent replacement of the first
        f = tmp_path / "twice.egb"
        f.write_text(X_RING_TEXT + "generators { x[2]; }\n")
        assert main(["solve", str(f)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"{f}:7:1: repeated generators section"

    def test_unwritable_report(self, toric_file, tmp_path, capsys):
        # exit 2 with the reason, not a traceback and exit 1
        report = tmp_path / "missing" / "r.json"
        assert main(["solve", toric_file, "--report", str(report)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {report}: ") and "No such file" in err
        assert not report.exists()

    def test_usage_error(self, capsys):
        assert main(["solve"]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x"]) == EXIT_USAGE
