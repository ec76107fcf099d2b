import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact.cli import main

PETRIE_TEXT = "+ 7 2 3\n- 7 2 3\n+ 5 2 3\n- 5 2 3\n"
NEG1_TEXT = "+ 1 2 4\n+ 1 2 3\n- 2 3 4\n- 1 1 2\n"
CP2_TEXT = "+ 1 3\n- 1 2\n+ 2 3\n"


@pytest.fixture
def petrie_file(tmp_path):
    p = tmp_path / "petrie.txt"
    p.write_text(PETRIE_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_pass(self, capsys, petrie_file):
        code, out, _ = run(capsys, "check", petrie_file)
        assert code == 0
        assert "overall: PASS" in out

    def test_fail(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(NEG1_TEXT)
        code, out, _ = run(capsys, "check", str(p))
        assert code == 1
        assert "overall: FAIL" in out

    def test_json_and_order(self, capsys, petrie_file):
        code, out, _ = run(capsys, "--json", "check", "--order", "4", petrie_file)
        assert code == 0
        lines = out.strip().splitlines()
        reports = json.loads(lines[0])
        assert {r["name"] for r in reports} >= {
            "abbv_integral_one",
            "weight_parity",
            "signature_constant",
        }
        series = json.loads(lines[1])
        assert series["signature_series"] == ["0"] * 5

    def test_pair_weights_flag(self, capsys, petrie_file):
        code, out, _ = run(capsys, "check", petrie_file, "--pair-weights", "7")
        assert code == 0
        assert "congruence_pairing(w=7)" in out
        assert "congruence_pairing(w=2)" not in out

    def test_quiet(self, capsys, petrie_file):
        code, out, _ = run(capsys, "--quiet", "check", petrie_file)
        assert code == 0 and out == ""

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("+ 1 0 2\n")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/input.txt")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"x": 1}',
            '{"points": {"a": 1}}',
            '{"points": [{"sign": 1, "weights": ["a"]}]}',
            '{"points": [{"sign": true, "weights": [1, 2]}, {"sign": -1, "weights": [1, 2]}]}',
            '{"points": [{"sign": 1, "weights": [true, 2]}, {"sign": -1, "weights": [1, 2]}]}',
        ],
    )
    def test_malformed_json_exit_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "check", "-")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_negative_order_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(PETRIE_TEXT))
        code, _, err = run(capsys, "check", "--order", "-1", "-")
        assert code == 2 and "order" in err

    def test_degree_limit_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("+ 1 1000000\n- 2 999999\n"))
        code, _, err = run(capsys, "check", "-")
        assert code == 2 and "supported degree" in err

    def test_json_input(self, capsys, tmp_path):
        p = tmp_path / "in.json"
        p.write_text('{"points": [{"sign": 1, "weights": [1, 2]}, {"sign": -1, "weights": [1, 2]}]}')
        code, out, _ = run(capsys, "check", str(p))
        assert code == 0


class TestClassify:
    def test_petrie_case1(self, capsys, petrie_file):
        code, out, _ = run(capsys, "classify", petrie_file)
        assert code == 0
        verdicts = json.loads(out)
        assert verdicts[0]["verdict"] == "Case1"

    def test_two_points(self, capsys, tmp_path):
        p = tmp_path / "s6.txt"
        p.write_text("+ 1 2 3\n- 1 2 3\n")
        code, out, _ = run(capsys, "classify", str(p))
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "TwoPointRotation"

    def test_4d_membership(self, capsys, tmp_path):
        p = tmp_path / "cp2.txt"
        p.write_text(CP2_TEXT)
        code, out, _ = run(capsys, "classify", "--effective", str(p))
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "FourDimReachable"

    def test_unclassified_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(NEG1_TEXT)
        code, out, _ = run(capsys, "classify", str(p))
        assert code == 1
        assert json.loads(out)[0]["verdict"] == "NotInClassification"

    def test_unsupported_shape(self, capsys, tmp_path):
        p = tmp_path / "odd.txt"
        p.write_text("+ 1 2 3\n- 1 2 3\n+ 1 2 3\n")
        code, _, err = run(capsys, "classify", str(p))
        assert code == 2 and err == "error: unsupported shape (3 points, arity 3)\n"

    def test_empty_data(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing\n")
        assert run(capsys, "classify", str(p)) == (
            2, "", "error: empty data has no classification\n"
        )


class TestGraphs:
    def test_emit(self, capsys, petrie_file, tmp_path):
        out_path = tmp_path / "graphs.txt"
        code, out, _ = run(capsys, "graphs", "--emit", str(out_path), petrie_file)
        assert code == 0
        assert out_path.read_text().strip()
        assert "figure1=" in out

    def test_json(self, capsys, petrie_file):
        code, out, _ = run(capsys, "--json", "graphs", petrie_file)
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["figure1"] in {"A", "B", "C", "D", "E", None} for r in recs)
        assert any(r["figure1"] for r in recs)

    def test_parity_failure_exit_1(self, capsys, tmp_path):
        p = tmp_path / "odd.txt"
        p.write_text("+ 1 2 3\n- 1 2 4\n")
        code, _, err = run(capsys, "graphs", str(p))
        assert code == 1 and "parity" in err


class TestReduce:
    def test_petrie(self, capsys, petrie_file, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run(
            capsys, "reduce", "--emit-trace", str(trace_path), petrie_file
        )
        assert code == 0
        assert "reduced to empty in 2 moves" in out
        lines = trace_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["op"] == 1 for line in lines)

    def test_depth_exhausted_exit_1(self, capsys, tmp_path):
        p = tmp_path / "stuck.txt"
        p.write_text("+ 1 1 1\n")
        code, out, _ = run(capsys, "reduce", "--max-depth", "2", str(p))
        assert code == 1
        assert json.loads(out.strip())["depth"] == 2

    def test_wrong_arity(self, capsys, tmp_path):
        p = tmp_path / "d4.txt"
        p.write_text(CP2_TEXT)
        code, _, err = run(capsys, "reduce", str(p))
        assert code == 2 and "arity-3" in err


class TestGen:
    def test_cp3(self, capsys):
        code, out, _ = run(capsys, "gen", "cp3", "--params", "1", "2", "3")
        assert code == 0
        assert sorted(out.strip().splitlines()) == sorted(
            ["+ 1 3 6", "- 1 2 5", "+ 2 3 3", "- 3 5 6"]
        )

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "gen", "s6", "--params", "1", "2", "3")
        assert code == 0
        assert json.loads(out)["points"][0]["weights"] == [1, 2, 3]

    def test_wrong_param_count(self, capsys):
        code, _, err = run(capsys, "gen", "cp2", "--params", "1")
        assert code == 2 and "parameters" in err

    def test_nonpositive_param(self, capsys):
        code, _, err = run(capsys, "gen", "s6", "--params", "0", "1", "2")
        assert code == 2


class TestOracle:
    def test_small_sweep(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--points", "2", "--arity", "2", "--max-weight", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("data,")
        assert len(lines) == 22

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "oracle", "--max-weight", "9", "--cap", "4")
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize(
        "flag, value, least",
        [
            ("--points", "-1", 0),
            ("--arity", "0", 1),
            ("--arity", "-1", 1),
            ("--max-weight", "0", 1),
            ("--max-weight", "-3", 1),
        ],
    )
    def test_out_of_range_arguments_exit_2(self, capsys, flag, value, least):
        code, out, err = run(capsys, "oracle", flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be at least {least}, got {value}\n"

    def test_zero_points_one_row(self, capsys):
        code, out, err = run(capsys, "oracle", "--points", "0")
        assert code == 0 and err == ""
        assert out == (
            "data,checks_passed,failed_checks,figure1_tags,classification\n"
            '"",1,,,\n'
        )

    def test_pipeline_gen_to_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "blowup", "--params", "2", "1", "2")
        p = tmp_path / "blowup.txt"
        p.write_text(out)
        code2, out2, _ = run(capsys, "check", str(p))
        assert code2 == 0 and "overall: PASS" in out2


@st.composite
def fuzzed_text(draw):
    """At most 4 points of one arity <= 3 with weights <= 6; half the time
    one token is replaced or appended by a bad sign, a zero or negative
    weight, a non-integer or an empty string."""
    arity = draw(st.integers(1, 3))
    lines = [
        [draw(st.sampled_from("+-"))]
        + [str(draw(st.integers(1, 6))) for _ in range(arity)]
        for _ in range(draw(st.integers(0, 4)))
    ]
    if lines and draw(st.booleans()):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(line)))
        token = draw(st.sampled_from(["*", "0", "-1", "x", "2.5", ""]))
        line[at:at + 1] = [token]
    return "".join(" ".join(line) + "\n" for line in lines)


class TestFuzzedInput:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["check", "classify", "graphs"]),
        st.booleans(),
        fuzzed_text(),
    )
    def test_exit_code_in_range(self, command, as_json, text):
        argv = (["--json"] if as_json else []) + [command, "-"]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
