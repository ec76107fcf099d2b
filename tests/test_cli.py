import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import cli, core
from circleact.cli import main
from circleact.core import FixedPointData, data, disjoint_union
from circleact.generators import gen_blowup, gen_cp2, gen_cp3, gen_s6, gen_s6_pair
from circleact.multigraph import GraphCapError, NoMatchingError, enumerate_admissible
from cli_oracle import cmd_graphs_by_dumps
from conftest import even_data, random_data

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

    @pytest.mark.parametrize("text", ["+ 1_0 1_0\n- 1_0 10\n", "+ \u0663 3\n- 3 3\n"])
    def test_non_decimal_weight_exit_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "check", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: non-integer weight")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/input.txt")
        assert code == 2

    def test_directory_input_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 21] Is a directory")

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
        for text in (PETRIE_TEXT, ""):  # empty data has no series to compute
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, "check", "--order", "-1", "-")
            assert code == 2 and out == "" and "order" in err, repr(text)

    def test_order_over_limit_exit_2(self, capsys, monkeypatch):
        for text in (PETRIE_TEXT, ""):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, "check", "--order", "1000001", "-")
            assert code == 2 and out == "" and "supported degree" in err, repr(text)

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

    def test_cap_exceeded_exit_1(self, capsys, monkeypatch, tmp_path):
        """An exhausted graph cap is a principled failure, not a parity
        failure."""
        p = tmp_path / "four.txt"
        p.write_text("+ 1 1 1\n- 1 1 1\n+ 1 1 1\n- 1 1 1\n")
        assert len(enumerate_admissible(core.parse(p.read_text()))) == 4
        monkeypatch.setattr(
            cli, "enumerate_admissible", lambda d: enumerate_admissible(d, cap=2)
        )
        assert run(capsys, "graphs", str(p)) == (
            1, "", "admissible graph cap 2 exceeded\n"
        )

    def test_emit_to_directory_exit_2(self, capsys, petrie_file, tmp_path):
        """The graphs are printed, then the unwritable --emit path is an
        error, not a traceback."""
        code, out, err = run(capsys, "graphs", "--emit", str(tmp_path), petrie_file)
        assert code == 2 and out.startswith("# graph 0 figure1=")
        assert err.startswith("error: [Errno 21] Is a directory")


def _graphs_run(command, text, flags, emit_path):
    """(exit code, stdout, stderr, --emit file or None) of one graphs call
    with command as its handler."""
    if emit_path is not None and emit_path.exists():
        emit_path.unlink()
    argv = flags + ["graphs", "-"] + (["--emit", str(emit_path)] if emit_path else [])
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "cmd_graphs", command), mock.patch(
        "sys.stdin", io.StringIO(text)
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    emitted = emit_path.read_text() if emit_path and emit_path.exists() else None
    return code, out.getvalue(), err.getvalue(), emitted


def _graph_inputs(rng):
    """Inputs with a few hundred graphs at most: random 2-10-point data
    (some failing weight parity), generator unions, four-point data whose
    graphs carry Figure-1 tags, data without an admissible graph, and the
    empty input."""
    inputs = [
        FixedPointData(()),
        data((1, 1, 1), (1, 1, 1)),
        disjoint_union(data((1, 5, 9), (-1, 5, 9)), data((1, 1, 1), (1, 1, 1))),
        gen_cp3(1, 2, 3),
        gen_cp3(1, 1, 1),
        gen_blowup(2, 1, 2),
        gen_s6_pair(1, 2, 3, 1, 2, 3),
        gen_cp2(2, 3),
        disjoint_union(gen_cp3(1, 1, 2), gen_s6(1, 2, 3)),
        disjoint_union(gen_s6_pair(1, 1, 2, 2, 3, 3), gen_s6(1, 1, 1)),
        disjoint_union(disjoint_union(gen_s6(1, 2, 2), gen_s6(2, 1, 2)), gen_cp3(1, 2, 1)),
    ]
    while len(inputs) < 60:
        max_weight = rng.choice((3, 5, 8))
        if rng.random() < 0.8:
            d = even_data(rng, min_points=2, max_points=10, max_weight=max_weight)
        else:
            d = random_data(rng, max_points=10, max_weight=max_weight)
        try:
            enumerate_admissible(d, cap=300)
        except GraphCapError:
            continue
        except NoMatchingError:
            pass
        inputs.append(d)
    return inputs


class TestGraphsAgainstOracle:
    """graphs output, byte for byte, against the per-graph json.dumps and
    serialize_graph emitter."""

    def test_byte_identical(self, rng, tmp_path):
        emit_path = tmp_path / "graphs.txt"
        modes = (
            ([], emit_path),
            (["--json"], emit_path),
            (["--quiet"], emit_path),
            (["--json", "--quiet"], None),
            ([], None),
        )
        for i, d in enumerate(_graph_inputs(rng)):
            text = core.to_json(d) if i % 4 == 3 else core.serialize(d)
            for flags, path in modes:
                got = _graphs_run(cli.cmd_graphs, text, flags, path)
                assert got == _graphs_run(cmd_graphs_by_dumps, text, flags, path), (
                    d, flags, path
                )
                assert got[0] in (0, 1)


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

    def test_emit_trace_to_directory_exit_2(self, capsys, petrie_file, tmp_path):
        code, _, err = run(
            capsys, "reduce", petrie_file, "--emit-trace", str(tmp_path)
        )
        assert code == 2 and err.startswith("error: [Errno 21] Is a directory")

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

    def test_negative_max_depth_exit_2(self, capsys):
        with mock.patch("sys.stdin", io.StringIO(PETRIE_TEXT)):
            code, out, err = run(capsys, "reduce", "--max-depth", "-1", "-")
        assert code == 2 and out == ""
        assert err == "error: --max-depth must be at least 0, got -1\n"

    def test_zero_max_depth_exit_1(self, capsys):
        with mock.patch("sys.stdin", io.StringIO("+ 1 2 3\n- 1 2 3\n")):
            code, out, err = run(capsys, "reduce", "--max-depth", "0", "-")
        assert code == 1 and err == ""
        assert out == (
            '{"reason": "no reduction within depth 0", "depth": 0, "states_explored": 0}\n'
        )

    def test_search_failure_record(self, capsys):
        # the search expands three distinct states and then runs out of moves
        text = "+ 1 2 3\n- 1 2 3\n+ 1 1 2\n+ 1 1 2\n"
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out, err = run(capsys, "--json", "reduce", "-")
        assert code == 1 and err == ""
        assert out == (
            '{"reason": "no reduction within depth 12", "depth": 12, "states_explored": 3}\n'
        )


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

    def test_unknown_family_refused_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "nope", "--params", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "invalid choice: 'nope'" in captured.err


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
