"""End-to-end runs of the command-line interface in a subprocess."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repbasis import (PhiSpec, RepbasisError, RepTarget, build, cli, density_demand, trace_dumps,
                      trace_loads, verify_trace)
from test_verify import BASE_MISMATCH

ONES = {"window": 0, "values": {"0": 1}, "default": 1}
INF_ORIGIN = {"window": 0, "values": {"0": "inf"}, "default": 1}


def run_cli(*args, env_extra=None, check=False, timeout=None, stdout=subprocess.PIPE):
    result = subprocess.run(
        [sys.executable, "-m", "repbasis", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, **(env_extra or {})},
        timeout=timeout,
    )
    if check:
        assert result.returncode == 0, result.stderr
    return result


def run_cli_into_closed_pipe(*args):
    """Run the CLI with stdout on a pipe whose read end is closed before
    the child starts, as when the reader of a pipeline has gone away."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_cli(*args, stdout=write_end, timeout=120)
    finally:
        os.close(write_end)


@pytest.fixture()
def ones_file(tmp_path: Path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(ONES))
    return path


@pytest.fixture()
def ones_trace_file(tmp_path: Path, ones_file):
    out = tmp_path / "trace.json"
    run_cli("build", "--f", str(ones_file), "--phi", "log2", "--stages", "1",
            "--out", str(out), check=True)
    return out


class TestBuild:
    def test_writes_canonical_trace(self, ones_trace_file):
        expected = trace_dumps(build(RepTarget.constant(1), PhiSpec.parse("log2"), 1))
        assert ones_trace_file.read_text() == expected

    def test_stdout_when_no_out(self, ones_file):
        result = run_cli("build", "--f", str(ones_file), "--phi", "log2",
                         "--stages", "1", check=True)
        trace = json.loads(result.stdout)
        assert trace["stages"][-1]["x"] == 490

    def test_runs_are_identical(self, tmp_path, ones_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli("build", "--f", str(ones_file), "--phi", "log2",
                    "--stages", "1", "--out", str(out), check=True)
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_value_in_target_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(INF_ORIGIN))
        result = run_cli("build", "--f", str(path), "--phi", "log2", "--stages", "1",
                         check=True)
        assert json.loads(result.stdout)["f"]["values"]["0"] == "inf"

    def test_unreachable_growth_reports_code(self, ones_file):
        result = run_cli("build", "--f", str(ones_file), "--phi", "log2", "--stages", "3")
        assert result.returncode == 1
        assert "PHI_TOO_SLOW" in result.stderr

    def test_bad_phi(self, ones_file):
        result = run_cli("build", "--f", str(ones_file), "--phi", "pow:0.9", "--stages", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR:")

    @pytest.mark.parametrize("phi", ["clog:1e-400", "pow:1e-400"])
    def test_phi_parameter_outside_the_float_range(self, ones_file, phi):
        result = run_cli("build", "--f", str(ones_file), "--phi", phi, "--stages", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR: phi parameter")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("phi", ["clog:1e-4000", "clog:1e-5000", "pow:1e-5000", "clog:1e400"])
    def test_phi_parameter_far_outside_the_float_range(self, ones_file, phi):
        result = run_cli("build", "--f", str(ones_file), "--phi", phi, "--stages", "1")
        assert result.returncode == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"ERROR: phi parameter of {phi.split(':')[0]} is about 10^")
        assert len(line) <= 200

    def test_search_cap_flag(self, ones_file):
        result = run_cli("build", "--f", str(ones_file), "--phi", "log2",
                         "--stages", "1", "--search-cap", "10")
        assert result.returncode == 1
        assert "PHI_TOO_SLOW" in result.stderr

    def test_search_cap_env(self, ones_file):
        """The environment sets no cap, so this build runs to the default one."""
        result = run_cli("build", "--f", str(ones_file), "--phi", "log2",
                         "--stages", "1", env_extra={"REPBASIS_SEARCH_CAP": "10"})
        assert result.returncode == 0, result.stderr
        assert verify_trace(trace_loads(result.stdout)).passed

    @pytest.mark.parametrize(
        "text",
        [
            '{"window": 0, "values": {"0": 1, "00": 0}, "default": 1}',
            '{"window": 0, "values": {"0": 1}, "default": 1, "default": 2}',
            '{"window": 0, "values": {"0": 1}, "default": 1, "defualt": 2}',
            "[" * 10**5 + "]" * 10**5,
        ],
        ids=["aliased_keys", "duplicate_key", "unknown_key", "deep_nesting"],
    )
    def test_ambiguous_target_file(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        result = run_cli("build", "--f", str(path), "--phi", "log2", "--stages", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_huge_window_target_file(self, tmp_path):
        # a window of 10**9 named in a few bytes is rejected without building it
        path = tmp_path / "f.json"
        path.write_text('{"window": 1000000000, "values": {"0": 1}, "default": 1}')
        result = run_cli("build", "--f", str(path), "--phi", "log2", "--stages", "1",
                         timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR:")

    @pytest.mark.parametrize(
        "values, window, witness",
        [
            ({}, 0, "n=0 is missing"),
            ({"-2": 1, "-1": 1, "1": 1, "2": 1}, 2, "n=0 is missing"),
            ({"0": 1}, 10**9, "n=-1000000000 is missing"),
            ({"0": 1, "1": 1, "5": 1}, 1, "key 5 lies outside"),
        ],
        ids=["empty", "gap", "huge_window", "outside"],
    )
    def test_window_mismatch_names_window_and_witness(self, tmp_path, values, window, witness):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"window": window, "values": values, "default": 2}))
        result = run_cli("build", "--f", str(path), "--phi", "log2", "--stages", "1",
                         timeout=60)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (f"ERROR: values must cover exactly the integers n with "
                                 f"|n| <= window={window}; {witness}\n")

    @pytest.mark.parametrize(
        "target, message",
        [
            ({"window": 1.5, "values": {"0": 1}, "default": 1}, "window must be an integer >= 0, got 1.5"),
            ({"window": 0, "values": {"0": 1}, "default": True}, 'default (or "inf") must be an integer, got True'),
            ({"window": 0, "values": {"0": 1}, "default": "Infinity"},
             'default (or "inf") must be an integer, got \'Infinity\''),
        ],
        ids=["float_window", "bool_default", "infinity_spelled_out"],
    )
    def test_a_number_that_is_not_an_integer_is_named(self, tmp_path, target, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(target))
        result = run_cli("build", "--f", str(path), "--phi", "log2", "--stages", "1")
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"ERROR: {message}\n")

    def test_hopeless_phi_aborts_at_default_cap(self, ones_file):
        # Lindström's bound rules out every x up to 10**9 before any scan
        result = run_cli("build", "--f", str(ones_file), "--phi", "clog:1/100",
                         "--stages", "1")
        assert result.returncode == 1
        assert "PHI_TOO_SLOW" in result.stderr
        assert "1000000000" in result.stderr

    def test_missing_target_file(self, tmp_path):
        result = run_cli("build", "--f", str(tmp_path / "nope.json"),
                         "--phi", "log2", "--stages", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR:")


class TestClosedStdout:
    """A closed stdout ends a command quietly with its own exit status."""

    @pytest.mark.parametrize(
        "args",
        [
            ("sidon", "--n", "50"),
            # about 9 KB, past the pipe's write buffer, so write() itself fails
            ("sidon", "--method", "erdos-turan", "--n", "1000000"),
        ],
        ids=["small", "past_the_buffer"],
    )
    def test_sidon(self, args):
        result = run_cli_into_closed_pipe(*args)
        assert (result.returncode, result.stderr) == (0, "")

    def test_build_to_stdout(self, ones_file):
        result = run_cli_into_closed_pipe("build", "--f", str(ones_file), "--phi", "log2",
                                          "--stages", "1")
        assert (result.returncode, result.stderr) == (0, "")

    def test_stats_to_stdout(self, ones_trace_file):
        result = run_cli_into_closed_pipe("stats", "--trace", str(ones_trace_file))
        assert (result.returncode, result.stderr) == (0, "")

    def test_verify_keeps_its_verdict(self, tmp_path, ones_trace_file):
        data = json.loads(ones_trace_file.read_text())
        data["stages"][2]["set"] = sorted(data["stages"][2]["set"] + [0])
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(data))
        passing = run_cli_into_closed_pipe("verify", "--trace", str(ones_trace_file))
        failing = run_cli_into_closed_pipe("verify", "--trace", str(mutated))
        assert (passing.returncode, passing.stderr) == (0, "")
        assert (failing.returncode, failing.stderr) == (1, "")

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_target_file_is_still_an_error(self, tmp_path, name):
        result = run_cli_into_closed_pipe("build", "--f", str(tmp_path / name), "--phi", "log2",
                                          "--stages", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR:")


class TestVerify:
    def test_passing_trace(self, tmp_path, ones_trace_file):
        report_path = tmp_path / "report.json"
        result = run_cli("verify", "--trace", str(ones_trace_file),
                         "--report", str(report_path), check=True)
        assert result.stdout.strip().splitlines()[-1] == "PASS"
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["invariants"]["passed"] is True

    def test_tampered_trace_fails(self, ones_trace_file):
        data = json.loads(ones_trace_file.read_text())
        data["stages"][2]["set"] = sorted(data["stages"][2]["set"] + [0])
        ones_trace_file.write_text(json.dumps(data))
        result = run_cli("verify", "--trace", str(ones_trace_file))
        assert result.returncode == 1
        lines = result.stdout.strip().splitlines()
        assert lines[-1] == "FAIL"
        assert any(line.startswith("FAIL condition_4_zero_free") for line in lines)

    def test_base_stage_names_the_smallest_mismatch(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(BASE_MISMATCH))
        result = run_cli("verify", "--trace", str(path))
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "FAIL nesting stage=1 witness=1: base stage must list itself as added"
        assert lines[-1] == "FAIL"

    def test_malformed_trace(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a trace"}')
        result = run_cli("verify", "--trace", str(path))
        assert result.returncode == 1
        assert "MALFORMED_TRACE" in result.stderr

    def test_deep_nesting(self, tmp_path):
        # nesting too deep for the parser is one typed line, not a RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5 + "]" * 10**5)
        result = run_cli("verify", "--trace", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("MALFORMED_TRACE: trace is not valid JSON: ")
        assert "Traceback" not in result.stderr

    def test_overlong_integer(self, ones_trace_file):
        # json cannot write an integer of more than 4300 digits, so splice it in
        text = ones_trace_file.read_text().replace('"x": 490', '"x": 1' + "0" * 4999)
        ones_trace_file.write_text(text)
        result = run_cli("verify", "--trace", str(ones_trace_file))
        assert result.returncode == 1
        assert result.stderr.startswith("MALFORMED_TRACE:")

    def test_checkpoint_past_the_float_range(self, ones_trace_file):
        # sqrt(10**4000)/log2(10**4000) is past the float range, so no count clears it
        x = 10**4000
        data = json.loads(ones_trace_file.read_text())
        data["stages"][2]["x"] = x
        ones_trace_file.write_text(json.dumps(data))
        result = run_cli("verify", "--trace", str(ones_trace_file))
        assert result.returncode == 1
        lines = result.stdout.strip().splitlines()
        assert lines[-1] == "FAIL"
        assert any(line.startswith(f"FAIL condition_3_density stage=3 witness={x}:") for line in lines)

    def test_a_prescribed_count_at_the_digit_limit_builds_and_verifies(self, tmp_path, digit_limit):
        # r(4x+1) has 4302 digits, which verify once tried to print in full
        target, trace, report = (tmp_path / name for name in ("big.json", "big.trace.json", "big.report.json"))
        target.write_text(json.dumps({"window": 0, "values": {"0": 1}, "default": 9 * 10**(digit_limit - 1)}))
        limit = {"PYTHONINTMAXSTRDIGITS": str(digit_limit)}
        run_cli("build", "--f", str(target), "--phi", "log2", "--stages", "1", "--out", str(trace),
                env_extra=limit, check=True)
        result = run_cli("verify", "--trace", str(trace), "--report", str(report), env_extra=limit)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == "PASS"
        bounds = [c["detail"] for c in json.loads(report.read_text())["upper_bounds"]]
        assert bounds == ["stages 1-3: k=3, k(k+1)/2=6, bound r(4x+1)=<integer of up to 4303 digits>",
                          "stages 1-3: k=6, k(k+1)/2=21, bound r(4x+1)=<integer of up to 4304 digits>"]

    def test_a_checkpoint_at_the_digit_limit_fails_its_density(self, tmp_path, ones_trace_file, digit_limit):
        x = 3 * 10**(digit_limit - 1)
        data = json.loads(ones_trace_file.read_text())
        data["stages"][2]["x"] = x
        ones_trace_file.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        result = run_cli("verify", "--trace", str(ones_trace_file), "--report", str(report),
                         env_extra={"PYTHONINTMAXSTRDIGITS": str(digit_limit)})
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout.splitlines()[-1] == "FAIL"
        failed = [(c["condition"], c["witness"]) for c in json.loads(report.read_text())["invariants"]["checks"]
                  if not c["passed"]]
        assert failed == [("condition_3_density", x)]

    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_a_pair_sum_past_the_digit_limit_is_refused(self, tmp_path, digit_limit, command):
        # each element has 4300 digits, but (B+1) + (B+3) has 4301, which
        # verify once tried to print as a witness; stats shares the shape rules
        elements = [9 * 10**(digit_limit - 1) + d for d in (1, 2, 3, 4)]
        stage = {"index": 1, "kind": "BASE", "set": elements, "added": elements, "x": 1}
        trace = tmp_path / "big_sum.trace.json"
        trace.write_text(json.dumps({"f": {"window": 0, "values": {"0": 1}, "default": 1}, "phi": "log2",
                                     "u_prefix": [0], "stages": [stage]}))
        result = run_cli(command, "--trace", str(trace), env_extra={"PYTHONINTMAXSTRDIGITS": str(digit_limit)})
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "MALFORMED_TRACE: stage 1 pair sum has up to 4301 digits, past the limit of 4300\n"

    def test_a_long_unexpected_key_is_named_in_brief(self, ones_trace_file, capsys):
        data = json.loads(ones_trace_file.read_text())
        data["stages"][0]["k" * 10**6] = 1
        ones_trace_file.write_text(json.dumps(data))
        assert cli.main(["verify", "--trace", str(ones_trace_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "MALFORMED_TRACE: stage 1 keys: unexpected ['" + "k" * 78 + "...\n"

    @pytest.mark.parametrize("phi", ["clog:1e-400", "pow:1e-400"])
    def test_phi_parameter_outside_the_float_range(self, ones_trace_file, phi):
        data = json.loads(ones_trace_file.read_text())
        data["phi"] = phi
        ones_trace_file.write_text(json.dumps(data))
        result = run_cli("verify", "--trace", str(ones_trace_file))
        assert result.returncode == 1
        assert result.stderr.startswith("MALFORMED_TRACE: bad phi: phi parameter")
        assert "Traceback" not in result.stderr

    def test_huge_window(self, ones_trace_file):
        data = json.loads(ones_trace_file.read_text())
        data["f"]["window"] = 10**9
        ones_trace_file.write_text(json.dumps(data))
        result = run_cli("verify", "--trace", str(ones_trace_file), timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("MALFORMED_TRACE:")

    def test_duplicate_key(self, ones_trace_file):
        text = ones_trace_file.read_text().replace('"x": 490', '"x": 490, "x": 491')
        ones_trace_file.write_text(text)
        result = run_cli("verify", "--trace", str(ones_trace_file))
        assert result.returncode == 1
        assert result.stderr.startswith("MALFORMED_TRACE:")

    @pytest.mark.parametrize("key, value, prefix", [
        # a stage-1 entry of 10^5 integers has a repr of about 689 KB
        ("index", list(range(10**5)), "stage 1 index must be an integer, got [0, 1, "),
        ("kind", list(range(10**5)), "stage 1 kind [0, 1, "),
        # integers of 4001 digits still parse
        ("index", 10**4000, "stage at position 1 carries index 1000"),
        ("x", -10**4000, "stage 1 checkpoint x must be positive, got -1000"),
    ])
    def test_a_long_refused_value_is_named_in_brief(self, ones_trace_file, capsys, key, value,
                                                    prefix):
        data = json.loads(ones_trace_file.read_text())
        data["stages"][0][key] = value
        ones_trace_file.write_text(json.dumps(data))
        assert cli.main(["verify", "--trace", str(ones_trace_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"MALFORMED_TRACE: {prefix}")
        assert "..." in lines[0] and len(err.encode()) < 300

    @pytest.mark.parametrize("added", [[], [5], [5, 6, 7], [5, 6, 7, 8]])
    def test_extension_added_size(self, ones_trace_file, added):
        # an extension adds its pair or nothing; any other size is malformed
        data = json.loads(ones_trace_file.read_text())
        data["stages"][1]["added"] = added
        ones_trace_file.write_text(json.dumps(data))
        result = run_cli("verify", "--trace", str(ones_trace_file))
        assert result.returncode == 1
        if added:
            assert result.stderr.startswith("MALFORMED_TRACE:")
        else:
            assert result.stdout.strip().splitlines()[-1] == "FAIL"


class TestSidon:
    def test_auto(self):
        result = run_cli("sidon", "--method", "auto", "--n", "16", check=True)
        payload = json.loads(result.stdout)
        assert payload == {
            "density_ok": True,
            "elements": [1, 2, 4, 8, 13],
            "method": "auto",
            "n": 16,
            "size": 5,
            "threshold": 2.0,
        }

    def test_greedy(self):
        payload = json.loads(run_cli("sidon", "--method", "greedy", "--n", "10",
                                     check=True).stdout)
        assert payload["elements"] == [1, 2, 4, 8]

    def test_erdos_turan_too_small(self):
        result = run_cli("sidon", "--method", "erdos-turan", "--n", "7")
        assert result.returncode == 1
        assert "INPUT_TOO_SMALL" in result.stderr

    def test_unknown_method(self):
        assert run_cli("sidon", "--method", "bogus", "--n", "10").returncode == 2

    def test_bound_past_the_limit(self):
        # formerly ran on past a minute; the timeout turns a regression into a failure
        result = run_cli("sidon", "--method", "greedy", "--n", "100000001", timeout=60)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("INPUT_TOO_LARGE:")
        assert "100000000" in result.stderr


class TestStats:
    def test_csv_rows(self, tmp_path, ones_trace_file):
        out = tmp_path / "stats.csv"
        run_cli("stats", "--trace", str(ones_trace_file), "--out", str(out), check=True)
        phi = PhiSpec.parse("log2")
        lines = out.read_text().splitlines()
        assert lines[0] == "x,count,demand,ratio,ceiling"
        expected = []
        for x, count in ((24, 3), (490, 6)):
            demand = density_demand(x, phi)
            expected.append(
                f"{x},{count},{demand:.6f},{count / demand:.6f},"
                f"{math.sqrt(2 * (4 * x + 1)):.6f}"
            )
        assert lines[1:] == expected

    @pytest.mark.parametrize("digits", [400, 4000])
    def test_rows_past_the_float_range(self, ones_trace_file, digits):
        x = 10**digits
        data = json.loads(ones_trace_file.read_text())
        data["stages"][2]["x"] = x
        ones_trace_file.write_text(json.dumps(data))
        result = run_cli("stats", "--trace", str(ones_trace_file), check=True)
        row = result.stdout.strip().splitlines()[-1].split(",")
        assert row[:2] == [str(x), "6"]
        demand, ratio, ceiling = map(float, row[2:])
        if digits == 400:
            assert demand == pytest.approx(1e200 / (400 * math.log2(10)), rel=1e-9)
            assert ceiling == pytest.approx(math.sqrt(8) * 1e200, rel=1e-9)
        else:
            # the bar and sqrt(8x) themselves pass the float range
            assert (demand, ratio, ceiling) == (math.inf, 0.0, math.inf)

    def test_a_bar_that_underflows_to_zero_reads_ratio_inf(self, tmp_path, ones_file):
        # phi(x) = c*ln(x+2) passes the float range, so sqrt(x)/phi(x) is 0.0
        out = tmp_path / "trace.json"
        run_cli("build", "--f", str(ones_file), "--phi", f"clog:{int(1.7e308)}", "--stages", "1",
                "--out", str(out), check=True)
        result = run_cli("stats", "--trace", str(out), check=True)
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert [row[:4] for row in rows] == [["24", "3", "0.000000", "inf"], ["490", "6", "0.000000", "inf"]]

    def test_ratios_exceed_one(self, ones_trace_file):
        result = run_cli("stats", "--trace", str(ones_trace_file), check=True)
        for line in result.stdout.strip().splitlines()[1:]:
            ratio = float(line.split(",")[3])
            assert ratio > 1.0


def test_no_arguments_is_usage_error():
    assert run_cli().returncode == 2


def _reference_main(argv) -> int:
    """main() with every line through the full parser, as before a line that
    starts with a command went straight to that command's sub-parser."""
    args = cli._build_parser()[0].parse_args(argv)
    try:
        return args.run(args)
    except RepbasisError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


def _outcome(call, capsys):
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.fixture(scope="module")
def line_fields(tmp_path_factory):
    """The fields of the command lines below: a target file, its 1-round trace
    and a scratch directory."""
    tmp = tmp_path_factory.mktemp("lines")
    (tmp / "ones.json").write_text(json.dumps(ONES))
    (tmp / "trace.json").write_text(trace_dumps(build(RepTarget.from_dict(ONES), "log2", 1)))
    return {"f": tmp / "ones.json", "trace": tmp / "trace.json", "tmp": tmp}


VALID_LINES = ["build --f {f} --phi log2 --stages 1", "verify --trace {trace}", "sidon --n 5",
               "stats --trace {trace}"]
FULL_PARSER_LINES = ["", "-h", "--help", "-h sidon", "bogus", "sidon --n 5 extra"]
DISPATCH_CORPUS = FULL_PARSER_LINES + VALID_LINES + [
    "--version", "SIDON", "sid", "--n 5 sidon", "sidon", "sidon -h", "sidon --n 5 -h",
    "sidon --he", "sidon --n 5 --bogus", "sidon --n 5 -- x", "sidon -- --n 5", "sidon --n=5",
    "sidon --meth greedy --n 5", "sidon --n 5 --n 6", "sidon --method bogus --n 5", "sidon --n x",
    # a required option left out
    "build --f {f} --phi log2", "verify --report {tmp}/report.json", "stats --out {tmp}/stats.csv",
    # more errors of the sub-parsers, and valid lines whose command fails
    "build -h", "build --f {f} --phi log2 --stages x", "stats --trace", "verify --trace {trace} extra",
    "build --f {f} --phi bogus --stages 1", "build --f {f} --phi log2 --stages 1 --search-cap 10",
    "verify --trace {tmp}/missing.json", "sidon --method erdos-turan --n 7",
]


@pytest.mark.parametrize("line", DISPATCH_CORPUS, ids=lambda line: line or "no_arguments")
def test_dispatch_answers_as_the_full_parser(line, line_fields, capsys):
    argv = line.format(**line_fields).split()
    assert _outcome(lambda: cli.main(argv), capsys) == _outcome(lambda: _reference_main(argv), capsys)


@pytest.mark.parametrize("through_sys_argv", [False, True])
def test_only_lines_a_sub_parser_cannot_settle_reach_the_full_parser(through_sys_argv, line_fields,
                                                                      monkeypatch, capsys):
    parser, calls = cli._build_parser()[0], []

    def spy(name):
        method = getattr(parser, name)

        def call(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return call

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(parser, name, spy(name))
    for line in VALID_LINES + FULL_PARSER_LINES:
        argv = line.format(**line_fields).split()
        calls.clear()
        if through_sys_argv:
            monkeypatch.setattr(sys, "argv", ["repbasis", *argv])
            _outcome(cli.main, capsys)
        else:
            _outcome(lambda: cli.main(argv), capsys)
        assert bool(calls) == (line in FULL_PARSER_LINES), (line, calls)


def test_in_process_calls_reuse_one_parser(tmp_path, ones_file, ones_trace_file, capsys):
    """A run of main() calls in one process, through success, a package
    error, a usage error and a failed verification, builds the parser once
    and answers each call as a fresh process does."""
    data = json.loads(ones_trace_file.read_text())
    data["stages"][2]["set"] = sorted(data["stages"][2]["set"] + [0])
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(data))
    sidon = ("sidon", "--method", "auto", "--n", "4999")
    sequence = [
        sidon,
        ("build", "--f", str(ones_file), "--phi", "bogus", "--stages", "1"),
        ("sidon", "--n", "many"),
        ("verify", "--trace", str(mutated)),
        ("sidon", "--n", "5", "extra"),
        ("sidon", "-h"),
        sidon,
    ]
    cli._build_parser.cache_clear()
    codes = []
    for argv in sequence:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 1, 2, 1, 2, 0, 0]
    assert cli._build_parser.cache_info().misses == 1
