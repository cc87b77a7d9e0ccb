import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from markovsum import catalog, cli
from markovsum.markov import certificates
from support import parse_reports_csv

MARKOV_33 = "1.202056903159594285399738161511450"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_apery_33_digits(self, capsys):
        code, out, _ = run(capsys, "compute", "apery", "--digits", "33")
        assert code == 0
        assert f"value: {MARKOV_33}" in out
        assert "digits proven: 33" in out

    def test_markov_hurwitz_33_digits(self, capsys):
        code, out, _ = run(capsys, "compute", "markov-hurwitz", "--a", "1",
                           "--digits", "33")
        assert code == 0
        assert f"value: {MARKOV_33}" in out

    def test_thousand_digits_in_bounded_memory(self, capsys):
        # the terms are summed on the integer states of the last three indices
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "compute", "apery", "--digits", "1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "digits proven: 1000" in out
        assert peak < 1_000_000, peak

    def test_ratio27_twenty_digits_within_13_terms(self, capsys):
        code, out, _ = run(capsys, "compute", "ratio27-zeta3", "--digits", "20")
        assert code == 0
        terms = int(next(l for l in out.splitlines() if l.startswith("terms used")).split(": ")[1])
        assert terms <= 13

    @pytest.mark.parametrize("argv", [
        "compute hurwitz3-direct --digits 2 --max-terms 512 --a -1/2",
        "solve 4f3-u2 --x-max 2 --params -2,1/3,2",
        "solve 4f3-u2 --x-max 2 --params -1/2,1/3,2",
        "solve 4f3-u2 --x-max 2 --params -1/2,-1/3,3",
    ])
    def test_negative_rational_parameter_may_follow_a_space(self, capsys, argv):
        *head, option, value = argv.split()
        spaced = run(capsys, *head, option, value)
        joined = run(capsys, *head, f"{option}={value}")
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_unknown_formula_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "nosuch")
        assert code == 64
        assert "unknown formula" in err

    def test_non_geometric_shortfall(self, capsys):
        # the telescoping pair proves 14 digits at 200 terms: the cap binds
        code, out, _ = run(capsys, "compute", "zeta3-direct", "--digits", "20",
                           "--max-terms", "200")
        assert code == 2
        assert "no geometric bound" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "compute", "apery",
                           "--digits", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["digits_proven"] >= 10

    def test_rejects_decimal_parameter(self, capsys):
        code, _, err = run(capsys, "compute", "markov-hurwitz", "--a", "0.5")
        assert code == 64

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "compute", "apery", "--frobnicate")
        assert code == 64


class TestCompare:
    def test_zeta3_rows(self, capsys):
        code, out, _ = run(capsys, "compare", "zeta3", "--digits", "20",
                           "--max-terms", "400")
        assert code == 0
        rows = parse_reports_csv(out)
        assert [r["entry"] for r in rows] == [
            "zeta3-direct", "apery", "markov-hurwitz", "ratio27-zeta3", "az-zeta3"]
        accelerated = [r for r in rows if r["ratio_bound"] is not None]
        assert all(r["digits_proven"] >= 20 for r in accelerated)

    def test_zeta2_rows(self, capsys):
        code, out, _ = run(capsys, "compare", "zeta2", "--digits", "15",
                           "--max-terms", "400")
        assert code == 0
        rows = parse_reports_csv(out)
        assert [r["entry"] for r in rows] == ["zeta2-direct", "schellbach-zeta2", "zeta2-27"]

    def test_disagreement_is_printed_once(self, capsys, monkeypatch):
        monkeypatch.setitem(catalog.CONSTANT_GROUPS, "zeta3", ("apery", "schellbach-zeta2"))
        code, out, _ = run(capsys, "compare", "zeta3", "--digits", "10")
        assert code == cli.EXIT_DISAGREE
        assert out == "DISAGREEMENT: apery vs schellbach-zeta2 on 10 shared digits\n"

    def test_zero_digits_trivial(self, capsys):
        code, out, _ = run(capsys, "compare", "zeta3", "--digits", "0",
                           "--max-terms", "5")
        assert code == 0
        assert len(out.splitlines()) == 6  # header + five rows

    def test_csv_parses_back_losslessly(self, capsys):
        _, out, _ = run(capsys, "compare", "zeta2", "--digits", "10",
                        "--max-terms", "200")
        rows = parse_reports_csv(out)
        assert all(r["schema"] == "1" for r in rows)
        assert all(isinstance(r["terms_used"], int) for r in rows)


class TestVerifyPair:
    def test_canonical_grid(self, capsys):
        code, out, _ = run(capsys, "verify-pair", "3phi2", "--a", "1/3", "--b", "1/5",
                           "--c", "1/7", "--d", "1/11", "--q", "1/2", "--grid", "10x10")
        assert code == 0
        assert "residual_failures: 0" in out
        assert "boundary_equal: True" in out

    def test_boundary_sums_past_the_digit_limit(self, capsys):
        # the 50x50 boundary sums have numerators of more than 4300 digits
        code, out, _ = run(capsys, "verify-pair", "3phi2", "--grid", "50x50")
        assert code == 0
        assert "residual_failures: 0" in out and "boundary_equal: True" in out
        lhs = next(line for line in out.splitlines() if line.startswith("boundary_lhs: "))
        assert len(lhs) > 4300

    @pytest.mark.parametrize("argv", [("--q", "2"), ("--c", "3", "--d", "5", "--q", "1/2")],
                             ids=["q=2", "t=450"])
    def test_tuple_outside_convergence_accepted(self, capsys, argv):
        # the pair condition and the Green rectangle are exact finite identities
        code, out, err = run(capsys, "verify-pair", "3phi2", *argv)
        assert (code, err) == (0, "")
        assert "residual_failures: 0" in out and "boundary_equal: True" in out

    def test_first_singular_point_exits_65(self, capsys):
        # tq = 1: the certificate's divisor 1 - t q^(2x+1) vanishes at x = 0
        code, out, err = run(capsys, "verify-pair", "3phi2", "--a", "1/2", "--b", "1/3",
                             "--c", "1/2", "--d", "1/3", "--q", "1/2")
        assert (code, out) == (65, "")
        assert "(1 - t q^(2x+1)) vanishes at x=0" in err

    def test_fuzz_detected(self, capsys):
        code, out, _ = run(capsys, "verify-pair", "3phi2", "--grid", "4x4", "--fuzz")
        assert code == 1
        assert "first_failure" in out

    def test_unknown_fixture(self, capsys):
        code, _, _ = run(capsys, "verify-pair", "2phi1")
        assert code == 64

    def test_grid_past_the_column_cap_refused_before_any_work(self, capsys):
        # the checks at column x read A_{x+1}; unrefused, this ran 512 columns, then exited 65
        code, out, err = run(capsys, "verify-pair", "3phi2", "--grid", "600x2")
        assert (code, out) == (64, "")
        assert err == "error: --grid reads column x=601, beyond cap 512\n"

    def test_largest_grid_under_the_column_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(certificates, "X_CAP", 8)
        code, out, _ = run(capsys, "verify-pair", "3phi2", "--grid", "7x2")
        assert code == 0 and "residual_failures: 0" in out
        assert run(capsys, "verify-pair", "3phi2", "--grid", "8x2")[0] == 64

    def test_preset_file(self, capsys, tmp_path):
        presets = tmp_path / "presets.json"
        presets.write_text(json.dumps({
            "small": {"a": "1/2", "b": "1/3", "c": "1/5", "d": "1/7", "q": "1/3"}}))
        code, out, _ = run(capsys, "verify-pair", "3phi2", "--grid", "3x3",
                           "--presets", str(presets), "--preset", "small")
        assert code == 0
        assert "'q': '1/3'" in out

    def test_presets_without_a_preset_name_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify-pair", "3phi2", "--presets", str(tmp_path / "p.json"))
        assert (code, out, err) == (64, "", "error: --presets requires --preset NAME\n")

    def test_missing_preset_file_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "verify-pair", "3phi2", "--presets", str(missing),
                             "--preset", "small")
        assert (code, out) == (64, "")
        assert err == f"error: cannot read {missing}: No such file or directory\n"

    @pytest.mark.parametrize("preset, message", [
        ({"a": "1/2", "b": "1/3", "c": "1/5", "d": "1/7"}, "needs q as a string"),
        ({"a": 1, "b": "1/3", "c": "1/5", "d": "1/7", "q": "1/3"}, "needs a as a string"),
    ], ids=["missing-q", "integer-a"])
    def test_malformed_preset_is_a_usage_error(self, capsys, tmp_path, preset, message):
        presets = tmp_path / "presets.json"
        presets.write_text(json.dumps({"small": preset}))
        code, out, err = run(capsys, "verify-pair", "3phi2", "--presets", str(presets),
                             "--preset", "small")
        assert (code, out) == (64, "")
        assert err.startswith("error: preset 'small' ") and message in err
        assert len(err.splitlines()) == 1


class TestVerifyCertificate:
    def test_grid_plus_random(self, capsys):
        code, out, _ = run(capsys, "verify-certificate", "--grid", "6x6",
                           "--random-points", "5", "--seed", "3")
        assert code == 0
        assert "passed: True" in out

    def test_grid_past_the_column_cap_needs_no_column_multiplier(self, capsys):
        code, out, _ = run(capsys, "verify-certificate", "--grid", "600x1")
        assert code == 0 and "passed: True" in out

    def test_singular_evaluation_exit_code(self, capsys):
        # c = q^-2 makes the extension denominator vanish inside the grid
        code, _, err = run(capsys, "verify-certificate", "--c", "4", "--q", "1/2",
                           "--grid", "6x6")
        assert code == 65
        assert "singularity" in err and "x=1, z=2" in err

    @pytest.mark.parametrize("argv, err", [
        (("--c", "4", "--q", "1/2"),
         "evaluation singularity at (x=1, z=2): (c,d;q)_3 vanishes for c=4, d=1/11\n"),
        # t = cd/(abq) = 8 = q^-3
        (("--c", "2/3", "--d", "2/5"),
         "evaluation singularity at (x=1, z=None): (1 - t q^(2x+1)) vanishes at x=1\n"),
    ])
    def test_singular_grid_is_scanned_to_its_first_singular_point(self, capsys, argv, err):
        assert run(capsys, "verify-certificate", *argv, "--grid", "6x6") == (65, "", err)

    def test_random_points_past_the_cap_refused_before_any_work(self, capsys, monkeypatch):
        assert run(capsys, "verify-certificate", "--grid", "1x1", "--random-points",
                   str(certificates.RANDOM_POINTS_CAP + 1))[:2] == (64, "")
        monkeypatch.setattr(certificates, "RANDOM_POINTS_CAP", 3)
        code, out, _ = run(capsys, "verify-certificate", "--grid", "1x1", "--random-points", "3")
        assert (code, out) == (0, "passed: True\nchecks: 151\n")
        assert run(capsys, "verify-certificate", "--grid", "1x1", "--random-points", "4") \
            == (64, "", "error: --random-points reads tuples=4, beyond cap 3\n")

    def test_proved_request_prints_the_scanned_output(self, capsys):
        code, out, _ = run(capsys, "verify-certificate", "--grid", "20x20",
                           "--random-points", "50", "--seed", "0")
        assert (code, out) == (0, "passed: True\nchecks: 2891\n")


class TestSolve:
    def test_u1_closed_forms(self, capsys):
        code, out, _ = run(capsys, "solve", "3phi2-u1", "--x-max", "4")
        assert code == 0
        assert "x=0  U-multiplier: [1]  V-multiplier: [77/47, -346/1457]" in out

    def test_u2_closure(self, capsys):
        code, out, _ = run(capsys, "solve", "4f3-u2", "--x-max", "8")
        assert code == 0
        assert "x=8" in out

    def test_mismatched_form_fails_with_diagnosis(self, capsys):
        code, out, _ = run(capsys, "solve", "3phi2-u1", "--form", "u3", "--x-max", "3")
        assert code == 1
        assert "does not close at x=0" in out

    def test_failure_is_printed_once(self, capsys):
        _, out, _ = run(capsys, "solve", "3phi2-u1", "--form", "u3", "--x-max", "3")
        assert out == "failure: ansatz does not close at x=0\n"

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "solve", "not-a-family")
        assert code == 64

    def test_x_max_past_the_column_cap_refused_before_any_work(self, capsys):
        # unrefused, --x-max 600 ran for minutes
        code, out, err = run(capsys, "solve", "3phi2-u1", "--x-max", "600")
        assert (code, out) == (64, "")
        assert err == "error: --x-max reads column x=601, beyond cap 512\n"

    def test_largest_x_max_under_the_column_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(certificates, "X_CAP", 8)
        code, out, _ = run(capsys, "solve", "3phi2-u1", "--x-max", "7")
        assert code == 0 and out.splitlines()[-1].startswith("x=7 ")
        assert run(capsys, "solve", "3phi2-u1", "--x-max", "8")[0] == 64

    def test_z_samples_past_the_cap_refused_before_any_work(self, capsys):
        # sample z reads row z + 1; unrefused, --z-samples 300 took about a minute
        code, out, err = run(capsys, "solve", "3phi2-u1", "--z-samples",
                             str(certificates.X_CAP + 1))
        assert (code, out) == (64, "")
        assert err == "error: --z-samples reads row z=513, beyond cap 512\n"

    def test_largest_z_samples_under_the_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(certificates, "X_CAP", 8)
        code, out, _ = run(capsys, "solve", "3phi2-u1", "--x-max", "2", "--z-samples", "8")
        assert code == 0 and out.splitlines()[-1].startswith("x=2 ")
        assert run(capsys, "solve", "3phi2-u1", "--z-samples", "9")[0] == 64


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        "compute markov-hurwitz --a 1/0",
        "verify-pair 3phi2 --q 1/0",
        "solve 4f3-u2 --params x,1,2",
        "solve 4f3-u2 --params 1/0,1,2",
        "solve 4f3-u2 --params 1,2",
        "solve 4f3-wp-u3 --z-samples 3",
        "verify-certificate --a 0 --grid 2x2",
        "verify-certificate --grid 2x-1",
        "verify-pair 3phi2 --a 0",
        "verify-pair 3phi2 --grid 2x-1",
        "verify-pair 3phi2 --q 0",
        "solve 4f3-u2 --x-max -1",
        "solve 3phi2-u1 --params=0,1/5,1/7,1/11,1/2",
        "solve 3phi2-u1 --params=1/3,1/5,1/7,1/11,0",
        "verify-certificate --random-points -3",
    ])
    def test_bad_input_exits_64_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestInfrastructure:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "apery" in out and "kummer" in out

    def test_reproducible_output(self, capsys):
        first = run(capsys, "verify-certificate", "--grid", "4x4",
                    "--random-points", "3", "--seed", "11")
        second = run(capsys, "verify-certificate", "--grid", "4x4",
                     "--random-points", "3", "--seed", "11")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "--format", "json", "--output", str(path),
                           "compute", "apery", "--digits", "8")
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["digits_proven"] >= 8

    def test_output_into_a_missing_directory_is_a_usage_error(self, capsys, tmp_path,
                                                              monkeypatch):
        path = tmp_path / "missing" / "report.json"
        monkeypatch.setattr(cli, "_HANDLERS", {})  # refused before any verb runs
        code, out, err = run(capsys, "--output", str(path), "compute", "apery")
        assert (code, out) == (64, "")
        assert err == f"error: --output {path}: no such directory\n"
        assert not path.parent.exists()

    def test_output_that_cannot_be_written_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "--output", str(tmp_path), "compute", "apery", "--digits", "5")
        assert (code, out) == (64, "")
        assert err.startswith(f"error: cannot write {tmp_path}: ") and len(err.splitlines()) == 1

    def test_format_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MARKOVSUM_FORMAT", "json")
        code, out, _ = run(capsys, "compute", "apery", "--digits", "5")
        assert code == 0
        assert json.loads(out)["schema"] == "1"

    @pytest.mark.parametrize("value", ["text", "json", "csv"])
    def test_valid_format_env_matches_the_option(self, capsys, monkeypatch, value):
        expected = run(capsys, "--format", value, "compute", "apery", "--digits", "5")
        monkeypatch.setenv("MARKOVSUM_FORMAT", value)
        assert run(capsys, "compute", "apery", "--digits", "5") == expected
        assert expected[0] == 0 and expected[2] == ""

    @pytest.mark.parametrize("value", ["xml", "", "JSON"])
    def test_invalid_format_env_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MARKOVSUM_FORMAT", value)
        # an explicit --format wins, so the variable is not read
        assert run(capsys, "--format", "json", "compute", "apery", "--digits", "5")[0] == 0
        monkeypatch.setattr(cli, "_HANDLERS", {})  # refused before any verb runs
        code, out, err = run(capsys, "compute", "apery", "--digits", "5")
        assert (code, out) == (64, "")
        assert err == (f"error: MARKOVSUM_FORMAT: invalid choice: {value!r} "
                       "(choose from 'text', 'json', 'csv')\n")

    def test_missing_verb_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    @pytest.mark.parametrize("request_", [
        ("compute", "apery", "--digits", "5"),
        ("verify-pair", "3phi2", "--grid", "3x3"),
    ])
    def test_output_options_before_or_after_the_verb(self, capsys, monkeypatch, tmp_path,
                                                      request_):
        monkeypatch.setenv("MARKOVSUM_FORMAT", "csv")
        before = run(capsys, "--format", "json", *request_)
        assert before[0] == 0 and json.loads(before[1])["schema"] == "1"
        assert run(capsys, *request_, "--format", "json") == before
        # the option after the verb wins over the one before it
        assert run(capsys, "--format", "text", *request_, "--format", "json") == before
        assert run(capsys, "--format", "json", *request_, "--format", "text")[1] \
            == run(capsys, "--format", "text", *request_)[1]
        path = tmp_path / "out.json"
        assert run(capsys, *request_, "--format", "json", "--output", str(path)) \
            == (0, "", "")
        assert path.read_text() == before[1]


def _fresh_process(*argv) -> str:
    """Stdout of ``python -m markovsum.cli argv`` in a new interpreter, MARKOVSUM_FORMAT unset."""
    env = {k: v for k, v in os.environ.items() if k != "MARKOVSUM_FORMAT"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "markovsum.cli", *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


class TestSharedParser:
    """Every main call parses with the one parser built at import."""

    def test_format_env_is_read_on_every_call(self, capsys, monkeypatch):
        request = ("compute", "apery", "--digits", "5")
        monkeypatch.setenv("MARKOVSUM_FORMAT", "json")
        assert json.loads(run(capsys, *request)[1])["schema"] == "1"
        monkeypatch.setenv("MARKOVSUM_FORMAT", "csv")
        assert parse_reports_csv(run(capsys, *request)[1])[0]["entry"] == "apery"
        monkeypatch.delenv("MARKOVSUM_FORMAT")
        assert run(capsys, *request)[1].startswith("entry: apery\n")
        monkeypatch.setenv("MARKOVSUM_FORMAT", "json")
        assert run(capsys, "--format", "text", *request)[1].startswith("entry: apery\n")

    @pytest.mark.parametrize("before, request_", [
        (("compute", "markov-hurwitz", "--a", "1/3", "--digits", "12"), ("compute", "apery")),
        (("verify-pair", "3phi2", "--a", "2/3", "--grid", "3x3", "--fuzz"),
         ("verify-pair", "3phi2", "--grid", "3x3")),
    ])
    def test_no_value_leaks_into_the_next_call(self, capsys, monkeypatch, before, request_):
        monkeypatch.delenv("MARKOVSUM_FORMAT", raising=False)
        run(capsys, *before)
        assert run(capsys, *request_)[1] == _fresh_process(*request_)

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, "compute", "apery", "--digits", "5")[0] == 0
