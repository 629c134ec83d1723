"""Command-line surface: snapshots, exit codes, schema validation."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import autorec
from autorec import recurrence
from autorec.automaton import FORWARD, Dfao, load_builtin, parse_dfao, sequence_term
from autorec.cli import main
from autorec.polymatrix import LEFT, RIGHT, span_analysis
from conftest import TM_ZETA3
import poly_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    path = resources.files("autorec.data.schemas") / f"{name}.json"
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# documented command snapshots


def test_seq_snapshot(capsys):
    code, out, _ = run_cli(capsys, "seq", "--dfao", "thue_morse.dfao", "--count", "6")
    assert code == 0
    assert out.strip() == "1 -1 -1 1 -1 1"


def test_synth_snapshot(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--dfao", "rudin_shapiro.dfao", "--r", "3", "--e", "1", "--s", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integer_coefficients"] == [4, -1, 1]
    assert payload["pretty"] == "A(2^4 n) - A(2^2 n) + 4*A(n) = 0"
    assert payload["provenance"] == "char_poly"
    jsonschema.validate(payload, load_schema("recurrence"))


def test_tm_classify_snapshot(capsys):
    code, out, _ = run_cli(capsys, "tm-classify", "--r0", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["case"] == "PrimePowerPrimitiveRoot"
    jsonschema.validate(payload, load_schema("classification"))


# ----------------------------------------------------------------------
# exit codes


def test_domain_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "tm-classify", "--r0", "8")
    assert code == 1
    assert not out
    assert err.startswith("error[domain]")


def test_negative_verification_bound_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--dfao", "thue_morse", "--r", "3", "--e", "1", "--n-max", "-1"
    )
    assert code == 1
    assert not out
    assert err.startswith("error[domain]")


def test_negative_term_count_exits_one(capsys):
    code, out, err = run_cli(capsys, "seq", "--dfao", "thue_morse", "--count", "-3")
    assert code == 1
    assert not out
    assert err.startswith("error[domain]")


def test_reversal_cap_below_one_exits_one(capsys):
    code, out, err = run_cli(capsys, "dims", "--dfao", "thue_morse", "--cap", "0")
    assert code == 1
    assert not out
    assert err.startswith("error[domain]")
    assert "cap must be at least 1, got 0" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "seq", "--dfao", "no_such_file.dfao", "--count", "3")
    assert code == 1
    assert "error" in err


def test_directory_as_dfao_exits_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, "parse", "--dfao", str(tmp_path))
    assert code == 1
    assert not out
    assert err.startswith("error[domain]: cannot read")


def test_undecodable_dfao_exits_one(capsys, tmp_path):
    path = tmp_path / "latin1.dfao"
    path.write_bytes("base: 2\n# caf\u00e9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "parse", "--dfao", str(path))
    assert code == 1
    assert not out
    assert err.startswith("error[parse]: ") and "not UTF-8" in err


def test_non_ascii_digits_exit_one(capsys, tmp_path):
    # str.isdigit accepts the superscript two, which int() refuses
    path = tmp_path / "superscript.dfao"
    path.write_text("base: ²\n", encoding="utf-8")
    assert run_cli(capsys, "parse", "--dfao", str(path)) == (
        1, "", "error[parse]: base must be an integer, got '²' (line 1, column 6)\n"
    )
    assert run_cli(capsys, "pattern", "--k", "2", "--pattern", "1²", "--modulus", "2") == (
        1, "", "error[domain]: pattern must be a digit string, got '1²'\n"
    )


def test_pattern_out_in_missing_directory_exits_one(capsys, tmp_path):
    target = tmp_path / "missing" / "p.dfao"
    code, out, err = run_cli(
        capsys,
        "pattern", "--k", "2", "--pattern", "11", "--modulus", "2", "--out", str(target),
    )
    assert code == 1
    assert not out
    assert err.startswith("error[domain]: cannot write")
    assert not target.parent.exists()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["seq", "--dfao", "thue_morse", "--no-such-flag"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["not-a-command"])
    assert info.value.code == 2


def test_budget_error_exits_one(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--dfao", "rudin_shapiro",
        "--r", "3", "--e", "1", "--s", "2",
        "--n-max", "100000",
        "--budget", "10",
    )
    assert code == 1
    assert err.startswith("error[budget]")


def test_negative_budget_exits_one(capsys):
    for n_max in ("0", "10"):
        code, _, err = run_cli(
            capsys,
            "verify",
            "--dfao", "rudin_shapiro",
            "--r", "3", "--e", "1",
            "--n-max", n_max,
            "--budget", "-1",
        )
        assert code == 1
        assert err.startswith("error[domain]: verification budget must be nonnegative, got -1")


def test_backward_machine_that_moves_its_output_on_a_leading_zero_holds(capsys, tmp_path):
    # reading a most-significant 0 in state a leads to b, whose output differs
    path = tmp_path / "zero_sensitive.dfao"
    path.write_text(
        "base: 2\ndirection: backward\nstates: a b c\n"
        "output: a = 1\noutput: b = 2\noutput: c = 0\n"
        "delta: a 0 -> b\ndelta: a 1 -> c\ndelta: b 0 -> c\ndelta: b 1 -> a\n"
        "delta: c 0 -> b\ndelta: c 1 -> b\n"
    )
    root = ("--dfao", str(path), "--r", "5", "--e", "2")
    code, out, _ = run_cli(capsys, "synth", *root, "--verify-n", "40")
    assert code == 0
    assert json.loads(out)["verification"]["all_zero"]
    code, out, _ = run_cli(capsys, "verify", *root, "--n-max", "40", "--format", "text")
    assert code == 0
    assert out.strip().endswith("holds for all n <= 40")


# ----------------------------------------------------------------------
# parse round-trip


def test_parse_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "parse", "--dfao", "baum_sweet")
    assert code == 0
    assert parse_dfao(out) == load_builtin("baum_sweet")
    # normalized text is a fixed point of parse + print
    path = tmp_path / "again.dfao"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "parse", "--dfao", str(path))
    assert code == 0
    assert out2 == out


def test_parse_json_format(capsys):
    code, out, _ = run_cli(capsys, "parse", "--dfao", "thue_morse", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["base"] == 2
    jsonschema.validate(payload, load_schema("dfao"))


# ----------------------------------------------------------------------
# remaining subcommands produce valid reports


def test_verify_report_validates(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dfao", "thue_morse", "--r", "3", "--e", "1", "--n-max", "50"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"] == {"n_max": 50, "all_zero": True, "first_failure": None}
    jsonschema.validate(payload, load_schema("recurrence"))


def test_intrec_report_validates(capsys):
    code, out, _ = run_cli(capsys, "intrec", "--dfao", "thue_morse", "--r", "7", "--e", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["integer_coefficients"] == [7, 0, 1]
    assert payload["provenance"] == "integer_product"
    assert payload["verification"]["all_zero"] is True
    jsonschema.validate(payload, load_schema("recurrence"))


def test_intrec_with_irrational_outputs_and_a_rational_matrix(capsys, tmp_path):
    path = tmp_path / "tm_zeta3.dfao"
    path.write_text(TM_ZETA3)
    code, out, err = run_cli(
        capsys, "intrec", "--dfao", str(path), "--r", "7", "--e", "1", "--verify-n", "100", "--format", "text"
    )
    assert (code, err) == (0, "")
    assert out == (
        "A(2^12 n) - 2*A(2^9 n) + 8*A(2^6 n) - 14*A(2^3 n) + 7*A(n) = 0\n"
        "holds for all n <= 100\n"
    )


def test_span_report_validates(capsys):
    code, out, _ = run_cli(capsys, "span", "--dfao", "rudin_shapiro", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["generators"] == [0, 1]
    jsonschema.validate(payload, load_schema("span"))


def test_tm_table_json_validates(capsys):
    code, out, _ = run_cli(capsys, "tm-table", "--bound", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"]["one"]["phi_eq_2s0"] == 5
    jsonschema.validate(payload, load_schema("table"))


def test_tm_table_rejects_zero_jobs(capsys):
    code, out, err = run_cli(capsys, "tm-table", "--bound", "100", "--jobs", "0")
    assert code == 1
    assert not out
    assert err == "error[domain]: jobs must be at least 1, got 0\n"


def test_tm_table_text_layout(capsys):
    code, out, _ = run_cli(capsys, "tm-table", "--bound", "100")
    assert code == 0
    assert "phi" in out and "non-integer" in out


def test_dims_report_validates(capsys):
    code, out, _ = run_cli(capsys, "dims", "--dfao", "baum_sweet", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["forward_dim"] == 2
    assert payload["backward_dim"] == 2
    jsonschema.validate(payload, load_schema("dims"))


def test_dims_runs_one_span_analysis(capsys, monkeypatch):
    # the reversal has the same span rank (dim_experiment), so one span analysis serves both directions
    calls = []
    span_analysis = recurrence.span_analysis
    monkeypatch.setattr(recurrence, "span_analysis", lambda a: calls.append(a) or span_analysis(a))
    for name in ("thue_morse", "baum_sweet", "rudin_shapiro"):
        calls.clear()
        code, _, _ = run_cli(capsys, "dims", "--dfao", name, "--format", "json")
        assert code == 0 and len(calls) == 1, name


def test_lmin_bound_is_the_rank_of_the_unpadded_machine(capsys, tmp_path):
    # a(n) = 0 for every n: the empty word ends in a, a leading 1 in c.  Unpadded, f_b = 1 and
    # f_c = 0 everywhere and f_a(0 w) = 1, so the rank is 2; the padded machine's span has rank 0.
    a = Dfao(2, FORWARD, "abc", [0, 1, 0], [[1, 2], [1, 1], [2, 2]])
    assert recurrence.lmin_bound(a) == 2
    assert recurrence._machine(a).span.rank == 0
    path = tmp_path / "zero.dfao"
    path.write_text(a.to_text())
    code, out, _ = run_cli(capsys, "dims", "--dfao", str(path), "--format", "json")
    assert code == 0
    assert out == (
        '{\n  "forward_dim": 2,\n  "backward_dim": 2,\n  "forward_states": 3,\n'
        '  "backward_states": 3,\n  "lmin_bound": 2\n}\n'
    )


def test_matrix_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--dfao", "thue_morse", "--power", "2", "--truncate", "3"
    )
    assert code == 0
    assert "M(x):" in out
    assert "1 - x - x^2" in out


def _matrix_oracle(name: str, power, n) -> tuple[dict, str]:
    """The JSON and the text of `matrix` for a bundled machine, built from poly_oracle's polynomial matrices."""
    a = load_builtin(name)
    m = poly_oracle.transition_matrix(a)
    mhat = poly_oracle.transition_matrix(a, span_analysis(a))
    side = LEFT if a.direction == FORWARD else RIGHT
    payload = {"m": m.to_json_dict(), "m_hat": mhat.to_json_dict()}
    blocks = ["M(x):", m.pretty(), "", "reduced M(x):", mhat.pretty()]
    if power is None:
        t = next(t for t in range(n + 1) if a.base**t >= n)
    else:
        t = power
        prod = poly_oracle.power_product(mhat, a.base, t, side)
        payload["product"] = prod.to_json_dict()
        payload["product_side"] = side
        blocks += ["", f"ordered product, {t} factors ({side}):", prod.pretty()]
    if n is not None:
        cut = poly_oracle.truncate(poly_oracle.power_product(mhat, a.base, t, side), n)
        payload["truncated"] = cut.to_json_dict()
        blocks += ["", f"truncated to exponents below {n}:", cut.pretty()]
    return payload, "\n".join(blocks) + "\n"


@pytest.mark.parametrize("name", ["rudin_shapiro", "baum_sweet"])
@pytest.mark.parametrize("power, n", [(0, None), (3, None), (None, 5)])
def test_matrix_products_and_truncations_match_polynomial_oracle(capsys, name, power, n):
    payload, text = _matrix_oracle(name, power, n)
    args = ["matrix", "--dfao", name]
    args += [] if power is None else ["--power", str(power)]
    args += [] if n is None else ["--truncate", str(n)]
    assert run_cli(capsys, *args) == (0, text, "")
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "option, message",
    [("--power", "t must be nonnegative"), ("--truncate", "truncation length must be positive")],
)
def test_matrix_rejects_bad_lengths(capsys, option, message):
    bad = "-1" if option == "--power" else "0"
    for name in ("rudin_shapiro", "baum_sweet"):
        assert run_cli(capsys, "matrix", "--dfao", name, option, bad) == (1, "", f"error[domain]: {message}\n")


def test_pattern_writes_loadable_machine(capsys, tmp_path):
    target = tmp_path / "p.dfao"
    code, out, _ = run_cli(
        capsys,
        "pattern", "--k", "2", "--pattern", "11", "--modulus", "2", "--out", str(target),
    )
    assert code == 0
    a = parse_dfao(target.read_text())
    rs = load_builtin("rudin_shapiro")
    for n in range(200):
        assert sequence_term(a, n) == sequence_term(rs, n)


def test_pattern_prints_to_stdout_without_out(capsys):
    code, out, _ = run_cli(capsys, "pattern", "--k", "2", "--pattern", "10", "--modulus", "3")
    assert code == 0
    assert parse_dfao(out).base == 2


def test_seq_with_local_file(capsys, tmp_path):
    path = tmp_path / "const.dfao"
    path.write_text(
        "base: 2\ndirection: forward\nstates: q\noutput: q = 5\n"
        "delta: q 0 -> q\ndelta: q 1 -> q\n"
    )
    code, out, _ = run_cli(capsys, "seq", "--dfao", str(path), "--count", "4")
    assert code == 0
    assert out.strip() == "5 5 5 5"


# ----------------------------------------------------------------------
# module execution and console script


def _run_python(*args):
    """Run this interpreter on args, with the directory that holds the imported autorec package on its path."""
    path = [str(Path(autorec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = _run_python("-m", "autorec", "seq", "--dfao", "thue_morse", "--count", "4")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 -1 -1 1"


def test_importing_thuemorse_loads_neither_recurrence_nor_automaton():
    probe = "import sys, autorec.thuemorse; print(sorted(m for m in sys.modules if m.startswith('autorec')))"
    proc = _run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['autorec', 'autorec.errors', 'autorec.numberfield', 'autorec.thuemorse']"


def test_importing_the_cli_loads_neither_mpmath_nor_a_process_pool():
    # complex_embed and tm_table(jobs > 1) import them on first use
    probe = "import sys, autorec.cli; print(sorted({'mpmath', 'concurrent.futures.process'} & set(sys.modules)))"
    proc = _run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
