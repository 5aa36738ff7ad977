import json
import subprocess
import sys
from dataclasses import replace

import pytest

from zetaline import cache, cli
from zetaline.cli import main
from zetaline.coefficients import InsufficientTableError, coeffs_line
from zetaline.precision import PrecisionCtx


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_stieltjes_json(capsys):
    code, out = run_cli(["stieltjes", "--kmax", "3", "--digits", "30"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["method"] == "contour"
    assert payload["values"][0]["k"] == 0
    assert payload["values"][0]["gamma"].startswith("+5.772156649")


def test_coeffs_rows_include_negative_index(capsys):
    code, out = run_cli(["coeffs", "--nmax", "1", "--digits", "61"], capsys)
    assert code == 0
    payload = json.loads(out)
    ns = [row["n"] for row in payload["values"]]
    assert ns == [-1, 0, 1]
    assert payload["values"][0]["value"].startswith("-1.0000")


def test_coeffs_csv_format(capsys):
    code, out = run_cli(["coeffs", "--nmax", "2", "--digits", "61", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 5
    assert "\r" not in out


def test_eval_both_methods(capsys):
    code, out = run_cli(
        ["eval", "--sigma", "2", "--t", "0", "--method", "both", "--nmax", "40"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta_em"][0].startswith("+1.6449340668")
    assert payload["zeta_series"][0].startswith("+1.6449340668")
    assert float(payload["discrepancy"].split("e")[0]) is not None


def test_reproducibility_byte_identical(capsys):
    _, out1 = run_cli(["coeffs", "--nmax", "4", "--digits", "61"], capsys)
    _, out2 = run_cli(["coeffs", "--nmax", "4", "--digits", "61"], capsys)
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["definitely-not-a-command"]) == 2
    assert main(["quad", "cross"]) == 2  # missing --a/--b


def test_precision_error_exit_code(capsys):
    # reserve violation: nmax 100 at 61 digits
    assert main(["coeffs", "--nmax", "100", "--digits", "61"]) == 3


def test_power_table_reads_one_stieltjes_table(capsys, monkeypatch):
    """The power family is derived from one Stieltjes table; no second table is stored."""
    calls, stored = [], []
    real_stieltjes, real_store = cli.zeta_mod.stieltjes, cache.store_values

    def recording_stieltjes(k_max, ctx):
        calls.append((k_max, ctx.digits))
        return real_stieltjes(k_max, ctx)

    def recording_store(key, digits, values):
        stored.append(key)
        real_store(key, digits, values)

    monkeypatch.setattr(cli.zeta_mod, "stieltjes", recording_stieltjes)
    monkeypatch.setattr(cache, "store_values", recording_store)
    code, out = run_cli(["coeffs", "--power", "2", "--nmax", "8", "--digits", "62"], capsys)
    assert code == 0
    assert [row["n"] for row in json.loads(out)["values"]][:3] == [-2, -1, 0]
    assert calls == [(10, 62)]
    assert not [key for key in stored if key.startswith("laurent_")]


def test_sigma_table_depth_is_what_coeffs_line_checks(capsys, monkeypatch):
    """coeffs --sigma asks for exactly the shallowest table coeffs_line accepts."""
    ctx = PrecisionCtx(66)
    deep = cli.zeta_mod.stieltjes(130, ctx)
    asked = []

    def truncated(k_max):
        return replace(deep, k_max=k_max, gammas=deep.gammas[: k_max + 1],
                       est_errors=deep.est_errors[: k_max + 1])

    def recording_stieltjes(k_max, ctx):
        asked.append(k_max)
        return truncated(k_max)

    monkeypatch.setattr(cli.zeta_mod, "stieltjes", recording_stieltjes)
    code, _ = run_cli(["coeffs", "--sigma", "0.75", "--nmax", "10", "--digits", "66"], capsys)
    assert code == 0
    assert len(asked) == 1
    with pytest.raises(InsufficientTableError):
        coeffs_line("0.75", -10, 10, truncated(asked[0] - 1), ctx)


def test_quad_bsy_small(capsys):
    code, out = run_cli(["quad", "bsy", "--tcut", "300"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "bsy"
    assert abs(float(payload["value"])) < 1e-2
    assert "trunc_bound" in payload


def test_roots_subcommand(capsys):
    code, out = run_cli(["roots", "--nmax", "12", "--radii", "0.5,0.8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 12
    assert payload["winding_counts"] == [[0.5, 0], [0.8, 0]]


def test_ergodic_subcommand_small(capsys):
    code, out = run_cli(["ergodic", "--g", "em:1", "--iters", "2000", "--seeds", "2"], capsys)
    assert code == 0
    assert '"prediction_re"' in out
    assert '"median_final_re"' in out
    assert '"skip_rate"' in out


def test_ergodic_table_meets_the_reserve(capsys):
    """em:-41 pairs with ell_41, whose table needs 67 digits, not the floor 66."""
    code, out = run_cli(["ergodic", "--g", "em:-41", "--iters", "200", "--seeds", "1"], capsys)
    assert code == 0
    assert '"prediction_re"' in out


def test_ergodic_refuses_unwritable_cache(capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["ergodic", "--g", "em:1", "--iters", "100", "--seeds", "1"]) == 2
    assert "not writable" in capsys.readouterr().err


def test_console_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "zetaline.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout


def test_verify_all_stdout_is_reproducible(capsys, monkeypatch):
    """Criterion times go to stderr; stdout repeats byte for byte."""
    from zetaline import acceptance

    clock = iter([1.2, 2.4, 3.6, 4.8])

    def stub(index):
        return lambda: acceptance.CriterionResult(index, f"stub {index}", True, {"x": "1"},
                                                  next(clock))

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [stub(1), stub(2)])
    runs = []
    for _ in range(2):
        assert main(["verify-all"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    assert runs[0].out.endswith("ALL PASS\n")
    assert "1.2s" in runs[0].err and "2.4s" in runs[0].err
    assert "3.6s" in runs[1].err and "4.8s" in runs[1].err
