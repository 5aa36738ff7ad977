import json
import subprocess
import sys

import pytest

from zetaline import cache, cli
from zetaline.cli import main
from zetaline.coefficients import coeffs_line
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
    assert payload["method"] == "euler-maclaurin series"
    assert payload["values"][0]["k"] == 0
    assert payload["values"][0]["gamma"].startswith("+5.772156649")
    assert 0 < float(payload["values"][0]["est_error"]) < 1e-30


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


def test_quad_cross_target_in_either_order(capsys):
    """The closed form pairs 1/2 with an abscissa in [1/2, 1), given as --a or
    --b; any other pair prints the quadrature with target n/a and exits 0."""
    outs = {}
    for a, b in (("0.75", "0.5"), ("0.5", "0.75"), ("1.5", "0.5")):
        code, out = run_cli(["quad", "cross", "--a", a, "--b", b], capsys)
        assert code == 0, (a, b)
        outs[a, b] = json.loads(out)
    assert outs["0.5", "0.75"]["target"] == outs["0.75", "0.5"]["target"] != "n/a"
    assert float(outs["0.5", "0.75"]["abs_err"]) < 1e-13
    assert outs["1.5", "0.5"]["target"] == "n/a"


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


def test_coeffs_sigma_reads_no_stieltjes_table(capsys, monkeypatch):
    """The line family reads its Taylor data off its own series pass."""

    def refuse(*args, **kwargs):
        raise AssertionError("the line family must not read a Stieltjes table")

    monkeypatch.setattr(cli.zeta_mod, "stieltjes", refuse)
    monkeypatch.setattr(cli.zeta_mod, "_stieltjes_cached", refuse)
    code, out = run_cli(["coeffs", "--sigma", "0.75", "--nmax", "10", "--digits", "66"], capsys)
    assert code == 0
    assert [row["n"] for row in json.loads(out)["values"]] == list(range(-10, 11))
    assert coeffs_line("1.2", -1, 3, PrecisionCtx(61)).value(-1) == 0


def test_bad_cache_entries_are_recomputed(cold_cache, capsys):
    """A malformed entry, or one that fails the table's checks, is stale, not fatal."""
    args = ["stieltjes", "--kmax", "6", "--digits", "30"]
    code, fresh = run_cli(args, capsys)
    assert code == 0
    key = "stieltjes_k6_d30"
    path = cold_cache / f"{key}.json"
    good = cache.load_values(key, 30)
    entry = json.loads(path.read_text())
    bad_entries = {
        "not an object": [],
        "no values": {k: v for k, v in entry.items() if k != "values"},
        "values not pairs": {**entry, "values": ["x"]},
        "mantissa not a string": {**entry, "values": [[9, -4]] + entry["values"][1:]},
        "mantissa not hex": {**entry, "values": [["0.5", 0]] + entry["values"][1:]},
        "exponent not an integer": {**entry, "values": [["9", 0.5]] + entry["values"][1:]},
        "decimal values": {**entry, "values": [str(v) for v in good]},
        "values not a list": {**entry, "values": 5},
        "gamma_0 out of range": {**entry, "values": [["3", 0]] + entry["values"][1:]},
        "Berndt bound violated": {**entry, "values": entry["values"][:6] + [["1", 20]]},
        "schema mismatch": {**entry, "schema_version": cache.SCHEMA_VERSION + 1},
    }
    for name, bad in bad_entries.items():
        path.write_text(json.dumps(bad))
        cli.zeta_mod._stieltjes_cached.cache_clear()
        code = main(args)
        captured = capsys.readouterr()
        assert code == 0, name
        assert captured.out == fresh, name
        assert f"stale entry {key}" in captured.err, name
        assert cache.load_values(key, 30) == good, name


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


def test_ergodic_median_of_even_seeds(capsys):
    """With an even --seeds the printed median is the mean of the two middle
    per-seed finals, as numpy.median and criterion 12 take it."""
    code, out = run_cli(["ergodic", "--g", "em:0", "--iters", "500", "--seeds", "2"], capsys)
    assert code == 0
    decoder, objs, i = json.JSONDecoder(), [], 0
    while i < len(out):
        obj, i = decoder.raw_decode(out, i)
        objs.append(obj)
        while i < len(out) and out[i].isspace():
            i += 1
    finals = [o["final_estimate"][0] for o in objs[:-1]]
    assert len(finals) == 2 and finals[0] != finals[1]
    assert objs[-1]["median_final_re"] == (finals[0] + finals[1]) / 2


def test_ergodic_table_meets_the_reserve(capsys):
    """em:-41 pairs with ell_41, whose table needs 67 digits, not the floor 66."""
    code, out = run_cli(["ergodic", "--g", "em:-41", "--iters", "200", "--seeds", "1"], capsys)
    assert code == 0
    assert '"prediction_re"' in out


@pytest.mark.parametrize("args", [
    ["stieltjes", "--kmax", "3", "--digits", "30"],
    ["ergodic", "--g", "em:1", "--iters", "100", "--seeds", "1"],
])
def test_file_as_cache_dir_runs_uncached(args, cold_cache, capsys, monkeypatch):
    """A cache directory that cannot be made is a skipped store, not a
    failure: the same stdout as with a good cache, and a notice on stderr."""
    code, good = run_cli(args, capsys)
    assert code == 0
    blocker = cold_cache / "not_a_dir"
    blocker.write_text("")
    monkeypatch.setenv(cache.ENV_VAR, str(blocker))
    cli.zeta_mod._stieltjes_cached.cache_clear()
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == good
    assert "cannot store stieltjes_k" in captured.err and str(blocker) in captured.err
    assert blocker.read_text() == ""


def test_ergodic_refuses_empty_runs(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("table built for an empty run")

    monkeypatch.setattr(cli, "_table_for", no_table)
    for iters, seeds in (("0", "2"), ("100", "0")):
        assert main(["ergodic", "--g", "em:1", "--iters", iters, "--seeds", seeds]) == 2
        assert "at least 1" in capsys.readouterr().err


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
