"""Stdout of the coefficient and Stieltjes commands against tests/golden/.

These commands run on mpmath alone, with no libm or BLAS in the path, so
their output is the same byte for byte on every platform.  A change that
moves one of these files moves printed digits: regenerate a file only with
a reason, by running its command with ``python -m zetaline.cli``.
"""

from pathlib import Path

import pytest

from zetaline.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "coeffs_n20_d63.json": "coeffs --nmax 20 --digits 63",
    "coeffs_n100_d75.json": "coeffs --nmax 100 --digits 75",
    "coeffs_sigma0.75_n10_d66.json": "coeffs --sigma 0.75 --nmax 10 --digits 66",
    "coeffs_sigma1.1_n200_d90.json": "coeffs --sigma 1.1 --nmax 200 --digits 90",
    "coeffs_power2_n14_d66.json": "coeffs --power 2 --nmax 14 --digits 66",
    "stieltjes_k40_d66.json": "stieltjes --kmax 40 --digits 66",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
