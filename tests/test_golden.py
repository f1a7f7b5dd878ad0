"""Byte-identity gate: README commands against recorded outputs.

Each command runs in-process through ``sparclab.cli.main``; its stdout and
stderr must equal ``tests/golden/<name>.out`` and ``<name>.err`` byte for
byte.  A change that is meant to move an output re-records the files with
``python tests/test_golden.py`` and says why in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from sparclab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SIMULATE = ["simulate", "--snr", "15", "--L", "4", "--B", "16",
            "--rate-fraction", "0.6", "--trials", "200", "--seed", "7",
            "--ell0-list", "1,2,3,4"]

COMMANDS = {
    "bounds": ["bounds", "--snr", "15", "--L", "100", "--B", "8192",
               "--rate-fraction", "0.7", "--alpha0", "0.1"],
    "fig1": ["curves", "--kind", "fig1", "--snr", "20", "--epsilon", "1e-4",
             "--L-list", "10,20", "--rate-points", "16"],
    "fig1_default": ["curves", "--kind", "fig1"],
    "fig2": ["curves", "--kind", "fig2"],
    "fig3": ["curves", "--kind", "fig3"],
    "fig3_L16": ["curves", "--kind", "fig3", "--snr-list", "2,15,100", "--L", "16",
                 "--alpha0", "0.125", "--epsilon", "1e-3"],
    "ppv": ["curves", "--kind", "ppv", "--snr", "20", "--n-list", "100,500,2000"],
    "simulate_w1": SIMULATE + ["--workers", "1"],
    "simulate_w2": SIMULATE + ["--workers", "2"],
}


def run(argv):
    """(stdout, stderr) of one in-process CLI run, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(list(argv)) == 0
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    out, err = run(COMMANDS[name])
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN_DIR / f"{name}.err").read_text(encoding="utf-8")


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        out, err = run(argv)
        for suffix, text in ((".out", out), (".err", err)):
            with open(GOLDEN_DIR / f"{name}{suffix}", "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)


if __name__ == "__main__":
    record()
