"""Fuzz the CLI over argv: every run ends in exit 0, 1 or 2 with at most one
stderr line and no traceback.

Values come from small pools mixing valid, boundary and malformed tokens.
Sizes stay tiny (a few samples or replicates, R and M small, prime sources
up to 1e4), so no example can allocate or compute much.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from specent.cli import main

VALUES = {
    "--p": ["2", "101", "5003", "1e6", "0", "-5", "nan", "inf", "x"],
    "--R": ["1", "30", "1e3", "0", "-4", "nan", "inf", "x"],
    "--M": ["2", "8", "50", "1", "0", "-3", "65537", "1e9", "2.5", "x"],
    "--seed": ["0", "1", "7", "-1", "1e3", "x"],
    "--lambda": ["1", "0.01", "0", "-1", "nan", "1e20", "x"],
    "--reps": ["2", "3", "1", "0", "10000001", "nan", "x"],
    "--N": ["10", "1e4", "1e7", "0", "-1", "x"],
    "--base": ["5", "5e3", "-1", "nan", "x"],
    "--R-grid": ["1e2,1e3", "30", "1e3,1e2", "", ",", "-1,10", "nan", "x"],
    "--m": ["1", "2", "3", "0", "-1", "100000", "x"],
    "--samples": ["1", "3", "0", "-2", "10000001", "x"],
    "--range": ["10:1000", "1e3:2e3", "1000:10", "2:3", "5:5", "1:2:3", "x"],
    "--hist-bins": ["1", "4", "0", "65537", "x"],
    "--n-primes": ["10", "1000", "0", "-1", "x"],
    "--prime-limit": ["100", "1e4", "1", "-1", "x"],
    "--threads": ["1", "3", "0", "-2", "x"],
    "--format": ["json", "csv", "xml"],
}
SWITCHES = ["--center"]
# A valid value for every required flag, so that most examples get past the
# parser and into the commands.
REQUIRED = {
    "entropy": {"--p": "101", "--R": "30", "--M": "8"},
    "null": {"--R": "30", "--reps": "3", "--seed": "1"},
    "stabilization": {"--R-grid": "30,1e2", "--seed": "1"},
    "cramer": {"--N": "1e4", "--R": "30", "--M": "8", "--seed": "1"},
    "stability": {"--p": "101", "--M": "8", "--R-grid": "30,1e2"},
    "deviation": {"--p": "101", "--R": "30", "--M": "8", "--reps": "3", "--seed": "1"},
    "ensemble": {"--m": "2", "--samples": "3", "--range": "1e3:2e3", "--R": "30",
                 "--M": "8", "--seed": "1"},
    "nope": {},
}

COMMON = ["--threads", "--format", "--p"]  # --p is foreign to three commands
OPTIONAL = {
    "entropy": ["--n-primes", "--prime-limit"],
    "null": ["--lambda", "--M"],
    "stabilization": ["--lambda", "--reps"],
    "cramer": ["--base"],
    "stability": ["--n-primes", "--prime-limit"],
    "deviation": ["--lambda", "--n-primes", "--prime-limit"],
    "ensemble": ["--center", "--hist-bins", "--n-primes", "--prime-limit"],
    "nope": [],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(REQUIRED)))
    argv = [command]
    for name, valid in REQUIRED[command].items():
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing required flag
        mutate = draw(st.integers(0, 3)) == 0
        argv += [name, draw(st.sampled_from(VALUES[name])) if mutate else valid]
    for name in draw(st.lists(st.sampled_from(OPTIONAL[command] + COMMON), max_size=3)):
        argv += [name] if name in SWITCHES else [name, draw(st.sampled_from(VALUES[name]))]
    return argv


# capsys is read after every example, so sharing it across examples is safe.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_cli_never_tracebacks(argv, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "r.out")
        try:
            code = main(argv + ["--out", out])
        except SystemExit as exc:  # argparse usage errors and --help exit
            code = exc.code
    _, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert len(err.strip().splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err
