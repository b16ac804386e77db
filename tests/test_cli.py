import csv
import json
import re
import shlex
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from specent import write_values
from specent.binning import MAX_BINS
from specent.cli import main

from oracles import oracle_pipeline, oracle_primes_in_window


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures raise instead of returning
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def load_schema(kind):
    path = resources.files("specent") / "schemas" / "v1" / f"{kind}.schema.json"
    return json.loads(path.read_text())


def validate_payload(path):
    payload = json.loads(path.read_text())
    kind = payload["schema"].rsplit("/", 1)[1]
    jsonschema.validate(payload["result"], load_schema(kind))
    jsonschema.validate(payload["manifest"], load_schema("run_manifest"))
    return payload


def normalized(payload):
    payload = json.loads(json.dumps(payload))
    payload["manifest"].pop("timestamp")
    return payload


def test_entropy_json_and_stdout(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = run(["entropy", "--p", "101", "--R", "5000", "--M", "50",
                           "--n-primes", "10000", "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["schema"] == "specent/v1/entropy_report"
    assert payload["manifest"]["subcommand"] == "entropy"
    assert payload["manifest"]["seed"] is None
    printed = [line for line in stdout.splitlines() if line.startswith("H = ")]
    assert len(printed) == 1
    # 12 significant digits on stdout, matching the stored result.
    assert printed[0] == f"H = {payload['result']['H']:.12g}"


def test_entropy_csv_with_sidecar(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(["entropy", "--p", "101", "--R", "500", "--M", "8",
                      "--prime-limit", "2000", "--format", "csv", "--out", str(out)], capsys)
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["k", "weight", "H"]
    assert len(rows) == 9
    weights = [float(r[1]) for r in rows[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    sidecar = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert sidecar["schema"] == "specent/v1/run_manifest"
    jsonschema.validate(sidecar["manifest"], load_schema("run_manifest"))
    assert str(out) in sidecar["manifest"]["outputs"]


def test_points_file_matches_prime_source(tmp_path, capsys):
    from specent import sieve_up_to

    table = sieve_up_to(2000)
    points = tmp_path / "pts.txt"
    write_values(points, table.primes.tolist())
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["entropy", "--p", "101", "--R", "500", "--M", "16",
                "--prime-limit", "2000", "--out", str(a)], capsys)[0] == 0
    assert run(["entropy", "--p", "101", "--R", "500", "--M", "16",
                "--points-file", str(points), "--out", str(b)], capsys)[0] == 0
    ha = json.loads(a.read_text())["result"]["H"]
    hb = json.loads(b.read_text())["result"]["H"]
    assert ha == hb


def test_null_estimate_and_baseline(tmp_path, capsys):
    out = tmp_path / "null.json"
    base = tmp_path / "base.json"
    code, stdout, _ = run(["null", "--lambda", "1.0", "--R", "1e3", "--M", "50",
                           "--reps", "12", "--seed", "7", "--out", str(out),
                           "--baseline-out", str(base)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["manifest"]["seed"] == 7
    assert len(payload["result"]["per_replicate_H"]) == 12
    jsonschema.validate(json.loads(base.read_text()), load_schema("null_baseline"))
    assert "H_null = " in stdout


def test_null_stabilization_mode(tmp_path, capsys):
    out = tmp_path / "stab.json"
    code, _, _ = run(["stabilization", "--seed", "3", "--R-grid", "1e2,1e3", "--reps", "8",
                      "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["schema"] == "specent/v1/stabilization_report"
    assert payload["manifest"]["subcommand"] == "stabilization"
    assert payload["manifest"]["parameters"] == {"intensity": 1.0, "R_grid": [100.0, 1000.0],
                                                 "reps": 8, "seed": 3}
    assert payload["result"]["radii"] == [100.0, 1000.0]


def test_stabilization_requires_grid(capsys):
    code, _, err = run(["stabilization", "--seed", "3"], capsys)
    assert code == 2
    assert err == "specent stabilization: error: the following arguments are required: --R-grid\n"


def test_cramer_json(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, stdout, _ = run(["cramer", "--N", "1e6", "--R", "1e4", "--M", "50",
                           "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["result"]["provenance"]["model"] == "cramer"
    assert payload["manifest"]["parameters"]["N"] == 10**6
    assert stdout.startswith("wrote ")


def test_stability_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(["stability", "--p", "101", "--M", "50",
                      "--R-grid", "1e3,1e4", "--format", "csv", "--out", str(out)], capsys)
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["R", "H", "tail_envelope"]
    assert len(rows) == 3


def test_deviation_json(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, stdout, _ = run(["deviation", "--p", "101", "--R", "1e3", "--M", "50",
                           "--reps", "10", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["result"]["null_lambda"] == pytest.approx(1 / np.log(101.0))
    assert "delta = " in stdout


def test_ensemble_json(tmp_path, capsys):
    out = tmp_path / "e.json"
    code, _, _ = run(["ensemble", "--m", "3", "--samples", "12", "--range", "1e4:2e4",
                      "--R", "1e3", "--M", "50", "--seed", "6", "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert len(payload["result"]["samples"]) == 12
    assert payload["manifest"]["parameters"]["range"] == [10000, 20000]


def test_ensemble_center_at_another_m_exits_2(tmp_path, capsys):
    # The shipped baseline is at M = 50.
    out = tmp_path / "e.json"
    code, _, err = run(["ensemble", "--m", "4", "--samples", "50", "--range", "1e4:2e4",
                        "--R", "1e3", "--M", "8", "--center", "--seed", "1",
                        "--out", str(out)], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "M = 50" in err and "M = 8" in err
    assert not out.exists()


def test_exit_2_on_validation_errors(capsys):
    assert run(["entropy", "--p", "101", "--R", "50", "--M", "1", "--prime-limit", "2000"], capsys)[0] == 2
    assert run(["null", "--R", "1e3", "--M", "50", "--reps", "1", "--seed", "1"], capsys)[0] == 2
    code, _, err = run(["entropy", "--p", "101", "--R", "-4", "--M", "8", "--prime-limit", "2000"], capsys)
    assert code == 2
    assert "InvalidArgumentError" in err


def test_exit_2_message_cites_minimum_m(capsys):
    code, _, err = run(["entropy", "--p", "101", "--R", "50", "--M", "1",
                        "--prime-limit", "2000"], capsys)
    assert code == 2
    assert "at least 2" in err


def test_m_above_cap_exits_2(tmp_path, capsys):
    for M in (str(MAX_BINS + 1), "1e9"):
        code, _, err = run(["entropy", "--p", "101", "--R", "50", "--M", M,
                            "--prime-limit", "2000", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert f"at most {MAX_BINS}" in err
        assert not (tmp_path / "r.json").exists()
    code, _, _ = run(["entropy", "--p", "101", "--R", "50", "--M", str(MAX_BINS),
                      "--prime-limit", "2000", "--out", str(tmp_path / "r.json")], capsys)
    assert code == 0


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ["entropy", "--p", "101", "--R", "50", "--M", "8", "--prime-limit", "2000"],
    ["null", "--R", "1e2", "--reps", "4", "--seed", "1"],
    ["cramer", "--N", "1e5", "--R", "1e2", "--M", "8", "--seed", "1"],
    ["stability", "--p", "101", "--M", "8", "--R-grid", "50,100"],
    ["deviation", "--p", "101", "--R", "50", "--M", "8", "--reps", "4", "--seed", "1"],
    ["ensemble", "--m", "2", "--samples", "3", "--range", "1e3:2e3", "--R", "1e2",
     "--M", "8", "--seed", "1"],
])
def test_threads_below_one_exits_2(argv, threads, tmp_path, capsys):
    code, _, err = run(argv + [f"--threads={threads}", "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert "--threads must be at least 1" in err
    assert not (tmp_path / "r.json").exists()


def test_exit_1_on_pipeline_errors(capsys):
    code, _, err = run(["entropy", "--p", "2", "--R", "0.5", "--M", "8",
                        "--prime-limit", "100"], capsys)
    assert code == 1
    assert "EmptyDistancesError" in err

    code, _, err = run(["entropy", "--p", "101", "--R", "1e6", "--M", "8",
                        "--prime-limit", "2000"], capsys)
    assert code == 1
    assert "CoverageError" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"], capsys)[0] == 2


def test_seeded_reruns_identical_and_thread_independent(tmp_path, capsys):
    seeded = [
        ["null", "--lambda", "1.0", "--R", "1e3", "--M", "50", "--reps", "8", "--seed", "9"],
        ["cramer", "--N", "1e5", "--R", "1e3", "--M", "20", "--seed", "9"],
        ["deviation", "--p", "101", "--R", "1e3", "--M", "20", "--reps", "8", "--seed", "9"],
        ["ensemble", "--m", "2", "--samples", "8", "--range", "1e4:2e4",
         "--R", "1e3", "--M", "20", "--seed", "9"],
    ]
    for argv in seeded:
        paths = [tmp_path / f"{argv[0]}_{i}.json" for i in range(2)]
        variants = [["--threads", "1"], ["--threads", "8"]]
        for path, extra in zip(paths, variants):
            assert run(argv + ["--out", str(path)] + extra, capsys)[0] == 0
        payloads = [normalized(json.loads(p.read_text())) for p in paths]
        # Output paths differ by construction; results and parameters must not.
        assert payloads[0]["result"] == payloads[1]["result"]
        assert payloads[0]["manifest"]["parameters"] == payloads[1]["manifest"]["parameters"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "specent" in capsys.readouterr().out


def test_malformed_points_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    code, _, err = run(["entropy", "--p", "0", "--R", "10", "--M", "4",
                        "--points-file", str(bad)], capsys)
    assert code == 2
    assert "not a number" in err

    code, _, err = run(["entropy", "--p", "0", "--R", "10", "--M", "4",
                        "--points-file", str(tmp_path / "missing.txt")], capsys)
    assert code == 2
    assert "cannot read" in err

    for token in ("nan", "inf", "-inf"):
        bad.write_text(f"1.0\n# comment\n3.0\n{token}\n5.0\n")
        code, _, err = run(["entropy", "--p", "0", "--R", "10", "--M", "4",
                            "--points-file", str(bad)], capsys)
        assert code == 2
        assert f"{bad}:4:" in err and "not finite" in err


@pytest.mark.parametrize("argv", [
    ["entropy", "--p", "nan", "--R", "1e3", "--M", "50"],
    ["entropy", "--p", "101", "--R", "inf", "--M", "50"],
    ["entropy", "--p=-inf", "--R", "1e3", "--M", "50", "--prime-limit", "2000"],
    ["deviation", "--p", "inf", "--R", "1e3", "--M", "50", "--reps", "4", "--seed", "1"],
    ["deviation", "--p", "101", "--R", "nan", "--M", "50", "--reps", "4", "--seed", "1"],
    ["stability", "--p", "nan", "--M", "50", "--R-grid", "1e3,1e4"],
    ["stability", "--p", "101", "--M", "50", "--R-grid", "1e3,inf"],
    ["stability", "--p", "101", "--M", "50", "--R-grid", "nan", "--n-primes", "100"],
    ["null", "--lambda", "nan", "--R", "1e3", "--reps", "4", "--seed", "1"],
    ["null", "--lambda", "inf", "--R", "1e3", "--reps", "4", "--seed", "1"],
    ["null", "--R", "nan", "--reps", "4", "--seed", "1"],
    ["stabilization", "--R-grid", "nan,10", "--seed", "1"],
    ["stabilization", "--R-grid", "10,nan", "--seed", "1"],
    ["deviation", "--p", "101", "--R", "1e3", "--M", "50", "--reps", "4", "--seed", "1",
     "--lambda", "nan"],
    ["cramer", "--N", "1e7", "--R", "nan", "--M", "50", "--seed", "1"],
    ["cramer", "--N", "1e7", "--R", "1e3", "--M", "50", "--seed", "1", "--base", "nan"],
])
def test_nonfinite_window_inputs_exit_2(argv, tmp_path, capsys):
    code, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "must be" in err and "finite" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["null", "--R", "1e3", "--reps", "4", "--seed=-1"],
    ["cramer", "--N", "1e7", "--R", "1e3", "--M", "50", "--seed=-1"],
    ["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:2e4", "--R", "1e3",
     "--M", "50", "--seed=-1"],
])
def test_negative_seed_exits_2(argv, tmp_path, capsys):
    code, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "seed must be non-negative" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["null", "--lambda", "1e10", "--R", "1e10", "--reps", "4", "--seed", "1"],
    ["stabilization", "--lambda", "1e10", "--R-grid", "1e2,1e10", "--seed", "1"],
    ["deviation", "--p", "101", "--R", "1e3", "--M", "50", "--reps", "4", "--seed", "1",
     "--lambda", "1e16"],
])
def test_lambda_r_above_cap_exits_2(argv, tmp_path, capsys):
    # Run against a tree with the cap only: without it these ask for about
    # lambda*R random draws.
    code, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "intensity*radius must be at most" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["cramer", "--N", "1e20", "--R", "10", "--M", "8", "--seed", "1"],
    ["entropy", "--p", "1e17", "--R", "10", "--M", "8"],
])
def test_coordinates_above_2_53_exit_2(argv, tmp_path, capsys):
    # Beyond 2**53 float64 distances are no longer exact; the cap is
    # checked before anything is simulated or sieved.
    code, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "2**53" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("seed", [2**53 + 1, 2**70])
def test_seed_in_digits_is_recorded_exactly(seed, tmp_path, capsys):
    # Read through float, 2**53 + 1 would run as, and be recorded as, 2**53.
    out = tmp_path / "r.json"
    code, _, _ = run(["null", "--R", "1e3", "--M", "8", "--reps", "4", "--seed", str(seed),
                      "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["manifest"]["seed"] == payload["result"]["seed"] == seed


@pytest.mark.parametrize("argv, message", [
    (["null", "--R", "1e3", "--M", "8", "--reps", "4", "--seed", "1e30"],
     "specent null: error: argument --seed: '1e30' exceeds 2**53; write it in digits"),
    (["null", "--R", "1e3", "--M", "8", "--reps", "4", "--seed", "3.0000000000000001"],
     "specent null: error: argument --seed: not an integer: '3.0000000000000001'"),
    # Read through float, this N rounds to 2**53 and passes the cap.
    (["cramer", "--N", str(2**53 + 1), "--R", "10", "--M", "8", "--seed", "1"],
     "InvalidArgumentError: N must be in [3, 2**53], got 9.0072e+15"),
])
def test_integer_flag_that_would_round_exits_2(argv, message, monkeypatch, tmp_path, capsys):
    from specent import cramer, nullmodel

    monkeypatch.setattr(cramer, "indexed_uniforms", _refuse_to_sieve)
    monkeypatch.setattr(nullmodel, "generator", _refuse_to_sieve)
    code, stdout, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert (code, stdout, err) == (2, "", message + "\n")
    assert not (tmp_path / "r.json").exists()


def test_cramer_window_above_span_budget_exits_2(monkeypatch, tmp_path, capsys):
    # Without the budget this window of 4e11 integers is drawn 2**21
    # uniforms at a time, about 1.4e10 members in all.
    from specent import cramer

    base = cramer.nearest_member(cramer.CramerConfig(N=10**12, seed=1), 5e11)
    monkeypatch.setattr(cramer, "nearest_member", lambda config, coord: base)
    monkeypatch.setattr(cramer, "indexed_uniforms", _refuse_to_sieve)
    code, stdout, err = run(["cramer", "--N", "1e12", "--R", "2e11", "--M", "50", "--seed", "1",
                             "--out", str(tmp_path / "r.json")], capsys)
    assert (code, stdout) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("InvalidArgumentError: Cramer window [")
    assert "a Cramer window spans at most 2**30" in err
    assert not (tmp_path / "r.json").exists()


def test_window_end_overflowing_to_inf_exits_2(tmp_path, capsys):
    # p + R is inf although both are finite; the cap is compared before the
    # end is converted to an integer.
    argv = ["entropy", "--p", "1e308", "--R", "1e308", "--M", "8",
            "--out", str(tmp_path / "r.json")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.strip() == "InvalidArgumentError: prime window end inf exceeds 2**53"
    assert not (tmp_path / "r.json").exists()


def test_window_start_overflowing_to_minus_inf_ends_in_one_line(tmp_path, capsys):
    # p - R is -inf: the window is [0, 0], which holds no prime.  No numpy
    # overflow warning may reach stderr either.
    argv = ["entropy", "--p=-1e308", "--R", "1e308", "--M", "8",
            "--out", str(tmp_path / "r.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(argv, capsys)
    assert code == 1
    assert err.strip() == "EmptyDistancesError: No distances available"


def test_base_beyond_n_ends_like_base_n(tmp_path, capsys):
    # The nearest member of a coordinate above N is the nearest member of N.
    argv = ["cramer", "--N", "1e6", "--R", "10", "--M", "8", "--seed", "1",
            "--out", str(tmp_path / "r.json")]
    errors = []
    for base in ("1e308", "1e6"):
        code, _, err = run(argv + ["--base", base], capsys)
        assert code == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert len(errors[0].strip().splitlines()) == 1
    assert errors[0].startswith("CoverageError: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("bins", ["0", "-3", str(MAX_BINS + 1)])
def test_hist_bins_out_of_range_exits_2(bins, tmp_path, capsys):
    # The range is checked before any sample is drawn or histogram allocated.
    argv = ["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:2e4", "--R", "1e3",
            "--M", "50", "--seed", "1", f"--hist-bins={bins}",
            "--out", str(tmp_path / "r.json")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert f"hist_bins must be at least 1 and at most {MAX_BINS}" in err
    assert not (tmp_path / "r.json").exists()


def test_window_source_clamps_at_zero_and_matches_full_table(tmp_path, capsys):
    # p < R: the window [p - R, p + R] starts below 0 and is clamped.
    paths = [tmp_path / "window.json", tmp_path / "full.json"]
    base = ["entropy", "--p", "101", "--R", "5000", "--M", "50"]
    assert run(base + ["--out", str(paths[0])], capsys)[0] == 0
    assert run(base + ["--n-primes", "10000", "--out", str(paths[1])], capsys)[0] == 0
    window, full = (validate_payload(path)["result"] for path in paths)
    assert window["H"] == full["H"]
    assert window["provenance"]["source"] == {"prime_lo": 0, "prime_limit": 5101,
                                              "prime_count": 682}


def test_entropy_sieves_only_the_window(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["entropy", "--p", "1e6", "--R", "1e3", "--M", "50", "--out", str(out)],
               capsys)[0] == 0
    source = validate_payload(out)["result"]["provenance"]["source"]
    primes = oracle_primes_in_window(10**6 - 1000, 10**6 + 1000)
    assert source == {"prime_lo": 10**6 - 1000, "prime_limit": 10**6 + 1000,
                      "prime_count": len(primes)}


def test_entropy_at_1e12_matches_miller_rabin_pipeline(tmp_path, capsys):
    out = tmp_path / "r.json"
    p, R, M = 10**12, 1000, 50
    code, _, _ = run(["entropy", "--p", "1e12", "--R", "1e3", "--M", "50", "--out", str(out)],
                     capsys)
    assert code == 0
    H = validate_payload(out)["result"]["H"]
    expected = oracle_pipeline(p, oracle_primes_in_window(p - R, p + R), R, M)
    assert H == pytest.approx(expected, rel=0, abs=1e-12)


def test_window_commands_match_full_tables(tmp_path, capsys):
    cases = [
        (["stability", "--p", "5003", "--M", "20", "--R-grid", "1e2,1e3"], "20000"),
        (["deviation", "--p", "5003", "--R", "1e3", "--M", "20", "--reps", "4",
          "--seed", "2"], "20000"),
        (["ensemble", "--m", "2", "--samples", "6", "--range", "5e3:8e3",
          "--R", "1e3", "--M", "20", "--seed", "2"], "20000"),
    ]
    for argv, limit in cases:
        a, b = tmp_path / f"{argv[0]}_w.json", tmp_path / f"{argv[0]}_f.json"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--prime-limit", limit, "--out", str(b)], capsys)[0] == 0
        assert validate_payload(a)["result"] == validate_payload(b)["result"]


@pytest.mark.parametrize("argv", [
    ["null", "--R", "1e3", "--reps", "10000001", "--seed", "1"],
    ["stabilization", "--R-grid", "1e2", "--reps", "10000001", "--seed", "1"],
    # Two radii at 5e6 + 1 replicates each: the cap counts radii x reps.
    ["stabilization", "--R-grid", "1e2,1e3", "--reps", "5000001", "--seed", "1"],
    ["deviation", "--p", "101", "--R", "1e3", "--M", "50", "--reps", "10000001", "--seed", "1"],
    ["ensemble", "--m", "2", "--samples", "10000001", "--range", "1e4:2e4", "--R", "1e3",
     "--M", "50", "--seed", "1"],
])
def test_replicates_and_samples_above_cap_exit_2(argv, tmp_path, capsys):
    # Run against a tree with the cap only: without it these draw 1e7
    # replicates or samples.
    code, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "at most 10000000" in err
    assert not (tmp_path / "r.json").exists()


def test_usage_errors_are_one_line(capsys):
    cramer = ["cramer", "--N", "1e5", "--R", "1e2", "--M", "8", "--seed", "1"]
    entropy = ["entropy", "--p", "101", "--R", "50", "--M", "8"]
    removed_flags = (cramer + ["--rescale"], cramer + ["--no-rescale"],
                     cramer + ["--rescale-mode", "per-gap"], entropy + ["--squared-weights"])
    for argv in (["frobnicate"], ["entropy", "--p", "1"], ["null", "--seed", "x"], [],
                 *removed_flags):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "error:" in err


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # Back-to-back calls share one parser; every payload must equal the one
    # a freshly built parser gives.
    from specent import cli

    commands = [
        ["entropy", "--p", "101", "--R", "500", "--M", "16", "--prime-limit", "2000"],
        ["null", "--R", "1e3", "--M", "20", "--reps", "6", "--seed", "4"],
        ["cramer", "--N", "1e5", "--R", "1e3", "--M", "20", "--seed", "4"],
        ["stability", "--p", "101", "--M", "20", "--R-grid", "1e2,1e3"],
        ["deviation", "--p", "101", "--R", "1e3", "--M", "20", "--reps", "6", "--seed", "4"],
        ["ensemble", "--m", "2", "--samples", "6", "--range", "1e4:2e4", "--R", "1e3",
         "--M", "20", "--seed", "4"],
    ]

    def payloads(fresh):
        out = []
        for i, argv in enumerate(commands):
            if fresh:
                cli._parser.cache_clear()
            path = tmp_path / f"{'fresh' if fresh else 'cached'}_{i}.json"
            assert run(argv + ["--out", str(path)], capsys)[0] == 0
            payload = normalized(json.loads(path.read_text()))
            payload["manifest"].pop("outputs")
            out.append(payload)
        return out

    fresh = payloads(fresh=True)
    parser = cli._parser()
    cached = payloads(fresh=False)
    assert cli._parser() is parser
    assert cached == fresh


def test_baseline_out_creates_missing_directories(tmp_path, capsys):
    base = tmp_path / "new" / "b.json"
    code, _, err = run(["null", "--lambda", "1", "--R", "1e3", "--M", "8", "--reps", "4",
                        "--seed", "1", "--baseline-out", str(base),
                        "--out", str(tmp_path / "r.json")], capsys)
    assert (code, err) == (0, "")
    jsonschema.validate(json.loads(base.read_text()), load_schema("null_baseline"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_exits_2(fmt, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / f"x.{fmt}"
    code, _, err = run(["entropy", "--p", "101", "--R", "50", "--M", "8",
                        "--format", fmt, "--out", str(out)], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"InvalidArgumentError: cannot write {out}: ")


def test_null_with_unwritable_out_leaves_no_baseline(tmp_path, capsys):
    # The result is written first, so a run that fails there writes no
    # baseline for SPECENT_NULL_BASELINE readers to load.
    blocker = tmp_path / "file"
    blocker.write_text("")
    base = tmp_path / "left.json"
    out = blocker / "x.json"
    code, stdout, err = run(["null", "--lambda", "1", "--R", "1e3", "--M", "8", "--reps", "4",
                             "--seed", "1", "--baseline-out", str(base), "--out", str(out)],
                            capsys)
    assert (code, stdout) == (2, "")
    assert err == f"InvalidArgumentError: cannot write {out}: {blocker} is not a directory\n"
    assert not base.exists()


def _refuse_to_sieve(*args):
    raise AssertionError("a prime table was built")


@pytest.mark.parametrize("argv, message", [
    (["--hist-bins", "0"], f"hist_bins must be at least 1 and at most {MAX_BINS}, got 0"),
    (["--m", "0"], "m must be at least 1, got 0"),
    (["--samples", "2e7"], "sample_count must be at least 1 and at most 10000000, got 20000000"),
    (["--range", "2e4:1.9e4"], "invalid prime range [20000.0, 19000.0]"),
    (["--m", "50000", "--range", "1e4:1e7", "--R", "3e4", "--M", "65536"],
     "ensemble windows span m (2R + 1) = 3e+09 integers per sample; "
     "a sample pools at most 2**30"),
])
@pytest.mark.parametrize("source", [[], ["--n-primes", "3000"], ["--prime-limit", "3e4"]])
def test_bad_ensemble_flags_exit_2_before_sieving(argv, message, source, monkeypatch,
                                                   tmp_path, capsys):
    from specent import cli

    for name in ("primes_in_window", "sieve_up_to", "first_n_primes"):
        monkeypatch.setattr(cli, name, _refuse_to_sieve)
    flags = {"--m": "2", "--samples": "3", "--range": "1e4:2e4", "--R": "1e3", "--M": "8",
             "--seed": "1", **dict(zip(argv[::2], argv[1::2]))}
    command = ["ensemble", *(item for pair in flags.items() for item in pair)]
    code, _, err = run(command + source + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert err == f"InvalidArgumentError: {message}\n"


@pytest.mark.parametrize("source", [[], ["--n-primes", "3000"], ["--prime-limit", "3e4"]])
def test_center_baseline_at_another_M_exits_2_before_sieving(source, monkeypatch, tmp_path,
                                                             capsys):
    from specent import cli
    from specent.nullmodel import BASELINE_ENV_VAR

    monkeypatch.delenv(BASELINE_ENV_VAR, raising=False)
    for name in ("primes_in_window", "sieve_up_to", "first_n_primes"):
        monkeypatch.setattr(cli, name, _refuse_to_sieve)
    code, _, err = run(["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:1e8",
                        "--R", "1e3", "--M", "8", "--seed", "1", "--center", *source,
                        "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert err == ("InvalidArgumentError: the null baseline is at M = 50, "
                   "but the ensemble is at M = 8\n")


def test_deviation_reps_above_cap_exits_2_before_sieving(monkeypatch, tmp_path, capsys):
    from specent import cli

    monkeypatch.setattr(cli, "primes_in_window", _refuse_to_sieve)
    code, _, err = run(["deviation", "--p", "101", "--R", "1e3", "--M", "8", "--reps", "1e8",
                        "--seed", "1", "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert err == "InvalidArgumentError: replicates must be at most 10000000, got 100000000\n"


@pytest.mark.parametrize("argv", [
    ["entropy", "--p", "101", "--R", "50", "--M", "8", "--n-primes", "1e12"],
    ["entropy", "--p", "101", "--R", "50", "--M", "8", "--prime-limit", "1e15"],
    ["entropy", "--p", "4e15", "--R", "4e15", "--M", "8"],
    ["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:1e15", "--R", "1e3",
     "--M", "8", "--seed", "1"],
])
def test_prime_table_above_budget_exits_2(argv, monkeypatch, tmp_path, capsys):
    # Without the budget these would start sieves of 1e13 integers or more.
    from specent import primes

    monkeypatch.setattr(primes, "_odd_primes", _refuse_to_sieve)
    code, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("InvalidArgumentError: prime window [")
    assert "a prime table spans at most 2**30" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["entropy", "--p", "101", "--R", "500", "--M", "8"],
    ["null", "--R", "1e3", "--M", "8", "--reps", "4", "--seed", "1"],
    ["stabilization", "--R-grid", "1e2,1e3", "--reps", "4", "--seed", "1"],
    ["cramer", "--N", "1e5", "--R", "1e3", "--M", "8", "--seed", "1"],
    ["stability", "--p", "101", "--M", "8", "--R-grid", "1e2,1e3"],
    ["deviation", "--p", "101", "--R", "1e3", "--M", "8", "--reps", "4", "--seed", "1"],
    ["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:2e4", "--R", "1e3",
     "--M", "8", "--seed", "1"],
])
def test_result_keys_are_exactly_the_schema_properties(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    payload = validate_payload(out)
    schema = load_schema(payload["schema"].rsplit("/", 1)[1])
    assert set(payload["result"]) == set(schema["properties"]) == set(schema["required"])


def _baseline_text(**raw):
    """The shipped baseline file with each named field's value replaced by raw JSON text."""
    path = resources.files("specent") / "data" / "null_baseline_M50.json"
    fields = {key: json.dumps(value) for key, value in json.loads(path.read_text()).items()}
    fields.update(raw)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}\n"


# The text of each bad baseline file; None for the two cases that write none.
_BAD_BASELINES = {
    "missing": None,
    "directory": None,
    "not-json": "not json\n",
    "no-mean": '{"M": 50}\n',
    "nan-mean": _baseline_text(mean="NaN"),
    "huge-M": _baseline_text(M="1e400"),
    "huge-seed": _baseline_text(seed="1e400"),
    "fractional-M": _baseline_text(M="50.5"),
    "bool-M": _baseline_text(M="true"),
    "format-version": _baseline_text(format_version="2"),
    "bool-format-version": _baseline_text(format_version="true"),
    "extra-key": _baseline_text(source='"hand-edited"'),
}


@pytest.mark.parametrize("case", _BAD_BASELINES)
@pytest.mark.parametrize("source", [[], ["--n-primes", "3000"], ["--prime-limit", "3e4"]])
def test_bad_null_baseline_file_exits_2_before_sieving(case, source, monkeypatch, tmp_path,
                                                       capsys):
    from specent import cli
    from specent.nullmodel import BASELINE_ENV_VAR

    path = tmp_path / "baseline.json"
    if case == "directory":
        path.mkdir()
    elif _BAD_BASELINES[case] is not None:
        path.write_text(_BAD_BASELINES[case])
    monkeypatch.setenv(BASELINE_ENV_VAR, str(path))
    for name in ("primes_in_window", "sieve_up_to", "first_n_primes"):
        monkeypatch.setattr(cli, name, _refuse_to_sieve)
    code, _, err = run(["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:2e4",
                        "--R", "1e3", "--M", "50", "--seed", "1", "--center", *source,
                        "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("InvalidArgumentError: ") and str(path) in err
    assert not (tmp_path / "r.json").exists()


_STABILIZATION = ["stabilization", "--R-grid", "1e2,1e3", "--reps", "4", "--seed", "1"]
_NULL = ["null", "--R", "1e3", "--reps", "4", "--seed", "1"]
_STABILITY = ["stability", "--p", "101", "--M", "8", "--R-grid", "1e2,1e3"]


@pytest.mark.parametrize("argv, foreign", [
    (_STABILIZATION, ["--R", "7"]),
    (_STABILIZATION, ["--M", "8"]),
    (_STABILIZATION, ["--baseline-out", "b.json"]),
    (_STABILIZATION, ["--lam", "2"]),  # an abbreviation of --lambda
    (_NULL, ["--R-grid", "1e2,1e3"]),
    (_NULL, ["--check-stabilization"]),
    (_STABILITY, ["--R", "1e3"]),  # an abbreviation of --R-grid
])
def test_flag_the_subcommand_does_not_read_exits_2(argv, foreign, monkeypatch, tmp_path,
                                                   capsys):
    # Flags match by full name only, so a foreign flag is never read as
    # another one; nothing is drawn, sieved or written.
    from specent import cli

    monkeypatch.chdir(tmp_path)
    for name in ("estimate_null_entropy", "check_bin_stabilization", "primes_in_window",
                 "sieve_up_to", "first_n_primes"):
        monkeypatch.setattr(cli, name, _refuse_to_sieve)
    code, stdout, err = run(argv + foreign, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"specent: error: unrecognized arguments: {' '.join(foreign)}\n"
    assert list(tmp_path.iterdir()) == []


def test_manifest_schema_lists_every_subcommand():
    # A subcommand missing from the enum would write manifests that fail
    # their own schema.
    import argparse

    from specent import cli

    (subparsers,) = (action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    enum = load_schema("run_manifest")["properties"]["subcommand"]["enum"]
    assert sorted(enum) == sorted(subparsers.choices)


@pytest.mark.parametrize("source", [[], ["--n-primes", "3000"], ["--prime-limit", "3e4"]])
def test_decreasing_radius_grid_exits_2_before_sieving(source, monkeypatch, tmp_path, capsys):
    from specent import cli

    for name in ("primes_in_window", "sieve_up_to", "first_n_primes"):
        monkeypatch.setattr(cli, name, _refuse_to_sieve)
    code, _, err = run(["stability", "--p", "1e4", "--M", "8", "--R-grid", "1e3,50", *source,
                        "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert err == "InvalidArgumentError: radius grid must be non-decreasing\n"


_GRID_COMMANDS = {
    "stability": ["stability", "--p", "1e4", "--M", "8"],
    "stabilization": ["stabilization", "--reps", "4", "--seed", "1"],
}


@pytest.mark.parametrize("grid, messages", [
    ("1e3,50", ("radius grid must be non-decreasing", "radius grid must be non-decreasing")),
    ("10,nan", ("p and R must be finite, got p = 10000.0, R = nan",
                "radius must be positive and finite, got nan")),
    ("-1,10", ("R must be positive, got -1.0", "radius must be positive and finite, got -1.0")),
])
@pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
def test_both_grid_commands_reject_a_bad_grid_before_any_work(command, grid, messages,
                                                              monkeypatch, tmp_path, capsys):
    # One grid rule: nothing is sieved or drawn and no file is written.
    from specent import cli, nullmodel

    monkeypatch.setattr(nullmodel, "generator", _refuse_to_sieve)
    for name in ("primes_in_window", "sieve_up_to", "first_n_primes"):
        monkeypatch.setattr(cli, name, _refuse_to_sieve)
    out = tmp_path / "r.json"
    code, stdout, err = run(_GRID_COMMANDS[command] + [f"--R-grid={grid}", "--out", str(out)],
                            capsys)
    message = messages[command == "stabilization"]
    assert (code, stdout) == (2, "")
    assert err == f"InvalidArgumentError: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code, message", [
    (["cramer", "--N", "5", "--R", "1", "--M", "8", "--seed", "3"], 1,
     "ConfigurationError: simulated set on [3, 5] is empty"),
    (["stabilization", "--lambda", "1e-3", "--R-grid", "1", "--reps", "2", "--seed", "1"], 1,
     "ConfigurationError: empty realization at R=1.0"),
    (["deviation", "--p", "1", "--R", "10", "--M", "8", "--reps", "4", "--seed", "1"], 2,
     "InvalidArgumentError: base point must exceed 1"),
])
def test_library_errors_end_in_one_line(argv, code, message, tmp_path, capsys):
    got, _, err = run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert got == code
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(message)
    assert not (tmp_path / "r.json").exists()


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    code, _, err = run(["entropy", "--p", "101", "--R", "50", "--M", "8",
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"InvalidArgumentError: cannot write {tmp_path}: ")


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("specent ")]


def test_readme_commands_parse():
    # A documented flag that the parser no longer knows fails here.
    from specent import cli

    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.subcommand == argv[0]


def test_readme_baseline_command_reproduces_the_shipped_file(tmp_path, capsys):
    # Any change to the null's streams must regenerate the shipped baseline.
    (argv,) = [argv for argv in _readme_commands() if "--baseline-out" in argv]
    argv[argv.index("--baseline-out") + 1] = str(tmp_path / "baseline.json")
    assert run(argv + ["--out", str(tmp_path / "r.json")], capsys)[0] == 0
    shipped = resources.files("specent") / "data" / "null_baseline_M50.json"
    assert (tmp_path / "baseline.json").read_bytes() == shipped.read_bytes()


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_deviation_at_two_bins_writes_strict_json(tmp_path, capsys):
    # At M = 2 every H is log 2, so the null's standard error is 0 and z is null.
    out = tmp_path / "r.json"
    code, stdout, _ = run(["deviation", "--p", "1000003", "--R", "1e3", "--M", "2", "--reps",
                           "10", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0 and "z = undefined" in stdout
    result = json.loads(out.read_text(), parse_constant=_refuse_constant)["result"]
    assert result["null_stderr"] == 0.0 and result["z_score"] is None
    validate_payload(out)


def test_non_finite_result_exits_1_without_a_file(monkeypatch, tmp_path, capsys):
    from dataclasses import replace

    from specent import cli

    real = cli.deviation_profile
    monkeypatch.setattr(cli, "deviation_profile",
                        lambda *args: replace(real(*args), z_score=float("inf")))
    out = tmp_path / "r.json"
    code, stdout, err = run(["deviation", "--p", "101", "--R", "1e3", "--M", "8", "--reps", "4",
                             "--seed", "1", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith(f"SpecentError: cannot write {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
@pytest.mark.parametrize("grid, message", [("abc", "invalid radius grid: 'abc'"),
                                           (",", "radius grid is empty")])
def test_unparsable_radius_grid_exits_2(command, grid, message, tmp_path, capsys):
    code, stdout, err = run(_GRID_COMMANDS[command] + ["--R-grid", grid, "--out",
                                                       str(tmp_path / "r.json")], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"specent {command}: error: argument --R-grid: {message}\n"


def test_null_reports_its_degenerate_replicates(tmp_path, capsys):
    # At lambda R = 8 about 0.3% of replicates have fewer than two points.
    code, stdout, _ = run(["null", "--R", "8", "--M", "8", "--reps", "2000", "--seed", "5",
                           "--out", str(tmp_path / "r.json")], capsys)
    assert code == 0
    assert re.search(r"^excluded [1-9]\d* degenerate replicate\(s\)$", stdout, re.M)
