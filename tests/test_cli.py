import csv
import json
from importlib import resources

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
    code, _, _ = run(["null", "--seed", "3", "--check-stabilization",
                      "--R-grid", "1e2,1e3", "--reps", "8", "--out", str(out)], capsys)
    assert code == 0
    payload = validate_payload(out)
    assert payload["schema"] == "specent/v1/stabilization_report"
    assert payload["result"]["radii"] == [100.0, 1000.0]


def test_stabilization_requires_grid(capsys):
    code, _, err = run(["null", "--seed", "3", "--check-stabilization"], capsys)
    assert code == 2
    assert "R-grid" in err


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
    ["null", "--check-stabilization", "--R-grid", "nan,10", "--seed", "1"],
    ["null", "--check-stabilization", "--R-grid", "10,nan", "--seed", "1"],
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
    ["null", "--lambda", "1e10", "--check-stabilization", "--R-grid", "1e2,1e10",
     "--seed", "1"],
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
