"""The benchmark's layer tracer (``perfbench/tracing.py``) still finds every
layer it times.

It wraps specent's public layer functions by name, ``ordered_map`` among
them, so a renamed or deleted function, or a layer no CLI job reaches any
more, leaves a layer without spans and the traced benchmark run without
its numbers.  This test fails first.
"""

import sys
from pathlib import Path

import specent.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

_JOBS = [
    ["null", "--R", "1e3", "--M", "8", "--reps", "4", "--seed", "1"],
    ["entropy", "--p", "101", "--R", "50", "--M", "8"],
    ["cramer", "--N", "1e5", "--R", "1e3", "--M", "8", "--seed", "1"],
    ["ensemble", "--m", "2", "--samples", "3", "--range", "1e4:2e4", "--R", "1e3",
     "--M", "8", "--seed", "1"],
]


def test_tracer_spans_every_layer_and_uninstalls(tmp_path, capsys):
    main = specent.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(_JOBS):
            tracer.job = i
            assert specent.cli.main(argv + ["--out", str(tmp_path / f"{i}.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert specent.cli.main is main
    layers = {span.layer for span in tracer.spans}
    assert sorted(set(tracing.LAYERS) - layers) == []
    assert any(span.name == "ordered_map" for span in tracer.spans)
