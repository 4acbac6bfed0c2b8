"""The benchmark's span tracer (`bench/tracer.py`) wraps library
functions by module and attribute name, and reads the pairings from the
first argument of `specialize.weights`, the sorted magnitudes |beta|
of one multiset. These tests pin the names and that argument, so that
`bench/run.py --trace 1` keeps working."""

import importlib
import importlib.util
from importlib.resources import files
from pathlib import Path

from ehrmat import cli, specialize

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_names_resolve():
    tracing = _tracer_module()
    for modname, attr, _ in tracing.SPANNED + tracing.COUNTED:
        mod = importlib.import_module(modname)
        assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"


def test_traced_run_counts_pairings(capsys):
    tracing = _tracer_module()
    for modname, _, _ in tracing.SPANNED + tracing.COUNTED:
        importlib.import_module(modname)
    original = specialize.weights
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_instance(0)
        path = str(files("ehrmat").joinpath("data/K4.json"))
        code = tracer.span("cli.main", cli.main, ["ehrhart", path])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert specialize.weights is original
    layers = tracer.summary()["layers"]
    # one weights call per distinct multiset of |beta|, which the
    # tracer counts as its classes; K4 has 6 elements, so |beta| <= 6
    assert layers["specialize.weights_calls"] == layers[
        "specialize.beta_classes"] > 0
    assert 1 <= layers["specialize.max_beta"] <= 6
    assert 1 <= layers["specialize.beta_classes"] <= layers["genfun.terms"]
