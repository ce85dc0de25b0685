"""The benchmark tracer's targets exist, and the tracer restores them."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_targets_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    originals = []
    for layer, fn_name, callers, _ in spans.TARGETS:
        home = importlib.import_module(f"obstacle_lab.{layer}")
        assert callable(getattr(home, fn_name, None)), f"{layer}.{fn_name} missing"
        fn = getattr(home, fn_name)
        for caller in callers:
            mod = importlib.import_module(f"obstacle_lab.{caller}")
            assert getattr(mod, fn_name, None) is fn, f"{caller}.{fn_name} is not {layer}.{fn_name}"
            originals.append((mod, fn_name, fn))
    tracer = spans.Tracer()
    try:
        tracer.install()
        for mod, fn_name, fn in originals:
            assert getattr(mod, fn_name) is not fn, f"{mod.__name__}.{fn_name} not patched"
    finally:
        tracer.uninstall()
    for mod, fn_name, fn in originals:
        assert getattr(mod, fn_name) is fn, f"{mod.__name__}.{fn_name} not restored"
