"""The benchmark's traced run (bench/tracer.py) wraps functions by looking
them up in their owners' namespaces. A rename or a lazy import under src/
that removes one of those names fails here, before the traced run does."""
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__
    ]
    assert not missing, missing
