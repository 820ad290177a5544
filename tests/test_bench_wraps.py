"""Keep the benchmark's wrap table in step with the package.

bench/spans.py patches the package functions it times by name; a refactor
that renames or drops one would otherwise only show in a traced benchmark
run. Installing and removing the tracer here fails on any stale name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def test_wrap_table_installs_and_removes(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    originals = {w.target: _resolve(w.target) for w in spans.WRAP_TABLE}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert _resolve(target) is not original, target
    finally:
        tracer.remove()
    for target, original in originals.items():
        assert _resolve(target) is original, target
