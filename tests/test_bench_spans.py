"""The benchmark times layers by wrapping functions named in bench/spans.py.

A renamed or removed function would only break the benchmark run, so this
checks here that every (module, attribute) in its LAYERS table still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for module, attr, *_ in spans.LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
