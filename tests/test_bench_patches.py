import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps these functions where the callers look
    # them up; a name deleted or renamed here would crash a traced run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    missing = [
        (module, attr)
        for module, attr, _, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
