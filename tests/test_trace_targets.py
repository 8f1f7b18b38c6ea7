"""The benchmark tracer's contract: every name in bench/spans.py's TARGETS
resolves in svcl, so renaming or deleting a traced layer fails here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for name, modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {modname}.{attr} does not exist"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {modname}.{attr} is not callable"
