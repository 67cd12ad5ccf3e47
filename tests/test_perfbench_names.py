"""The benchmark's tracer swaps program attributes by name, so a rename
in the program must fail here rather than break ``run.py --trace``."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = _load_tracing()
    assert tracing.TRACED
    for _, owner, attr in tracing.TRACED:
        # the tracer reads the attribute from the owner's own namespace
        assert attr in vars(tracing._resolve(owner)), f"{owner}.{attr}"
