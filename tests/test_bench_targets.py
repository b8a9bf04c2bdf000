"""The benchmark's layer tracer wraps package functions by name
(``perfbench/tracing.py``, ``TARGETS``).  A target that is deleted or
renamed makes every traced benchmark run fail in ``_resolve``, while the
rest of this suite still passes, so the targets are checked here.  The
tracer module is loaded from its file and only read."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = []
    for path in tracing.TARGETS:
        try:
            fn = tracing._resolve(path)[2]
        except (ImportError, AttributeError, KeyError):
            missing.append("%s.%s" % path)
            continue
        assert callable(fn), path
    assert missing == []
