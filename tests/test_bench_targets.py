"""The benchmark reaches into the package in two ways, and both are
checked here: a renamed or deleted function, or a dropped keyword, makes
every benchmark run fail while the rest of this suite still passes.

* The layer tracer wraps package functions by name
  (``perfbench/tracing.py``, ``TARGETS``).
* The workloads call package functions with fixed arguments
  (``perfbench/workloads.py``).

The benchmark files are only read: the tracer is loaded from its file,
and the workloads are parsed, not imported."""

import ast
import importlib
import importlib.util
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


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


def workload_calls():
    """(name, callee, call node) for every call in the workloads file to
    a name it imports from the package, directly or as ``module.name``."""
    with open(WORKLOADS) as fh:
        tree = ast.parse(fh.read())
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] \
                == "repstable":
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module == "repstable":
                    modules[bound] = importlib.import_module(
                        "repstable." + alias.name)
                else:
                    names[bound] = getattr(
                        importlib.import_module(node.module), alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            calls.append((func.id, names[func.id], node))
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            calls.append(("%s.%s" % (func.value.id, func.attr),
                          getattr(modules[func.value.id], func.attr, None),
                          node))
    return calls


def test_workload_calls_bind():
    calls = workload_calls()
    keywords = {(name, kw.arg) for name, _, node in calls
                for kw in node.keywords}
    assert ("stable.classify_irreducible", "universe_dim") in keywords
    assert ("stable.classify_irreducible", "certify") in keywords
    for name, fn, node in calls:
        assert callable(fn), name
        assert not any(isinstance(a, ast.Starred) for a in node.args), name
        assert all(kw.arg for kw in node.keywords), name
        inspect.signature(fn).bind(*node.args,
                                   **{kw.arg: kw.value
                                      for kw in node.keywords})
