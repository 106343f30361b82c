"""The names the benchmark in ``perfbench/`` reads from the package.

``perfbench/layers.targets()`` looks up every traced function by name, and
``perfbench/run.py`` records ``krichever.BACKEND``.  Deleting one of those
names from ``src`` fails here as well as under ``pytest perfbench``.
"""

import importlib.util
from pathlib import Path

import krichever

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    for name, fn, _ in targets:
        assert callable(fn), name


def test_backend_is_named():
    assert isinstance(krichever.BACKEND, str) and krichever.BACKEND
