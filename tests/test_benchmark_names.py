"""The names the benchmark in ``perfbench/`` reads from the package.

``perfbench/layers.targets()`` looks up every traced function by name, and
``perfbench/run.py`` records ``krichever.BACKEND``.  Deleting one of those
names from ``src`` fails here as well as under ``pytest perfbench``, and so
does a change to the call counts that ``perfbench/test_perfbench.py`` pins.
"""

import importlib.util
from pathlib import Path

import krichever
from krichever import genus

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


def test_phi_kh_table_builds_one_kappa_inverse_table(monkeypatch):
    # the benchmark counts genus.kappa_inverse_table through the module
    # global, and pins as many calls of it as of phi_kh_table
    real = genus.kappa_inverse_table
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(genus, "kappa_inverse_table", counted)
    genus.phi_kh_table(3)
    assert calls[0] == 1
