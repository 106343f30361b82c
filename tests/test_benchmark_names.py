"""The names the benchmark in ``perfbench/`` reads from the package.

``perfbench/layers.targets()`` looks up every traced function by name,
its wrappers rebind the module-level names that callers look up, and
``perfbench/run.py`` records ``krichever.BACKEND``.  Deleting one of those
names from ``src`` fails here as well as under ``pytest perfbench``, and so
does a change to the call counts that ``perfbench/test_perfbench.py`` pins.
"""

import importlib.util
from pathlib import Path

import pytest

import krichever
from krichever import cli, core, fgl, genus, lattice

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    for name, fn, _ in targets:
        assert callable(fn), name


def test_rebound_names_are_the_traced_functions():
    # perfbench/test_perfbench.py::test_wrappers_rebind_the_names_callers_look_up
    # reads each of these through the module that calls it
    assert fgl.compose1 is core.compose1
    assert genus.compose1 is core.compose1
    assert lattice.build_universal_fgl is fgl.build_universal_fgl
    assert lattice.compute_A is fgl.compute_A
    assert cli.TABLES["phi-kh"] is genus.phi_kh_table


def test_backend_is_named():
    assert isinstance(krichever.BACKEND, str) and krichever.BACKEND


def _counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through the module global,
    as the benchmark's wrappers do; the list holds the running count."""
    real = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_phi_kh_table_builds_one_kappa_inverse_table(monkeypatch):
    # the benchmark pins as many calls of kappa_inverse_table as of phi_kh_table
    calls = _counted(monkeypatch, genus, "kappa_inverse_table")
    genus.phi_kh_table(3)
    assert calls[0] == 1


@pytest.mark.parametrize(
    "suite, a_builds",
    [
        ("all", 1),
        ("proposition-ii", 1),
        ("krichever-form", 1),
        ("associativity", 0),
        ("proposition-i", 0),
    ],
)
def test_verify_builds_one_law_and_A_only_for_its_readers(suite, a_builds, monkeypatch, capsys):
    # the benchmark traces both builders; its paper workload runs
    # verify --suite all, so compute_A still fires there
    laws = _counted(monkeypatch, fgl, "build_universal_fgl")
    a_calls = _counted(monkeypatch, fgl, "compute_A")
    assert cli.run(["verify", "--suite", suite, "--order", "4"]) == 0
    assert (laws[0], a_calls[0]) == (1, a_builds)
