"""Every function of the package is entered by some CLI run.

A fixed battery of subcommands runs in a fresh interpreter under
``sys.setprofile``, so that no cache is warm, and the functions and methods
defined in ``src/krichever`` that it never enters must be exactly
``NEVER_RUN``: code that no CLI run reaches is either named there with its
reason or code to delete.  ``python tests/test_reach.py`` prints the names
the battery never enters.
"""

import contextlib
import inspect
import io
import os
import subprocess
import sys
import tempfile

BATTERY = [
    ["reproduce-paper", "--max-weight", "8", "--order", "6"],
    ["verify", "--suite", "all", "--order", "6", "--format", "json"],
    # a verify report as text
    ["verify", "--suite", "lemma1", "--order", "4"],
    ["quotient", "--max-weight", "8"],
    ["quotient", "--max-weight", "6", "--format", "json"],
    # the usage text, and a flag's value after an "="
    ["--help"],
    ["verify", "--suite=krichever-ode", "--order=4"],
    *(
        [table, "--order", "6", *fmt]
        for table in ("psi", "kappa", "kappa-inv", "phi-kh")
        for fmt in ([], ["--format", "json"])
    ),
]
USAGE_ERRORS = [["psi", "--order", "0"], ["bogus"]]

# Entered by no CLI run, each for a stated reason.
NEVER_RUN = {
    # the console-script entry point; the battery calls cli.run
    "krichever.cli.main",
    # a VarTable is compared, never hashed or printed
    "krichever.core.VarTable.__hash__",
    "krichever.core.VarTable.__repr__",
    # D_n of the docstrings; the benchmark traces it by name
    "krichever.lattice.LazardModel.decomposables_piece",
}


def _package_functions():
    """{code object: qualified name} of every function and method defined in
    the package's modules, cached functions, properties and classmethods
    included."""
    import krichever.cli  # noqa: F401  (with fgl and lattice, every module)
    import krichever.fgl  # noqa: F401
    import krichever.lattice  # noqa: F401

    codes = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("krichever.")]
    for module in modules:
        for name, obj in vars(module).items():
            obj = getattr(obj, "__wrapped__", obj)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                codes[obj.__code__] = f"{module.__name__}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        codes.setdefault(member.__code__, f"{module.__name__}.{name}.{attr}")
    return codes


def never_run():
    """The qualified names of the package functions the battery never enters."""
    from krichever import cli

    codes = _package_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # one run writes its output to a file instead of stdout
        out = ["psi", "--order", "2", "--out", os.path.join(tmp, "psi.txt")]
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in [*BATTERY, out]:
                    if cli.run(argv) != 0:
                        raise AssertionError(f"{argv} did not exit 0")
                for argv in USAGE_ERRORS:
                    try:
                        cli.run(argv)
                    except SystemExit as exc:
                        if exc.code != 2:
                            raise
                    else:
                        raise AssertionError(f"{argv} did not exit 2")
        finally:
            sys.setprofile(None)
    return {name for code, name in codes.items() if code not in entered}


def test_every_function_is_run_by_the_cli():
    import krichever

    src = os.path.dirname(os.path.dirname(krichever.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(proc.stdout.split()) == NEVER_RUN


if __name__ == "__main__":
    print("\n".join(sorted(never_run())))
