import errno
import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

import krichever
from krichever import cli, genus, lattice
from krichever.core import Poly, VarTable, q_vars
from oracles import parse_poly, perturbed_table, poly_from_json, products_formed


MAX_WEIGHT_MESSAGE = f"--max-weight must be between 1 and {lattice.WEIGHT_CEILING}"


def run(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


def _fresh(*args, env=(), **kwargs):
    """``python *args`` in a fresh interpreter that imports this krichever,
    with the variables ``env`` added.  Its stdout is block-buffered, as a
    CLI's is when it writes to a pipe or a file."""
    src = os.path.dirname(os.path.dirname(krichever.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict(env))
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


# Scripts for ``python -c SCRIPT ARGS``, whose ``sys.argv[1:]`` is ARGS, as
# ``cli.run`` reads it.  A marker that only the normal exit writes:
ATEXIT_MAIN = """
import atexit, sys
from krichever import cli

atexit.register(sys.stderr.write, "atexit ran\\n")
cli.main()
"""

# stdout a pipe whose reader has gone:
BROKEN_PIPE_MAIN = """
import os
from krichever import cli

read, write = os.pipe()
os.close(read)
os.dup2(write, 1)
cli.main()
"""

# phi_KH perturbed as in TestFailurePath, run from the tests directory:
PERTURBED_PHI_KH_MAIN = """
from krichever import cli, genus
from krichever.core import Poly, q_vars
from oracles import perturbed_table

real = genus.phi_kh_table
q1 = Poly.var(q_vars(), "q1")
genus.phi_kh_table = lambda n: perturbed_table(real(n), 1, q1)
cli.main()
"""


def unwritable_stdout(error):
    """The one line a CLI process prints when stdout fails with ``error``."""
    return f"krichever: error: cannot write stdout: {os.strerror(error)}\n".encode()


def _modules_loaded(*args):
    """The modules a fresh ``python -X importtime *args`` imports."""
    proc = _fresh("-X", "importtime", *args, text=True, check=True)
    # one "import time: self | cumulative | name" line per module imported
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


# fractions pulls in decimal, _decimal and numbers: 1.5 ms of every CLI process
NO_FRACTIONS = {"fractions", "decimal", "numbers"}
# argparse with gettext, and the locale its first message lookup imports,
# cost 4.4 ms of every CLI process; src has no annotations to defer
NO_ARGPARSE = {"argparse", "gettext", "locale", "__future__"}


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis, about a third of what
    # importing the package cost; every CLI process pays the import
    loaded = _modules_loaded("-c", "import krichever.cli")
    assert "krichever.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
    assert not loaded & NO_FRACTIONS
    assert not loaded & NO_ARGPARSE


@pytest.mark.parametrize("module", ["krichever.lattice", "krichever.fgl"])
def test_lazard_side_loads_no_genus(module):
    # the integer-only half reports through krichever.report, not genus
    loaded = _modules_loaded("-c", f"import {module}")
    assert {module, "krichever.report"} <= loaded
    assert "krichever.genus" not in loaded


@pytest.mark.parametrize(
    "suite, needed, unneeded",
    [
        (
            "lemma1",
            {"krichever.genus"},
            {"krichever.fgl", "krichever.lattice", "json", *NO_FRACTIONS, *NO_ARGPARSE},
        ),
        (
            "proposition-i",
            {"krichever.fgl"},
            {"krichever.lattice", *NO_FRACTIONS, *NO_ARGPARSE},
        ),
    ],
)
def test_verify_imports_only_what_its_suites_run(suite, needed, unneeded):
    # a genus-suite process costs about as much as the interpreter start-up,
    # so the modules it imports are much of its time
    loaded = _modules_loaded("-m", "krichever.cli", "verify", "--suite", suite, "--order", "3")
    assert needed <= loaded
    assert not loaded & unneeded


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "--max-weight", "3", "--format", "json"],
        ["reproduce-paper", "--max-weight", "3", "--order", "2"],
    ],
    ids=["quotient", "reproduce-paper"],
)
def test_lazard_runs_load_no_fractions(argv):
    # the b-model law and the lattice are integral, and every rational
    # coefficient is a numerator over a denominator
    loaded = _modules_loaded("-m", "krichever.cli", *argv)
    assert {"krichever.fgl", "krichever.lattice"} <= loaded
    assert not loaded & NO_FRACTIONS
    assert not loaded & NO_ARGPARSE


class TestTables:
    def test_psi_text_matches_golden(self, capsys):
        code, out = run(capsys, "psi", "--order", "4")
        assert code == 0
        assert out.strip() == cli.golden_table("psi")

    def test_kappa_text_matches_golden(self, capsys):
        code, out = run(capsys, "kappa", "--order", "4")
        assert code == 0
        assert out.strip() == cli.golden_table("kappa")

    def test_json_round_trips_through_parser(self, capsys):
        code, out = run(capsys, "phi-kh", "--order", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 4
        vars = VarTable(*zip(*payload["vars"]))
        for key, terms in payload["values"].items():
            poly = poly_from_json(terms, vars)
            assert parse_poly(poly.text(), vars) == poly

    def test_kappa_inv_runs(self, capsys):
        code, out = run(capsys, "kappa-inv", "--order", "3")
        assert code == 0
        assert "kappa_inv(CP_3)" in out


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "krichever-ode", "--order", "5")
        assert code == 0
        assert "[PASS] krichever-ode" in out

    @pytest.mark.parametrize("order", ["2", "10", "18"])
    def test_associativity_checks_to_the_order(self, order, capsys):
        code, out = run(capsys, "verify", "--suite", "associativity", "--order", order)
        assert code == 0
        assert out == f"[PASS] associativity (order {order})\n"

    @pytest.mark.parametrize(
        "suite, most", [("associativity", 430_000), ("proposition-i", 270_000)]
    )
    def test_suite_builds_no_A_it_does_not_read(self, suite, most, capsys, monkeypatch):
        # both read F and omega only: 426,513 and 265,784 term products at
        # order 18, against 722,299 and 561,570 when A was built for them
        codes = []
        argv = ["verify", "--suite", suite, "--order", "18"]
        products = products_formed(monkeypatch, lambda: codes.append(cli.run(argv)))
        assert codes == [0]
        assert capsys.readouterr().out == f"[PASS] {suite} (order 18)\n"
        assert 0 < products <= most

    def test_all_suites_form_a_fixed_number_of_products(self, capsys, monkeypatch):
        # --suite all builds A, which proposition-ii and krichever-form read
        codes = []
        argv = ["verify", "--suite", "all", "--order", "10"]
        products = products_formed(monkeypatch, lambda: codes.append(cli.run(argv)))
        assert codes == [0]
        assert products == 47_911

    def test_all_suites_json(self, capsys):
        code, out = run(capsys, "verify", "--order", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["reports"]) == 7
        for rep in payload["reports"]:
            assert rep["first_failure"] is None


class TestQuotient:
    def test_small_weights_free(self, capsys):
        code, out = run(capsys, "quotient", "--max-weight", "3")
        assert code == 0
        for line in out.strip().splitlines():
            assert "Indec = Z" in line

    def test_json_schema(self, capsys):
        code, out = run(capsys, "quotient", "--max-weight", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        by_n = {w["n"]: w for w in payload["weights"]}
        assert by_n[5]["Indec"] == {"free": 0, "torsion": [5]}
        assert by_n[5]["rank_L"] == 7

    def test_text_groups_match_json(self, capsys):
        # both formats render the same records, weight by weight
        _, text = run(capsys, "quotient", "--max-weight", "8")
        _, out = run(capsys, "quotient", "--max-weight", "8", "--format", "json")
        weights = json.loads(out)["weights"]
        lines = text.strip().splitlines()
        assert len(lines) == len(weights) == 8
        for line, w in zip(lines, weights):
            groups = [
                lattice.InvariantFactors(tuple(w[k]["torsion"]), w[k]["free"]).describe()
                for k in ("Q", "Indec")
            ]
            assert line.startswith(f"n={w['n']:>2}  ")
            assert [g.strip() for g in line.split("Q = ")[1].split("Indec = ")] == groups


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            ["psi", "--order", "0"],
            ["verify", "--suite", "nope"],
            ["quotient", "--max-weight", "99"],
            ["psi", "--frobnicate"],
            # the report is text only, so --format is an unknown flag here
            ["reproduce-paper", "--max-weight", "3", "--order", "3", "--format", "json"],
            ["psi", "--order", "abc"],
            # an empty path is a path that cannot be opened, not "no --out"
            ["psi", "--order", "2", "--out", ""],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        # a parse error is one line too, with no usage block
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("krichever: error: ")


    # The messages argparse gave, byte for byte, and the quoted --out path.
    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (
                ["bogus"],
                "argument command: invalid choice: 'bogus' (choose from 'psi', 'kappa', "
                "'kappa-inv', 'phi-kh', 'verify', 'quotient', 'reproduce-paper')",
            ),
            (
                ["verify", "--suite", "nope"],
                "argument --suite: invalid choice: 'nope' (choose from 'krichever-ode', "
                "'lemma1', 'lemma2-theorem1', 'proposition-i', 'proposition-ii', "
                "'krichever-form', 'associativity', 'all')",
            ),
            (
                ["psi", "--format", "xml"],
                "argument --format: invalid choice: 'xml' (choose from 'text', 'json')",
            ),
            (["psi", "--order", "abc"], "argument --order: invalid int value: 'abc'"),
            (["psi", "--order="], "argument --order: invalid int value: ''"),
            (["psi", "--order"], "argument --order: expected one argument"),
            (["psi", "--o", "3"], "ambiguous option: --o could match --order, --out"),
            (["psi", "--frobnicate"], "unrecognized arguments: --frobnicate"),
            (["psi", "extra"], "unrecognized arguments: extra"),
            (["quotient", "--suite", "all"], "unrecognized arguments: --suite all"),
            (
                ["reproduce-paper", "--max-weight", "3", "--order", "3", "--format", "json"],
                "unrecognized arguments: --format json",
            ),
            (["psi", "--order", "2", "--out", ""], "cannot write '': No such file or directory"),
        ],
    )
    def test_parse_error_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"krichever: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (["psi", "--order=3"], ["psi", "--order", "3"]),
            (["psi", "--ord", "3"], ["psi", "--order", "3"]),
            (["psi", "--order", "5", "--order", "3"], ["psi", "--order", "3"]),
            (
                ["verify", "--su=lemma1", "--ord", "4"],
                ["verify", "--suite", "lemma1", "--order", "4"],
            ),
            (["quotient", "--max", "3"], ["quotient", "--max-weight", "3"]),
            (
                ["quotient", "--max-weight=3", "--f=json"],
                ["quotient", "--max-weight", "3", "--format", "json"],
            ),
        ],
    )
    def test_accepted_spellings(self, argv, canonical, capsys):
        assert run(capsys, *argv) == run(capsys, *canonical)
        assert run(capsys, *argv)[0] == 0

    def test_negative_order_is_a_value(self, capsys):
        # -3 reads as a number, not a flag, and reaches the range check
        with pytest.raises(SystemExit) as exc:
            cli.run(["reproduce-paper", "--order", "-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "krichever: error: --order must be >= 2\n"

    @pytest.mark.parametrize(
        "argv", [["--help"], ["psi", "-h"], ["verify", "--order", "3", "--he"]]
    )
    def test_help_names_every_subcommand(self, argv, capsys):
        code, out = run(capsys, *argv)
        assert code == 0
        for command, (_, flags) in cli.COMMANDS.items():
            assert f"  {command} " in out
            for flag, _, _ in flags:
                assert flag in out
        assert out == run(capsys, "-h")[1]

    # A generated id embeds the expected message, so the cases whose message
    # names a ceiling get explicit ids: raising a ceiling renames no test.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reproduce-paper", "--order", "1"], "--order must be >= 2"),
            (["reproduce-paper", "--order", "0"], "--order must be >= 2"),
            (["reproduce-paper", "--order", "-3"], "--order must be >= 2"),
            (["verify", "--order", "1"], "--order must be >= 2"),
            (["psi", "--order", "0"], "--order must be >= 1"),
            pytest.param(
                ["quotient", "--max-weight", "0"], MAX_WEIGHT_MESSAGE, id="quotient-max-weight-0"
            ),
        ]
        + [
            pytest.param(
                [command, "--order", str(genus.ORDER_CEILING + 1)],
                f"--order must be <= {genus.ORDER_CEILING}",
                id=f"{command}-order-ceiling+1",
            )
            for command in (*cli.TABLES, "verify", "reproduce-paper")
        ]
        + [
            pytest.param(
                [command, "--max-weight", w],
                MAX_WEIGHT_MESSAGE,
                id=f"{command}-max-weight-{case}",
            )
            for command, w, case in (
                ("quotient", str(lattice.WEIGHT_CEILING + 1), "ceiling+1"),
                ("reproduce-paper", "0", "0"),
                ("reproduce-paper", str(lattice.WEIGHT_CEILING + 1), "ceiling+1"),
            )
        ],
    )
    def test_out_of_range_is_one_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"krichever: error: {message}\n"

    @pytest.mark.parametrize("argv", [["quotient"], ["reproduce-paper", "--order", "3"]])
    def test_max_weight_default(self, argv, capsys):
        default = run(capsys, *argv)
        assert default == run(capsys, *argv, "--max-weight", str(lattice.DEFAULT_MAX_WEIGHT))
        assert default[0] == 0

    def test_order_ceiling_is_accepted(self, capsys):
        code, out = run(capsys, "psi", "--order", str(genus.ORDER_CEILING))
        assert code == 0
        assert f"psi(CP_{genus.ORDER_CEILING}) = " in out


class TestGoldenDigests:
    # sha256 of stdout as computed with kappa^{-1} from a dense Gauss-Jordan
    # solve and Horner-rule series composition (the oracles in test_genus and
    # test_core), and the quotient with a Smith elimination of its own that
    # cleared rows and columns pivot by pivot: a series or kernel change must
    # leave these bytes alone, and so must a change of the lattice row order.
    # The quotient pins cover the printed torsion of Q_n (Z/2 at n = 6, 8 and
    # (Z/2)^2 at n = 10; (Z/2)^5 at n = 14).
    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ["kappa-inv", "--order", "10", "--format", "json"],
                "556e271261af8294ca026e09690992e6425ba51b725997681557488caa0ee6d7",
                id="kappa-inv-10-json",
            ),
            pytest.param(
                ["phi-kh", "--order", "10", "--format", "json"],
                "6c315c0706a6b27c4d41740c8663ba26c3f8c428fa307f581dad56ac685ee3fb",
                id="phi-kh-10-json",
            ),
            pytest.param(
                ["verify", "--suite", "all", "--order", "8", "--format", "json"],
                "4464901558ed29bfc9bd550b2cd2fb3ed5c6e99822e172cc1afe4a83f47cdac1",
                id="verify-all-8-json",
            ),
            pytest.param(
                ["quotient", "--max-weight", "11", "--format", "json"],
                "8d35de9cd20dab50ffd29670a8ff14c6b2f89653d68ea1acea31e8f90a113d86",
                id="quotient-11-json",
            ),
            pytest.param(
                ["verify", "--suite", "all", "--order", "12", "--format", "json"],
                "a13e7e53f602ff821a0c8f08eab373c472065ec106f60cb6a55f7e71ffbe91c6",
                id="verify-all-12-json",
            ),
            # psi carries the largest denominators, powers of 2 up to 2^31 here
            pytest.param(
                ["psi", "--order", "16", "--format", "json"],
                "8447e0f5cdbaf20b418e0c464e1f2d4c897997c992427645b89184c8c9eee82b",
                id="psi-16-json",
            ),
            # the ceiling before weight 16: Q_14 = Z^47 + (Z/2)^5, Q_15 = Z^54
            pytest.param(
                ["quotient", "--max-weight", "15", "--format", "json"],
                "b577fad8f52f8c03b69f88c3e660c97246ff5e1424fb773e6dfc08e175e65850",
                id="quotient-15-json",
            ),
            # both ceilings at once: the only pin at weight 16 and order 18
            pytest.param(
                ["reproduce-paper", "--max-weight", "16", "--order", "18"],
                "70de4cd8e68efa93b127248889aef622a93d13ce0c74f1af9012b67ed59578af",
                id="reproduce-paper-16-18",
            ),
            # the weight ceiling in full: Q_16 = Z^64 + (Z/2)^6 and every rank_I
            pytest.param(
                ["quotient", "--max-weight", "16", "--format", "json"],
                "6d7c52164e3813d69e54eb275d179d1b8cbac625bbc4aca47b08da7a5273e1ba",
                id="quotient-16-json",
            ),
            # the genus substitutions at the order ceiling, which reproduce-paper
            # reports only as PASS lines
            pytest.param(
                ["phi-kh", "--order", "18", "--format", "json"],
                "e2774a6cefa5620bb8bfa2881b3d225b5899324fb95198a67483414cae7c26fc",
                id="phi-kh-18-json",
            ),
            # Series1.compose at the order ceiling: kappa is read off mog at order 19
            pytest.param(
                ["kappa", "--order", "18", "--format", "json"],
                "3b5b16382d3ae80951e4d80500ea88258b24942adca3945bd38662ee9b1ae85b",
                id="kappa-18-json",
            ),
            # kappa^{-1} at the order ceiling, the table phi-kh is read from
            pytest.param(
                ["kappa-inv", "--order", "18", "--format", "json"],
                "be536439198d5e1ae4da30319682763c31aa54b7d320608fb5e4dc7b1bdc30e3",
                id="kappa-inv-18-json",
            ),
            # the quotient text renderer at the weight ceiling
            pytest.param(
                ["quotient", "--max-weight", "16"],
                "7020794113012dfee1eb0c99c357c9a5809e400ccf0f7e5eb03c06d11ad7020a",
                id="quotient-16-text",
            ),
        ],
    )
    def test_stdout_digest(self, argv, digest, capsys):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestKeyLayoutReach:
    """The runs where a key layout's top weight is tightest run through.

    ``b_vars(n)`` and ``cp_vars(n)`` share a layout; its top weight is 15 for
    n = 13, 14, 15 and 31 for n = 16 and 18, and the law, ``compute_A``, the
    suites and the quotient at weight n form products up to weight n.  The
    genus tables over ``p_vars()``/``q_vars()`` form products up to the order.
    A product past the top raises OverflowError, so every run must exit 0.
    """

    @pytest.mark.parametrize("n", [13, 14, 15, 16, 18])
    def test_every_suite_at_the_edge(self, n, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--order", str(n))
        assert code == 0
        assert out.count("[PASS]") == len(cli.VERIFY_SUITES) - 1
        if n <= lattice.WEIGHT_CEILING:
            assert run(capsys, "quotient", "--max-weight", str(n))[0] == 0

    @pytest.mark.parametrize("table", cli.TABLES)
    def test_every_table_at_the_order_ceiling(self, table, capsys):
        assert run(capsys, table, "--order", str(genus.ORDER_CEILING))[0] == 0


class TestGcPolicy:
    """``main`` runs the process without cyclic GC, then flushes stderr (the
    run flushed stdout) and ends it with ``os._exit``, skipping the
    interpreter's teardown; ``run``, which tests and the benchmark's traced
    pass call in a long-lived process, leaves GC as it found it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce-paper", "--max-weight", "8", "--order", "6"],
            ["verify", "--suite", "all", "--order", "8", "--format", "json"],
        ],
        ids=["reproduce-paper", "verify-json"],
    )
    def test_process_prints_what_run_prints(self, argv, capsys):
        enabled = gc.isenabled()
        code, out = run(capsys, *argv)
        assert gc.isenabled() == enabled
        proc = _fresh("-m", "krichever.cli", *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode("utf-8")

    def test_main_runs_without_gc(self, monkeypatch):
        class Exited(Exception):
            pass

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                seen.append(("flush", self.name))

        def hard_exit(code):
            seen.append(("exit", code))
            raise Exited

        enabled = gc.isenabled()
        seen = []
        monkeypatch.setattr(cli, "run", lambda: seen.append(("gc", gc.isenabled())) or 0)
        monkeypatch.setattr(sys, "stdout", Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        monkeypatch.setattr(os, "_exit", hard_exit)
        try:
            with pytest.raises(Exited):
                cli.main()
        finally:
            if enabled:
                gc.enable()
        assert seen == [("gc", False), ("flush", "stderr"), ("exit", 0)]


class TestProcessExit:
    """A fresh CLI process writes everything ``run`` wrote before its fast
    exit; a usage error leaves through the normal one, and so does a stdout
    that cannot be written, as one line and exit 2."""

    # 3 KB, which stays in the 8 KB stdout buffer, and 62 KB, which spans it
    OUTPUTS = [["psi", "--order", "12"], ["kappa", "--order", "12", "--format", "json"]]

    @pytest.mark.parametrize("argv", OUTPUTS, ids=["psi", "kappa-json"])
    def test_stdout_to_a_file(self, argv, tmp_path, capsys):
        code, out = run(capsys, *argv)
        path = tmp_path / "stdout"
        with open(path, "wb") as fh:
            proc = _fresh("-m", "krichever.cli", *argv, stdout=fh)
        assert proc.returncode == code == 0
        assert proc.stderr == b""
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("argv", OUTPUTS, ids=["psi", "kappa-json"])
    def test_out_file(self, argv, tmp_path, capsys):
        code, out = run(capsys, *argv)
        path = tmp_path / "out"
        proc = _fresh("-m", "krichever.cli", *argv, "--out", str(path))
        assert proc.returncode == code == 0
        assert proc.stdout == proc.stderr == b""
        assert path.read_bytes() == out.encode("utf-8")

    def test_out_file_with_stdout_closed(self, tmp_path, capsys):
        # a process started with descriptor 1 closed has sys.stdout None
        code, out = run(capsys, "psi", "--order", "3")
        path = tmp_path / "out"
        proc = _fresh(
            "-m", "krichever.cli", "psi", "--order", "3", "--out", str(path),
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == code == 0
        assert proc.stderr == b""
        assert path.read_bytes() == out.encode("utf-8")

    def test_atexit_runs_only_after_a_usage_error(self, capsys):
        _, out = run(capsys, "psi", "--order", "3")
        proc = _fresh("-c", ATEXIT_MAIN, "psi", "--order", "3")
        assert proc.returncode == 0
        assert proc.stdout == out.encode("utf-8")
        assert proc.stderr == b""
        proc = _fresh("-c", ATEXIT_MAIN, "psi", "--order", "0")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"krichever: error: --order must be >= 1\natexit ran\n"

    def test_flush_to_a_closed_pipe(self):
        # the report fits the buffer, so the flush is what fails
        proc = _fresh("-c", BROKEN_PIPE_MAIN, "verify", "--suite", "lemma1", "--order", "2")
        assert proc.returncode == 2
        assert proc.stderr == unwritable_stdout(errno.EPIPE)

    def test_write_to_a_closed_pipe(self):
        # the report spans the buffer, so the write itself fails
        proc = _fresh("-c", BROKEN_PIPE_MAIN, *self.OUTPUTS[1])
        assert proc.returncode == 2
        assert proc.stderr == unwritable_stdout(errno.EPIPE)

    @pytest.mark.parametrize("argv", [OUTPUTS[0], ["--help"]], ids=["psi", "help"])
    def test_stdout_closed(self, argv):
        # a process started with descriptor 1 closed has sys.stdout None
        proc = _fresh("-m", "krichever.cli", *argv, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 2
        assert proc.stderr == unwritable_stdout(errno.EBADF)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "wb") as full:
            proc = _fresh("-m", "krichever.cli", *self.OUTPUTS[0], stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == unwritable_stdout(errno.ENOSPC)


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, out1 = run(capsys, "verify", "--order", "4", "--format", "json")
        _, out2 = run(capsys, "verify", "--order", "4", "--format", "json")
        assert out1 == out2

    def test_parallel_runs_identical(self):
        # reports must not depend on scheduling
        from concurrent.futures import ThreadPoolExecutor

        from krichever import genus

        def job():
            return json.dumps(genus.verify_krichever_ode(5).to_json())

        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(lambda _: job(), range(4)))
        assert len(set(outs)) == 1


class TestOutFile:
    def test_out_writes_lf_utf8(self, tmp_path, capsys):
        path = tmp_path / "psi.txt"
        code = cli.run(["psi", "--order", "2", "--out", str(path)])
        assert code == 0
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data
        assert data.decode("utf-8").strip().splitlines()[0] == "psi(CP_1) = -1/2*p1"

    @pytest.mark.parametrize("target", [("missing", "x"), ()])
    def test_unwritable_out_exits_two(self, target, tmp_path, capsys):
        path = tmp_path.joinpath(*target)
        with pytest.raises(SystemExit) as exc:
            cli.run(["psi", "--order", "2", "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("krichever: error: ")
        assert captured.err.count("\n") == 1


class TestReproducePaper:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "reproduce-paper", "--order", "4", "--max-weight", "5")
        assert code == 0
        assert out.strip().endswith("overall: PASS")
        assert "[PASS] quotient weight 5: Indec = Z/5 (expected Z/5)" in out

    def test_wrong_indecomposables_fail(self, capsys, monkeypatch):
        real = lattice.LazardModel.quotient_report

        def trivial_indec_5(self, n):
            rep = real(self, n)
            return rep._replace(Indec=lattice.InvariantFactors((), 0)) if n == 5 else rep

        monkeypatch.setattr(lattice.LazardModel, "quotient_report", trivial_indec_5)
        code, out = run(capsys, "reproduce-paper", "--max-weight", "5", "--order", "2")
        assert code == 1
        assert "[FAIL] quotient weight 5: Indec = 0 (expected Z/5)" in out
        assert out.strip().endswith("overall: FAIL")


class TestFailurePath:
    @pytest.fixture(autouse=True)
    def perturbed_phi_kh(self, monkeypatch):
        real = genus.phi_kh_table
        q1 = Poly.var(q_vars(), "q1")
        monkeypatch.setattr(genus, "phi_kh_table", lambda n: perturbed_table(real(n), 1, q1))

    def test_text_report(self, capsys):
        code, out = run(capsys, "verify", "--suite", "krichever-ode", "--order", "4")
        assert code == 1
        assert out == (
            "[FAIL] krichever-ode (order 4)\n"
            "    first failure at x^1:\n"
            "      lhs = 3*q1\n"
            "      rhs = q1\n"
        )

    def test_json_report(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "krichever-ode", "--order", "4", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["reports"] == [
            {
                "suite": "krichever-ode",
                "order": 4,
                "pass": False,
                "first_failure": {"monomial": "x^1", "lhs": "3*q1", "rhs": "q1"},
            }
        ]

    def test_process_writes_the_report(self, capsys):
        argv = ["verify", "--suite", "krichever-ode", "--order", "4"]
        code, out = run(capsys, *argv)
        proc = _fresh(
            "-c", PERTURBED_PHI_KH_MAIN, *argv, cwd=os.path.dirname(os.path.abspath(__file__))
        )
        assert proc.returncode == code == 1
        assert proc.stdout == out.encode("utf-8")
        assert out.startswith("[FAIL] krichever-ode (order 4)\n")

    def test_reproduce_paper_fails(self, capsys):
        code, out = run(capsys, "reproduce-paper", "--order", "4", "--max-weight", "2")
        assert code == 1
        lines = out.strip().splitlines()
        assert "[FAIL] krichever-ode (order 4)" in lines
        assert "[FAIL] lemma2-quartic (order 4)" in lines
        assert lines[-1] == "overall: FAIL"
