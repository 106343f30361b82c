import hashlib
import json

import pytest

from krichever import cli, genus, lattice
from krichever.core import Poly, VarTable


MAX_WEIGHT_MESSAGE = f"--max-weight must be between 1 and {lattice.WEIGHT_CEILING}"


def run(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


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
            poly = Poly.from_json(terms, vars)
            assert Poly.parse(poly.text(), vars) == poly

    def test_kappa_inv_runs(self, capsys):
        code, out = run(capsys, "kappa-inv", "--order", "3")
        assert code == 0
        assert "kappa_inv(CP_3)" in out


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "krichever-ode", "--order", "5")
        assert code == 0
        assert "[PASS] krichever-ode" in out

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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            ["psi", "--order", "0"],
            ["verify", "--suite", "nope"],
            ["quotient", "--max-weight", "99"],
            ["psi", "--frobnicate"],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reproduce-paper", "--order", "1"], "--order must be >= 2"),
            (["reproduce-paper", "--order", "0"], "--order must be >= 2"),
            (["reproduce-paper", "--order", "-3"], "--order must be >= 2"),
            (["verify", "--order", "1"], "--order must be >= 2"),
            (["psi", "--order", "0"], "--order must be >= 1"),
            (["quotient", "--max-weight", "0"], MAX_WEIGHT_MESSAGE),
        ]
        + [
            (
                [command, "--order", str(genus.ORDER_CEILING + 1)],
                f"--order must be <= {genus.ORDER_CEILING}",
            )
            for command in (*cli.TABLES, "verify", "reproduce-paper")
        ]
        + [(["quotient", "--max-weight", str(lattice.WEIGHT_CEILING + 1)], MAX_WEIGHT_MESSAGE)],
    )
    def test_out_of_range_is_one_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"krichever: error: {message}\n"

    def test_order_ceiling_is_accepted(self, capsys):
        code, out = run(capsys, "psi", "--order", str(genus.ORDER_CEILING))
        assert code == 0
        assert f"psi(CP_{genus.ORDER_CEILING}) = " in out


class TestGoldenDigests:
    # sha256 of stdout as computed with kappa^{-1} from a dense Gauss-Jordan
    # solve and Horner-rule series composition (the oracles in test_genus and
    # test_core), and the quotient with a Smith elimination of its own that
    # cleared rows and columns pivot by pivot: a series or kernel change must
    # leave these bytes alone.  The quotient pin covers the printed torsion of
    # Q_n (Z/2 at n = 6, 8 and (Z/2)^2 at n = 10).
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["kappa-inv", "--order", "10", "--format", "json"],
                "556e271261af8294ca026e09690992e6425ba51b725997681557488caa0ee6d7",
            ),
            (
                ["phi-kh", "--order", "10", "--format", "json"],
                "6c315c0706a6b27c4d41740c8663ba26c3f8c428fa307f581dad56ac685ee3fb",
            ),
            (
                ["verify", "--suite", "all", "--order", "8", "--format", "json"],
                "e6f8873b6ba7533839f4790c9e97a36f7cc7e37e38f78a7e54abe3e2b2f970cf",
            ),
            (
                ["quotient", "--max-weight", "11", "--format", "json"],
                "8d35de9cd20dab50ffd29670a8ff14c6b2f89653d68ea1acea31e8f90a113d86",
            ),
        ],
    )
    def test_stdout_digest(self, argv, digest, capsys):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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
            if n == 5:
                rep["Indec"] = {"free": 0, "torsion": []}
            return rep

        monkeypatch.setattr(lattice.LazardModel, "quotient_report", trivial_indec_5)
        code, out = run(capsys, "reproduce-paper", "--max-weight", "5", "--order", "2")
        assert code == 1
        assert "[FAIL] quotient weight 5: Indec = 0 (expected Z/5)" in out
        assert out.strip().endswith("overall: FAIL")


class TestFailurePath:
    @pytest.fixture(autouse=True)
    def perturbed_phi_kh(self, monkeypatch):
        real = genus.phi_kh_table

        def perturbed(n):
            table = real(n)
            entries = dict(table.entries)
            entries[1] = entries[1] + Poly.var(table.vars, "q1")
            return genus.GenusTable(table.name, table.max_index, table.vars, entries)

        monkeypatch.setattr(genus, "phi_kh_table", perturbed)

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

    def test_reproduce_paper_fails(self, capsys):
        code, out = run(capsys, "reproduce-paper", "--order", "4", "--max-weight", "2")
        assert code == 1
        lines = out.strip().splitlines()
        assert "[FAIL] krichever-ode (order 4)" in lines
        assert "[FAIL] lemma2-quartic (order 4)" in lines
        assert lines[-1] == "overall: FAIL"
