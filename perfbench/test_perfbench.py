"""Tests of the benchmark itself: output checks, wrappers, repeatable counts.

    python3 -m pytest -q perfbench

The workload-level tests trace the three full workloads in-process and take
about a minute.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spawner as spawner_module  # noqa: E402
import workloads  # noqa: E402
from workloads import INDEC, PARTITIONS, WORKLOADS  # noqa: E402


def test_benchmark_json_lists_what_run_emits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (m, layers.unit(m)) for m in layers.PER_LAYER
    ]


def _paper_text(indec=INDEC, status="PASS", overall="PASS"):
    lines = [f"[{status}] psi table (printed values)"]
    lines += [f"[PASS] quotient weight {n}: Indec = {g}" for n, g in enumerate(indec, 1)]
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


def _quotient_json(ranks=PARTITIONS, indec=INDEC):
    def group(desc):
        if desc == "0":
            return {"free": 0, "torsion": []}
        if desc == "Z":
            return {"free": 1, "torsion": []}
        return {"free": 0, "torsion": [int(desc[2:])]}

    weights = [
        {"n": n, "rank_L": r, "Indec": group(g)}
        for n, (r, g) in enumerate(zip(ranks, indec), 1)
    ]
    return json.dumps({"max_weight": len(weights), "weights": weights})


def _replace(seq, i, value):
    seq = list(seq)
    seq[i] = value
    return seq


def test_paper_check_reads_pass_lines_and_indec():
    check = workloads.paper_check(13)
    assert check(0, _paper_text()) is None
    assert check(1, _paper_text())
    assert check(0, _paper_text(status="FAIL"))
    assert check(0, _paper_text(overall="FAIL"))
    assert check(0, _paper_text(_replace(INDEC, 4, "0")))
    assert check(0, _paper_text(INDEC[:12]))


def test_quotient_check_reads_ranks_and_indec():
    check = workloads.quotient_check(13)
    assert check(0, _quotient_json()) is None
    assert check(0, _quotient_json(ranks=_replace(PARTITIONS, 12, 100)))
    assert check(0, _quotient_json(indec=_replace(INDEC, 12, "Z/26")))
    assert check(0, "not json")
    assert check(2, _quotient_json())


def test_suite_check_wants_one_pass_line():
    check = workloads.suite_check("lemma1", 12)
    assert check(0, "[PASS] lemma1 (order 12)\n") is None
    assert check(1, "[PASS] lemma1 (order 12)\n")
    assert check(0, "[FAIL] lemma1 (order 12)\n")
    assert check(0, "[PASS] lemma1 (order 10)\n")


def _trace(invocations):
    calls = []
    with layers.Tracer() as tracer:
        run._in_process(invocations, calls)
    assert [c["error"] for c in calls] == [None] * len(invocations)
    return tracer


def test_wrappers_rebind_the_names_callers_look_up():
    from krichever import backend, cli, core, fgl, genus, lattice

    build, compute_a, compose1 = fgl.build_universal_fgl, fgl.compute_A, core.compose1
    hnf_cols, mul = backend.kernels.hnf_cols, core.Series1.mul
    with layers.Tracer():
        assert lattice.build_universal_fgl.__wrapped__ is build
        assert lattice.compute_A.__wrapped__ is compute_a
        assert fgl.compose1.__wrapped__ is compose1
        assert genus.compose1.__wrapped__ is compose1
        assert core.kernels.hnf_cols.__wrapped__ is hnf_cols
        assert lattice.kernels.hnf_cols.__wrapped__ is hnf_cols
        assert core.Series1.__mul__ is core.Series1.mul
        assert core.Series1.mul.__wrapped__ is mul
        assert cli.TABLES["phi-kh"].__wrapped__ is genus.phi_kh_table.__wrapped__
        assert lattice.InvariantFactors.from_presentation.__wrapped__
    assert lattice.build_universal_fgl is build
    assert genus.compose1 is compose1
    assert backend.kernels.hnf_cols is hnf_cols
    assert core.Series1.__mul__ is mul


def test_small_configuration_counts_repeat():
    small = workloads.quotient(9) + workloads.genus(6, suites=("lemma1",))
    first, second = _trace(small).metrics(), _trace(small).metrics()
    counts = [m for m in layers.PER_LAYER if layers.unit(m) != "s" and m in first]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["kernels.hnf.calls"] > 0
    assert first["fgl.build_universal_fgl.calls"] == 1


@pytest.fixture(scope="module")
def traced():
    return {name: _trace(invs).stats() for name, invs in WORKLOADS.items()}


def _calls(stats, name):
    return stats.get(name, {}).get("calls", 0)


def test_every_wrapper_fires_on_paper(traced):
    stats = traced["paper"]
    for name, _, _ in layers.targets():
        assert _calls(stats, name) > 0, name
    assert _calls(stats, "fgl.build_universal_fgl") == 2
    assert _calls(stats, "genus.phi_kh_table") == 2
    assert _calls(stats, "genus.kappa_inverse_table") == 2


def test_quotient_uses_hnf_and_no_genus(traced):
    stats = traced["quotient"]
    assert _calls(stats, "kernels.hnf") > 0
    assert _calls(stats, "fgl.build_universal_fgl") == 1
    assert not [name for name in stats if name.startswith("genus.")]


def test_genus_uses_no_lattice_and_no_b_model(traced):
    stats = traced["genus"]
    assert _calls(stats, "kernels.hnf") == 0
    assert _calls(stats, "fgl.build_universal_fgl") == 0
    assert not [name for name in stats if name.startswith("lattice.")]
    assert _calls(stats, "kernels.poly_mul") > 0


def test_untraced_run_counts_failed_checks_and_records_environment(monkeypatch):
    quotient4 = workloads.quotient(4)[0]
    wrong = workloads.Invocation(quotient4.argv, workloads.quotient_check(5))
    monkeypatch.setitem(run.WORKLOADS, "tiny", [quotient4, wrong])
    record, result = run.run_workload("tiny", 1, 0, traced=False)
    n = run.MIN_REPS
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2 * n, n)
    assert record["fail_ratio"] == 0.5
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert {"python", "backend", "nproc", "seed", "commit"} <= set(record)
    errors = [c["error"] for c in record["invocations"]]
    assert errors.count(None) == n and all(e for e in errors if e is not None)
    # the same bytes every time, judged by two different checks
    assert len({c["sha256"] for c in record["invocations"]}) == 1
    rep_walls = sorted(r["wall_s"] for r in record["reps"])
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(rep_walls))
    assert sum(rep_walls) == pytest.approx(sum(c["wall_s"] for c in record["invocations"]))


def test_calibration_scales_by_the_mean_of_two_points(monkeypatch):
    times = iter([(0.02, 0.02)] * calibrate.SAMPLES + [(0.06, 0.02)] * calibrate.SAMPLES)
    monkeypatch.setattr(calibrate, "loop", lambda: next(times))
    cal = calibrate.Calibration()
    assert cal.checkpoint() is None
    k_wall, k_cpu = cal.checkpoint()
    assert k_wall == pytest.approx((calibrate.REF_S / 0.04) ** calibrate.ALPHA)
    assert k_cpu == pytest.approx((calibrate.REF_S / 0.02) ** calibrate.ALPHA)


def test_spawner_stops_a_long_child_for_calibration_points():
    busy = "import time\nwhile time.process_time() < 2.5: pass\nprint('done')"
    with run.Spawner() as spawner:
        c = spawner.run(["-c", busy])
    assert (c["exit"], c["stdout"]) == (0, b"done\n")
    # the point before the child, one per PERIOD_S of running, one at its end
    assert len(c["calibration_s"]) >= 2 + int(2.5 / spawner_module.PERIOD_S)
    assert c["raw_wall_s"] >= 2.5 and c["raw_cpu_s"] >= 2.5
    assert c["wall_s"] > 0 and c["cpu_s"] > 0


def test_peak_rss_is_each_childs_own():
    ballast = bytearray(100 * 2**20)  # this process's size must not show in a child's
    ballast[::4096] = b"x" * len(ballast[::4096])
    touch = "b = bytearray(60 * 2**20); b[::4096] = b'x' * len(b[::4096])"
    with run.Spawner() as spawner:
        big = spawner.run(["-c", touch])
        small = spawner.run(["-c", "pass"])
    assert 60 < big["peak_rss_mb"] < 100
    assert small["peak_rss_mb"] < 40


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"]
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert r.returncode != 0
    assert r.stdout == ""
