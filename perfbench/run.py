"""Benchmark of the krichever CLI, end to end and per layer.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

``--trace 0`` is a closed loop with one client: it repeats the workload's
invocations, each in a fresh Python process and one at a time, until another
repetition would run past ``--seconds`` (at least two repetitions), and
reports medians over the repetitions, scaled to reference seconds by the
host's measured speed (``calibrate.py``, ``spawner.py``).  ``--trace 1``
instead runs the workload once untraced and once traced inside this process
and reports the per-layer metrics; ``--seconds`` does not apply to it.

Every invocation's output is checked.  The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``; each workload's
full record (environment, repetitions, per-invocation sha256) is a JSON line
before it, followed by a readable summary.
The program is taken from ``src/`` next to this directory; nothing is
installed or built.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_SAMPLES = 9
# A median of one repetition is a single sample; paper's repetition alone is
# about half of a 40 s run.
MIN_REPS = 2


def child_env():
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Spawner:
    """Runs ``python <args>`` children one at a time through ``spawner.py``."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            # also ends a child that is still running
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, args):
        """The child's exit code, stdout, stderr, times (raw and scaled) and peak RSS."""
        OUT.mkdir(exist_ok=True)
        out, err = OUT / "child.out", OUT / "child.err"
        self.proc.stdin.write(json.dumps([str(out), str(err), sys.executable, *args]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the spawner process died")
        c = json.loads(line)
        c["stdout"] = out.read_bytes()
        c["stderr"] = err.read_text("utf-8", "replace")
        return c


def _call_record(inv, code, stdout, stderr):
    error = inv.check(code, stdout.decode("utf-8", "replace"))
    if error and stderr.strip():
        error += "; stderr: " + stderr.strip().splitlines()[-1]
    return {
        "argv": inv.label,
        "exit": code,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "error": error,
    }


def measure(name, seed, seconds):
    """Untraced closed loop; returns (metrics, invocation records, extra)."""
    with Spawner() as spawner:
        start = time.perf_counter()
        setup = []
        for _ in range(SETUP_SAMPLES):
            c = spawner.run(["-c", "import krichever.cli"])
            if c["exit"] != 0:
                raise SystemExit(f"perfbench: importing krichever.cli failed:\n{c['stderr']}")
            setup.append(c)
        rng = random.Random(seed)
        reps, calls = [], []
        while True:
            order = list(WORKLOADS[name])
            rng.shuffle(order)
            rep = dict.fromkeys(("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s"), 0.0)
            rep_start = time.perf_counter()
            for inv in order:
                c = spawner.run(["-m", "krichever.cli", *inv.argv])
                rec = _call_record(inv, c["exit"], c["stdout"], c["stderr"])
                rec.update((m, c[m]) for m in (*rep, "calibration_s"))
                calls.append(rec)
                for m in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"):
                    rep[m] += c[m]
                rep["peak_rss_mb"] = max(rep["peak_rss_mb"], c["peak_rss_mb"])
            reps.append(rep)
            now = time.perf_counter()
            if len(reps) >= MIN_REPS and now - start + (now - rep_start) > seconds:
                break
    metrics = {m: statistics.median(r[m] for r in reps)
               for m in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(c["wall_s"] for c in setup)
    raw = {m: statistics.median(r["raw_" + m] for r in reps) for m in ("wall_s", "cpu_s")}
    raw["setup_s"] = statistics.median(c["raw_wall_s"] for c in setup)
    return metrics, calls, {"raw": raw, "reps": reps,
                            "setup_samples_s": [c["wall_s"] for c in setup]}


def _in_process(order, calls):
    """Run each invocation through ``krichever.cli.run``; total seconds."""
    from krichever import cli

    total = 0.0
    for inv in order:
        buf = io.StringIO()
        tb = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(list(inv.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            code, tb = None, traceback.format_exc()
        total += time.perf_counter() - t0
        calls.append(_call_record(inv, code, buf.getvalue().encode("utf-8"), tb))
    return total


def trace(name, seed):
    """One untraced and one traced in-process pass; per-layer metrics."""
    order = list(WORKLOADS[name])
    random.Random(seed).shuffle(order)
    calls = []
    cal = calibrate.Calibration()
    cal.checkpoint()
    untraced_s = _in_process(order, calls)
    k_untraced, _ = cal.checkpoint()
    with layers.Tracer() as tracer:
        _in_process(order, calls)
    k_traced, _ = cal.checkpoint()
    # in reference seconds, like the end-to-end wall_s they are checked against
    metrics = {m: v * k_traced if layers.unit(m) == "s" else v
               for m, v in tracer.metrics().items()}
    metrics["trace.overhead_s"] = metrics["cli.run.busy_s"] - untraced_s * k_untraced
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    return metrics, calls, {"raw_untraced_s": untraced_s, "calibration_s": cal.points,
                            "spans_file": str(spans.relative_to(ROOT))}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_workload(name, seed, seconds, traced):
    """(record, result) for one workload."""
    import krichever

    if traced:
        metrics, calls, extra = trace(name, seed)
    else:
        metrics, calls, extra = measure(name, seed, seconds)
    failed = sum(1 for c in calls if c["error"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "python": platform.python_version(),
        "backend": krichever.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "fail_ratio": failed / len(calls),
        **extra,
        "invocations": calls,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {
            m: {"value": v, "unit": END_TO_END[m] if m in END_TO_END else layers.unit(m)}
            for m, v in metrics.items()
        },
    }
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "krichever" / "cli.py").is_file():
        sys.exit(f"perfbench: no {SRC / 'krichever'}; run it from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    # so that Spawner.__exit__ also ends the spawner and its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, raw = {}, {}
    for name in names:
        record, result = run_workload(name, args.seed, args.seconds, args.trace == 1)
        print(json.dumps(record), flush=True)
        results[name], raw[name] = result, record.get("raw", {})
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<9} {metric:<38} {mv['value']:>14.6g} {mv['unit']}")
        for metric, v in raw[name].items():
            print(f"{name:<9} {metric + ' (unscaled)':<38} {v:>14.6g} s")
        print(f"{name:<9} {'fail_ratio':<38} {res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']}/{res['attempted']})")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": mv
                        for n, r in results.items() for m, mv in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
