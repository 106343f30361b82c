"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed sequence of ``krichever`` CLI invocations.  Its inputs
are exact and fixed; the seed only shuffles the order of the invocations
inside each repetition.  Every check reads the meaning of an output (exit
code, PASS lines, group structure), never its bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Optional

# p(n) for n = 1..13: rank of the weight-n piece L_n.
PARTITIONS = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101)

# Indecomposable quotient Indec_n for n = 1..13, as the CLI describes it.
INDEC = ("Z", "Z", "Z", "Z", "Z/5", "Z/2", "Z/7", "Z/2", "Z/3", "0", "Z/11", "0", "Z/13")

GENUS_SUITES = ("krichever-ode", "lemma1", "lemma2-theorem1")

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check of its (exit code, stdout)."""

    argv: tuple
    check: Check

    @property
    def label(self):
        return " ".join(self.argv)


def _describe(group):
    parts = ["Z"] * group["free"] + [f"Z/{d}" for d in group["torsion"]]
    return " + ".join(parts) if parts else "0"


def paper_check(max_weight):
    """Every line PASS, last line ``overall: PASS``, Indec_n as expected."""

    def check(code, out):
        lines = out.splitlines()
        if code != 0:
            return f"exit code {code}"
        if not lines or lines[-1] != "overall: PASS":
            return "last line is not 'overall: PASS'"
        bad = [line for line in lines[:-1] if not line.startswith("[PASS] ")]
        if bad:
            return f"not a PASS line: {bad[0]!r}"
        indec = {}
        for line in lines:
            m = re.match(r"\[PASS\] quotient weight (\d+): Indec = (\S+)", line)
            if m:
                indec[int(m.group(1))] = m.group(2)
        got = [indec.get(n) for n in range(1, max_weight + 1)]
        if got != list(INDEC[:max_weight]) or len(indec) != max_weight:
            return f"Indec sequence {got}"
        return None

    return check


def quotient_check(max_weight):
    """JSON with rank_L = p(n) and the expected Indec_n for n = 1..W."""

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        try:
            weights = json.loads(out)["weights"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable JSON: {exc}"
        if [w.get("n") for w in weights] != list(range(1, max_weight + 1)):
            return "weights are not n = 1..W"
        ranks = [w["rank_L"] for w in weights]
        if ranks != list(PARTITIONS[:max_weight]):
            return f"rank_L sequence {ranks}"
        indec = [_describe(w["Indec"]) for w in weights]
        if indec != list(INDEC[:max_weight]):
            return f"Indec sequence {indec}"
        return None

    return check


def suite_check(suite, order):
    """Exit code 0 and exactly the one PASS line of the suite."""
    want = f"[PASS] {suite} (order {order})"

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        if out.splitlines() != [want]:
            return f"expected {want!r}, got {out.strip()[:200]!r}"
        return None

    return check


def paper(max_weight=13, order=10):
    argv = ("reproduce-paper", "--max-weight", str(max_weight), "--order", str(order))
    return [Invocation(argv, paper_check(max_weight))]


def quotient(max_weight=13):
    argv = ("quotient", "--max-weight", str(max_weight), "--format", "json")
    return [Invocation(argv, quotient_check(max_weight))]


def genus(order=12, suites=GENUS_SUITES):
    return [
        Invocation(("verify", "--suite", s, "--order", str(order)), suite_check(s, order))
        for s in suites
    ]


WORKLOADS = {
    "paper": paper(),
    "quotient": quotient(),
    "genus": genus(),
}
