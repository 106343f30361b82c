"""Command-line front end.

Subcommands cover every table and verification suite plus a
``reproduce-paper`` driver that runs the whole acceptance battery.  Output
is deterministic byte-for-byte for a fixed configuration: exit 0 on
success/pass, 1 on a verification failure, 2 on usage errors.

Every subcommand loads ``core``, ``report`` and ``genus``, which ``TABLES``
and the ``--order`` default need, so ``quotient`` loads ``genus`` and runs
none of it.  The FGL suites of ``verify`` add ``fgl``; ``quotient`` and
``reproduce-paper`` add ``fgl`` and ``lattice``, which load no ``genus`` on
their own.  ``json`` is imported only for ``--format json``.  A small genus
suite costs about as much as starting the interpreter, so an import it does
not need is time it does not spend.
"""

from __future__ import annotations

import argparse
import sys

from . import genus


def _usage_error(message):
    """One line on stderr and exit code 2, without argparse's usage block."""
    sys.stderr.write(f"krichever: error: {message}\n")
    sys.exit(2)


def _emit(text, out):
    data = text if text.endswith("\n") else text + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(data)
        except OSError as exc:
            _usage_error(f"cannot write {out}: {exc.strerror}")
    else:
        sys.stdout.write(data)


def _json_dumps(obj):
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


def _table_output(table, args):
    if args.format == "json":
        payload = {
            "table": table.name,
            "order": table.max_index,
            "format": "json",
            "values": table.to_json(),
            "vars": [[n, w] for n, w in zip(table.vars.names, table.vars.weights)],
        }
        return _json_dumps(payload)
    return table.text()


def _report_output(reports, args, params):
    if args.format == "json":
        payload = dict(params)
        payload["reports"] = [r.to_json() for r in reports]
        payload["pass"] = all(r.passed for r in reports)
        return _json_dumps(payload)
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.suite} (order {r.order})")
        if r.first_failure:
            lines.append(f"    first failure at {r.first_failure['monomial']}:")
            lines.append(f"      lhs = {r.first_failure['lhs']}")
            lines.append(f"      rhs = {r.first_failure['rhs']}")
    return "\n".join(lines)


# Verification suites in report order.  A genus suite takes the series order;
# the FGL suites take one universal law built at that weight and shared.  An
# FGL suite is the name of its function, looked up on ``fgl`` when it runs, so
# that a process running only genus suites never imports ``fgl``.
GENUS_SUITES = {
    "krichever-ode": genus.verify_krichever_ode,
    "lemma1": genus.verify_lemma1,
    "lemma2-theorem1": genus.verify_lemma2_theorem1,
}
FGL_SUITES = {
    "proposition-i": "verify_proposition_i",
    "proposition-ii": "verify_proposition_ii",
    "krichever-form": "verify_krichever_form",
    "associativity": "verify_associativity",
}
VERIFY_SUITES = (*GENUS_SUITES, *FGL_SUITES, "all")


def _run_verify_suite(suite, order):
    def wanted(suites):
        return [verify for name, verify in suites.items() if suite in (name, "all")]

    reports = [verify(order) for verify in wanted(GENUS_SUITES)]
    fgl_suites = wanted(FGL_SUITES)
    if fgl_suites:
        from . import fgl

        data = fgl.compute_A(fgl.build_universal_fgl(order))
        reports += [getattr(fgl, verify)(data) for verify in fgl_suites]
    return reports


def _quotient_output(max_weight, args):
    from . import lattice

    model = lattice.LazardModel(max_weight)
    reports = [model.quotient_report(n) for n in range(1, max_weight + 1)]
    if args.format == "json":
        return _json_dumps(
            {"max_weight": max_weight, "format": "json", "weights": reports}
        )
    lines = []
    for rep in reports:
        q = lattice.InvariantFactors.from_json(rep["Q"])
        ind = lattice.InvariantFactors.from_json(rep["Indec"])
        lines.append(
            f"n={rep['n']:>2}  rank L={rep['rank_L']:>3}  rank I={rep['rank_I']:>3}  "
            f"Q = {q.describe():<24} Indec = {ind.describe()}"
        )
    return "\n".join(lines)


def golden_table(name):
    """Golden text for the printed psi/kappa tables shipped with the package."""
    from importlib import resources

    return (
        resources.files("krichever.data").joinpath(f"{name}_table.txt").read_text()
    ).strip()


# Indec_n as (torsion, free rank) for n = 1..WEIGHT_CEILING: Z up to weight 4,
# then the torsion left by the relations A_ij = 0 (trivial at n = 10, 12 and 15).
EXPECTED_INDEC = {
    1: ((), 1),
    2: ((), 1),
    3: ((), 1),
    4: ((), 1),
    5: ((5,), 0),
    6: ((2,), 0),
    7: ((7,), 0),
    8: ((2,), 0),
    9: ((3,), 0),
    10: ((), 0),
    11: ((11,), 0),
    12: ((), 0),
    13: ((13,), 0),
    14: ((2,), 0),
    15: ((), 0),
    16: ((2,), 0),
}


def _reproduce_paper(args):
    """Tables against golden files, every identity suite, quotient reports."""
    from . import lattice

    lines = []
    ok = True

    for name, table in (("psi", genus.psi_table), ("kappa", genus.kappa_table)):
        match = table(4).text() == golden_table(name)
        ok &= match
        lines.append(f"[{'PASS' if match else 'FAIL'}] {name} table (printed values)")

    for rep in _run_verify_suite("all", args.order):
        ok &= rep.passed
        lines.append(f"[{'PASS' if rep.passed else 'FAIL'}] {rep.suite} (order {rep.order})")

    model = lattice.LazardModel(args.max_weight)
    for n in range(1, args.max_weight + 1):
        rep = model.quotient_report(n)
        ind = lattice.InvariantFactors.from_json(rep["Indec"])
        expected = lattice.InvariantFactors(*EXPECTED_INDEC[n])
        good = ind == expected
        ok &= good
        lines.append(
            f"[{'PASS' if good else 'FAIL'}] quotient weight {n}: "
            f"Indec = {ind.describe()} (expected {expected.describe()})"
        )

    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), ok


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line, as ``_usage_error``
    prints them; its subparsers are of the same class."""

    def error(self, message):
        _usage_error(message)


def build_parser():
    parser = _Parser(
        prog="krichever",
        description="Exact computations with elliptic genera and the universal formal group law",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=genus.DEFAULT_ORDER, metavar="N")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    for name in ("psi", "kappa", "kappa-inv", "phi-kh"):
        common(sub.add_parser(name, help=f"print the {name} genus table"))

    pv = sub.add_parser("verify", help="run identity verification suites")
    common(pv)
    pv.add_argument("--suite", choices=VERIFY_SUITES, default="all")

    pq = sub.add_parser("quotient", help="graded quotient of the coefficient ring")
    pq.add_argument("--max-weight", type=int, metavar="W")
    pq.add_argument("--format", choices=("text", "json"), default="text")
    pq.add_argument("--out", metavar="PATH", default=None)

    pr = sub.add_parser("reproduce-paper", help="run the full acceptance battery")
    pr.add_argument("--order", type=int, default=genus.DEFAULT_ORDER, metavar="N")
    pr.add_argument("--max-weight", type=int, metavar="W")
    pr.add_argument("--out", metavar="PATH", default=None)

    return parser


TABLES = {
    "psi": genus.psi_table,
    "kappa": genus.kappa_table,
    "kappa-inv": genus.kappa_inverse_table,
    "phi-kh": genus.phi_kh_table,
}


def _check_order(order, least):
    if order < least:
        _usage_error(f"--order must be >= {least}")
    if order > genus.ORDER_CEILING:
        _usage_error(f"--order must be <= {genus.ORDER_CEILING}")


def _check_max_weight(max_weight):
    """``--max-weight`` with the lattice default filled in, or exit 2 out of range."""
    from . import lattice

    if max_weight is None:
        max_weight = lattice.DEFAULT_MAX_WEIGHT
    if not 1 <= max_weight <= lattice.WEIGHT_CEILING:
        _usage_error(f"--max-weight must be between 1 and {lattice.WEIGHT_CEILING}")
    return max_weight


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in TABLES:
        _check_order(args.order, 1)
        table = TABLES[args.command](args.order)
        _emit(_table_output(table, args), args.out)
        return 0

    if args.command == "verify":
        _check_order(args.order, 2)
        reports = _run_verify_suite(args.suite, args.order)
        _emit(
            _report_output(reports, args, {"suite": args.suite, "order": args.order}),
            args.out,
        )
        return 0 if all(r.passed for r in reports) else 1

    if args.command == "quotient":
        args.max_weight = _check_max_weight(args.max_weight)
        _emit(_quotient_output(args.max_weight, args), args.out)
        return 0

    if args.command == "reproduce-paper":
        args.max_weight = _check_max_weight(args.max_weight)
        _check_order(args.order, 2)
        text, ok = _reproduce_paper(args)
        _emit(text, args.out)
        return 0 if ok else 1

    parser.error(f"unknown command {args.command}")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
