"""Command-line front end.

Subcommands cover every table and verification suite plus a
``reproduce-paper`` driver that runs the whole acceptance battery.  Output
is deterministic byte-for-byte for a fixed configuration: exit 0 on
success/pass, 1 on a verification failure, 2 on usage errors.

``COMMANDS`` is the one table of subcommands and their flags.
``_parse_args`` reads a command line against it as the standard library's
argument parser of Python 3.11 (the standard parser, below) did, with the
same error messages: a flag's value follows it or an ``=``, a unique prefix
names a flag, the last of a repeated flag wins, and a negative number is a
value.  ``-h`` or ``--help`` prints one usage text.

Every subcommand loads ``core``, ``report`` and ``genus``, which ``TABLES``
and the ``--order`` default need, so ``quotient`` loads ``genus`` and runs
none of it.  The FGL suites of ``verify`` add ``fgl`` and build one law;
only ``proposition-ii`` and ``krichever-form`` read the bilinear series
``A``, so it is built only when one of them runs.  ``quotient`` and
``reproduce-paper`` add ``fgl`` and ``lattice``, which load no ``genus`` on
their own.  ``json`` is imported only for ``--format json``.  A small genus
suite costs about as much as starting the interpreter, so an import it does
not need is time it does not spend: a genus-suite process imports only
``krichever`` modules and ``gc``.

``main`` runs ``run`` with the cyclic garbage collector off and, once it
returns an exit code, flushes stderr and ends the process with
``os._exit``: the interpreter's teardown, one full collection and then the
clearing of every loaded module, is time a finished process does not need.
``_emit`` flushes stdout, and an ``--out`` file is closed, before ``run``
returns.  A run that raises (a usage error exits 2 through ``sys.exit``)
leaves through the normal exit, so the interpreter reports it as it always
has.  A stdout that cannot be written (a pipe whose reader has gone, a
closed descriptor, a full device) is a usage error like an unwritable
``--out``.  ``atexit`` handlers do not run after a successful ``main``.
"""

import gc
import os
import sys

from . import genus


def _usage_error(message):
    """One line on stderr and exit code 2."""
    sys.stderr.write(f"krichever: error: {message}\n")
    sys.exit(2)


def _emit(text, out):
    data = text if text.endswith("\n") else text + "\n"
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(data)
        except OSError as exc:
            _usage_error(f"cannot write {out!r}: {exc.strerror}")
        return
    try:
        if sys.stdout is None:  # the process started with descriptor 1 closed
            from errno import EBADF

            raise OSError(EBADF, os.strerror(EBADF))
        sys.stdout.write(data)
        sys.stdout.flush()
    except OSError as exc:
        # what is left in the buffer would fail again in the exit's flush:
        # point descriptor 1 at the null device (the signal docs' "Note on
        # SIGPIPE")
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        _usage_error(f"cannot write stdout: {exc.strerror}")


def _json_dumps(obj):
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


def _table_output(table, fmt):
    if fmt == "json":
        payload = {
            "table": table.name,
            "order": table.series.order,
            "format": "json",
            "values": table.to_json(),
            "vars": [[n, w] for n, w in zip(table.series.vars.names, table.series.vars.weights)],
        }
        return _json_dumps(payload)
    return table.text()


def _status(passed, what, order=None):
    """The one status line of every report, ``[PASS] what`` or ``[FAIL] what``,
    with `` (order N)`` after a suite's name."""
    order = "" if order is None else f" (order {order})"
    return f"[{'PASS' if passed else 'FAIL'}] {what}{order}"


def _report_output(reports, fmt, params):
    if fmt == "json":
        payload = dict(params)
        payload["reports"] = [r.to_json() for r in reports]
        payload["pass"] = all(r.passed for r in reports)
        return _json_dumps(payload)
    lines = []
    for r in reports:
        lines.append(_status(r.passed, r.suite, r.order))
        if r.first_failure:
            lines.append(f"    first failure at {r.first_failure['monomial']}:")
            lines.append(f"      lhs = {r.first_failure['lhs']}")
            lines.append(f"      rhs = {r.first_failure['rhs']}")
    return "\n".join(lines)


# Verification suites in report order.  A genus suite takes the series order;
# the FGL suites take one universal law built at that weight and shared, which
# carries A only when a suite that reads it runs.  An
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


TABLES = {
    "psi": genus.psi_table,
    "kappa": genus.kappa_table,
    "kappa-inv": genus.kappa_inverse_table,
    "phi-kh": genus.phi_kh_table,
}


# The subcommands: each one's help line and flags.  A flag is (option, type,
# default), where the type is int, a tuple of choices, or None for a path,
# and every flag takes one value.  A parser's flags are -h and --help and
# then these, in the order in which an ambiguous prefix lists them.
_ORDER = ("--order", int, genus.DEFAULT_ORDER)
_MAX_WEIGHT = ("--max-weight", int, None)
_FORMAT = ("--format", ("text", "json"), "text")
_OUT = ("--out", None, None)
COMMANDS = {
    **{name: (f"print the {name} genus table", (_ORDER, _FORMAT, _OUT)) for name in TABLES},
    "verify": (
        "run identity verification suites",
        (_ORDER, _FORMAT, _OUT, ("--suite", VERIFY_SUITES, "all")),
    ),
    "quotient": ("graded quotient of the coefficient ring", (_MAX_WEIGHT, _FORMAT, _OUT)),
    "reproduce-paper": ("run the full acceptance battery", (_ORDER, _MAX_WEIGHT, _OUT)),
}
_HELP = {"-h": None, "--help": None}


def _option(token, flags):
    """What the standard parser reads ``token`` as, given ``flags``: a flag
    and its ``=`` value (None when it has none), ``(None, None)`` for an
    unknown option, or None for a positional."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        value = value if eq else None
    else:  # a short flag with its value joined on, as -hx; -h is the only one
        matches = [token[:2]] if token[:2] in flags else []
        value = token[2:]
    if len(matches) > 1:
        _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    # a token with a space is a positional, and so is what the standard
    # parser reads as a negative number, ^-\d+$|^-\d*\.\d+$
    number = token[1:].removesuffix("\n")
    if " " in token or number.replace(".", "", 1).isdecimal() and not number.endswith("."):
        return None
    return None, None


def _value(option, kind, text):
    """``text`` read as the value of ``option``, or exit 2 as the standard
    parser does."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _usage_error(f"argument {option}: invalid int value: {text!r}")
    if kind is not None and text not in kind:
        choices = ", ".join(map(repr, kind))
        _usage_error(f"argument {option}: invalid choice: {text!r} (choose from {choices})")
    return text


def _read(tokens, flags, values, extras, stop=False):
    """Read ``tokens`` in order, as the standard parser does: each flag's
    value into ``values`` under the flag's name, and each token no flag
    takes into ``extras``.  With ``stop``, stop at the first positional.
    Returns the index it stopped at, or None for help."""
    # the first "--" ends the options: from it on every token is a
    # positional, and none is a flag's value
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, flags) for token in tokens[:cut]] + ["--"] * (len(tokens) - cut)
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        if stop and not isinstance(kind, tuple):
            return i
        i += 1
        if not isinstance(kind, tuple) or kind[0] is None:
            extras.append(tokens[i - 1])
            continue
        flag, value = kind
        if flag in _HELP:
            if value is not None:
                # -hh is -h twice; -hx and --help=x give help a value
                given = value.lstrip("h") if flag == "-h" else value
                if given or not value:
                    _usage_error(f"argument -h/--help: ignored explicit argument {given!r}")
            return None
        if value is None:
            if i == len(tokens) or kinds[i] is not None:
                _usage_error(f"argument {flag}: expected one argument")
            value = tokens[i]
            i += 1
        values[flag[2:]] = _value(flag, flags[flag], value)
    return i


def _parse_args(argv):
    """``argv`` read against ``COMMANDS``: a dict of the command and each of
    its flags' values, keyed by the flag's name, or None for help.  A usage
    error exits 2 with the standard parser's message."""
    extras = []
    i = _read(argv, _HELP, {}, extras, stop=True)
    if i is None:
        return None
    if argv[i:] in ([], ["--"]):
        _usage_error("the following arguments are required: command")
    command = _value("command", tuple(COMMANDS), argv[i])
    flags = COMMANDS[command][1]
    args = {"command": command, **{flag[2:]: default for flag, _, default in flags}}
    flag_types = {**_HELP, **{flag: kind for flag, kind, _ in flags}}
    if _read(argv[i + 1 :], flag_types, args, extras) is None:
        return None
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _usage():
    """The help text: every subcommand with its flags and their defaults."""
    from . import lattice

    lines = [
        "usage: krichever COMMAND [--FLAG VALUE ...]",
        "",
        "Exact computations with elliptic genera and the universal formal group law.",
        "",
    ]
    for name, (about, flags) in COMMANDS.items():
        lines.append(f"  {name:<17}{about}")
        for flag, kind, default in flags:
            value = "N" if kind is int else "PATH" if kind is None else "{" + ",".join(kind) + "}"
            value += "" if default is None else f"  (default {default})"
            lines.append(f"      {flag} {value}")
    lines += [
        "",
        "A flag's value follows it (--order 4) or an '=' (--order=4), a unique",
        "prefix names a flag (--ord 4), and the last of a repeated flag wins.",
        f"--max-weight defaults to {lattice.DEFAULT_MAX_WEIGHT}.  --out writes the output to a",
        "file instead of stdout.  -h or --help prints this text.",
    ]
    return "\n".join(lines) + "\n"


def _run_verify_suite(suite, order):
    def wanted(suites):
        return [verify for name, verify in suites.items() if suite in (name, "all")]

    reports = [verify(order) for verify in wanted(GENUS_SUITES)]
    fgl_suites = wanted(FGL_SUITES)
    if fgl_suites:
        from . import fgl

        data = fgl.build_universal_fgl(order)
        if suite in ("proposition-ii", "krichever-form", "all"):
            data = fgl.compute_A(data)
        reports += [getattr(fgl, verify)(data) for verify in fgl_suites]
    return reports


def _quotient_output(max_weight, fmt):
    from . import lattice

    model = lattice.LazardModel(max_weight)
    reports = [model.quotient_report(n) for n in range(1, max_weight + 1)]
    if fmt == "json":
        weights = [r.to_json() for r in reports]
        return _json_dumps({"max_weight": max_weight, "format": "json", "weights": weights})
    return "\n".join(
        f"n={r.n:>2}  rank L={r.rank_L:>3}  rank I={r.rank_I:>3}  "
        f"Q = {r.Q.describe():<24} Indec = {r.Indec.describe()}"
        for r in reports
    )


def golden_table(name):
    """Golden text for the printed psi/kappa tables shipped with the package.

    The files sit next to this module (``package-data`` in pyproject.toml);
    ``importlib.resources`` would import zipfile, tempfile and about 60
    other modules into a process that runs with ``python -S``.
    """
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}_table.txt")
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


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


def _reproduce_paper(order, max_weight):
    """Tables against golden files, every identity suite, quotient reports."""
    from . import lattice

    checks = [
        (table(4).text() == golden_table(name), f"{name} table (printed values)")
        for name, table in (("psi", genus.psi_table), ("kappa", genus.kappa_table))
    ]
    checks += [(rep.passed, rep.suite, rep.order) for rep in _run_verify_suite("all", order)]
    model = lattice.LazardModel(max_weight)
    for n in range(1, max_weight + 1):
        ind = model.quotient_report(n).Indec
        expected = lattice.InvariantFactors(*EXPECTED_INDEC[n])
        what = f"quotient weight {n}: Indec = {ind.describe()} (expected {expected.describe()})"
        checks.append((ind == expected, what))
    ok = all(check[0] for check in checks)
    lines = [_status(*check) for check in checks] + [f"overall: {'PASS' if ok else 'FAIL'}"]
    return "\n".join(lines), ok


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
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    if args is None:
        _emit(_usage(), None)
        return 0
    command, out = args["command"], args["out"]

    if command in TABLES:
        _check_order(args["order"], 1)
        table = TABLES[command](args["order"])
        _emit(_table_output(table, args["format"]), out)
        return 0

    if command == "verify":
        _check_order(args["order"], 2)
        reports = _run_verify_suite(args["suite"], args["order"])
        params = {"suite": args["suite"], "order": args["order"]}
        _emit(_report_output(reports, args["format"], params), out)
        return 0 if all(r.passed for r in reports) else 1

    max_weight = _check_max_weight(args["max-weight"])
    if command == "quotient":
        _emit(_quotient_output(max_weight, args["format"]), out)
        return 0

    _check_order(args["order"], 2)
    text, ok = _reproduce_paper(args["order"], max_weight)
    _emit(text, out)
    return 0 if ok else 1


def main():
    # one short run whose data lives to exit and forms no cycles worth collecting
    gc.disable()
    code = run()
    # None when the process started with descriptor 2 closed
    if sys.stderr is not None:
        sys.stderr.flush()
    # skip the teardown: a full collection, then clearing every module
    os._exit(code)


if __name__ == "__main__":
    main()
