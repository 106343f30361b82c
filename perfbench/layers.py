"""Per-layer tracing, done from outside the package.

``Tracer.install`` wraps the functions named in ``targets`` and rebinds every
name that refers to them inside the loaded ``krichever`` modules: module
globals (``lattice`` imports ``build_universal_fgl`` and ``compute_A`` by
name, ``fgl`` and ``genus`` import ``compose1``), class attributes
(``Series1.__mul__`` is ``Series1.mul``), classmethods, and module-level
dicts such as ``cli.TABLES``.  The kernels are reached through the
``backend.kernels`` module object, so rebinding its attributes covers
``core`` and ``lattice``.  A name that was never rebound would report 0
calls, which is why the benchmark's tests assert that every wrapper fires.

Each call records a span: id, parent span id, name, start, end, the time
covered by child spans, and size counts.  A span's self time is its
duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Per-layer metrics, in the order of BENCHMARK.json.  The name is
# "<span>.<field>"; the field picks the statistic and its unit.
PER_LAYER = (
    "kernels.poly_mul.calls",
    "kernels.poly_mul.term_products",
    "kernels.poly_mul.busy_s",
    "kernels.hnf.calls",
    "kernels.hnf.cells",
    "kernels.hnf.busy_s",
    "kernels.hnf.max_bits",
    "kernels.snf.calls",
    "kernels.snf.cells",
    "kernels.snf.busy_s",
    *(
        f"core.{fn}.{field}"
        for fn in (
            "Series1.mul",
            "Series1.compose",
            "Series1.revert",
            "Series1.inv_sqrt",
            "Series1.reciprocal",
            "Series2.mul",
            "Series2.subs_xy",
            "compose1",
        )
        for field in ("calls", "self_s")
    ),
    "fgl.build_universal_fgl.calls",
    "fgl.build_universal_fgl.busy_s",
    "fgl.compute_A.busy_s",
    "fgl.verify.busy_s",
    *(
        f"genus.{fn}.{field}"
        for fn in ("phi_kh_table", "kappa_inverse_table")
        for field in ("calls", "busy_s", "self_s")
    ),
    "genus.verify_krichever_ode.busy_s",
    "genus.verify_lemma1.busy_s",
    "genus.verify_lemma2_theorem1.busy_s",
    "lattice.quotient_report.busy_s",
    "lattice.quotient_report.n12.busy_s",
    "lattice.quotient_report.n13.busy_s",
    "lattice.hnf_columns.calls",
    "lattice.hnf_columns.busy_s",
    "lattice.coordinates.calls",
    "lattice.coordinates.busy_s",
    "lattice.pieces.self_s",
    "lattice.from_presentation.busy_s",
    "cli.run.busy_s",
    "trace.overhead_s",
)

UNITS = {
    "calls": "count",
    "term_products": "count",
    "cells": "count",
    "max_bits": "bits",
    "busy_s": "s",
    "self_s": "s",
    "overhead_s": "s",
}


def unit(metric):
    return UNITS[metric.rsplit(".", 1)[1]]


def _poly_mul_sizes(args):
    return {"term_products": len(args[0]) * len(args[1])}


def _hnf_sizes(args):
    cols, nrows = args[0], args[1]
    top = max((max(max(c), -min(c)) for c in cols if c), default=0)
    return {"cells": len(cols) * nrows, "max_bits": top.bit_length()}


def _snf_sizes(args):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _weight(args):
    return {"n": args[1]}


def targets():
    """(span name, function, size function) for every traced function."""
    from krichever import backend, cli, core, fgl, genus, lattice

    k = backend.kernels
    out = [
        ("kernels.poly_mul", k.poly_mul_terms, _poly_mul_sizes),
        ("kernels.hnf", k.hnf_cols, _hnf_sizes),
        ("kernels.snf", k.snf_diag, _snf_sizes),
    ]
    for cls, meth in (
        (core.Series1, "mul"),
        (core.Series1, "compose"),
        (core.Series1, "revert"),
        (core.Series1, "inv_sqrt"),
        (core.Series1, "reciprocal"),
        (core.Series2, "mul"),
        (core.Series2, "subs_xy"),
    ):
        out.append((f"core.{cls.__name__}.{meth}", vars(cls)[meth], None))
    out.append(("core.compose1", core.compose1, None))
    out += [
        ("fgl.build_universal_fgl", fgl.build_universal_fgl, None),
        ("fgl.compute_A", fgl.compute_A, None),
    ]
    for fn in ("proposition_i", "proposition_ii", "krichever_form", "associativity"):
        out.append(("fgl.verify", getattr(fgl, f"verify_{fn}"), None))
    for fn in (
        "phi_kh_table",
        "kappa_inverse_table",
        "verify_krichever_ode",
        "verify_lemma1",
        "verify_lemma2_theorem1",
    ):
        out.append((f"genus.{fn}", getattr(genus, fn), None))
    model = lattice.LazardModel
    out += [
        ("lattice.quotient_report", model.quotient_report, _weight),
        ("lattice.hnf_columns", lattice.hnf_columns, None),
        ("lattice.coordinates", lattice.Lattice.coordinates, None),
        ("lattice.pieces", model.lazard_piece, None),
        ("lattice.pieces", model.ideal_piece, None),
        ("lattice.pieces", model.decomposables_piece, None),
        (
            "lattice.from_presentation",
            vars(lattice.InvariantFactors)["from_presentation"].__func__,
            None,
        ),
        ("cli.run", cli.run, None),
    ]
    return out


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []  # [id, parent id or -1, name, start, end, child time, sizes]
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, sizes):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else None
            rec = [len(spans), parent[0] if parent else -1, name, 0.0, 0.0, 0.0,
                   sizes(args) if sizes else None]
            spans.append(rec)
            stack.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                if parent is not None:
                    # the wrapper's own cost is not the parent's self time
                    parent[5] += clock() - t0

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, fn, sizes in targets():
            _rebind(fn, self._wrap(name, fn, sizes), self._undo)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self):
        """Per span name: calls, busy_s (outermost spans), self_s, sizes."""
        spans = self.spans
        out = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, start, end, child, sizes in spans:
            dur = end - start
            keys = [name]
            if sizes and "n" in sizes:
                keys.append(f"{name}.n{sizes['n']}")
            nested = False
            p = parent
            while p >= 0:
                if spans[p][2] == name:
                    nested = True
                    break
                p = spans[p][1]
            for key in keys:
                st = out[key]
                st["calls"] += 1
                st["self_s"] += dur - child
                if not nested:
                    st["busy_s"] += dur
                for field, v in (sizes or {}).items():
                    if field == "n":
                        continue
                    if field.startswith("max_"):
                        st[field] = max(st[field], v)
                    else:
                        st[field] += v
        return {key: dict(st) for key, st in out.items()}

    def metrics(self):
        """Every PER_LAYER metric except trace.overhead_s, as {name: value}."""
        stats = self.stats()
        out = {}
        for metric in PER_LAYER:
            span, field = metric.rsplit(".", 1)
            if span == "trace":
                continue
            value = stats.get(span, {}).get(field, 0.0)
            out[metric] = int(value) if unit(metric) != "s" else value
        return out

    def write_spans(self, path):
        """One JSON line per span, parent-linked, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, child, sizes in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end, "self_s": end - start - child}
                if sizes:
                    rec["sizes"] = sizes
                fh.write(json.dumps(rec) + "\n")


def _rebind(orig, repl, undo):
    """Point every krichever name that refers to ``orig`` at ``repl``."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "krichever" or n.startswith("krichever."))]
    for mod in mods:
        spaces = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod.__name__]
        for ns in spaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    new = repl
                elif isinstance(val, classmethod) and val.__func__ is orig:
                    new = classmethod(repl)
                elif ns is mod and isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            val[key] = repl
                            undo.append(functools.partial(val.__setitem__, key, item))
                    continue
                else:
                    continue
                setattr(ns, attr, new)
                undo.append(functools.partial(setattr, ns, attr, val))
