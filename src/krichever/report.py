"""The outcome of a verification suite and the one mismatch reporter that
every suite in ``genus`` and ``fgl`` ends in.  It needs only ``core``, so
the integer-only Lazard side reports without loading the genus tables.
"""

from collections import namedtuple

from .core import Poly


class Report(namedtuple("Report", "suite order passed first_failure", defaults=(None,))):
    """Outcome of a verification suite; failures carry the first bad slot."""

    __slots__ = ()

    def to_json(self):
        return {
            "suite": self.suite,
            "order": self.order,
            "pass": self.passed,
            "first_failure": self.first_failure,
        }


def compare_slots(suite, order, lhs, rhs):
    """Report on two coefficient maps, failing at their first differing slot.

    ``lhs`` and ``rhs`` map slots to Poly: a coefficient list is read as
    {k: coeffs[k]}, and a slot missing from one side reads as 0 there.  The
    slots of both are compared in sorted order and the first mismatch is
    reported as a monomial in x, y, z (slot k is x^k, (i, j) is x^i*y^j).
    An rhs value may instead be a str naming the condition that the lhs
    value must meet; such a slot always fails and prints that text.  Series
    compared this way must share one truncation order.
    """
    lhs, rhs = (m if isinstance(m, dict) else dict(enumerate(m)) for m in (lhs, rhs))
    for slot in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(slot), rhs.get(slot)
        a = Poly.zero(b.vars) if a is None else a
        b = Poly.zero(a.vars) if b is None else b
        if a != b:
            exps = slot if isinstance(slot, tuple) else (slot,)
            failure = {
                "monomial": "*".join(f"{v}^{e}" for v, e in zip("xyz", exps)),
                "lhs": a.text(),
                "rhs": b if isinstance(b, str) else b.text(),
            }
            return Report(suite, order, False, failure)
    return Report(suite, order, True)
