"""Deterministic pass/fail reports shared by all checkers.

A Report is an ordered list of named checks.  Each check is either a pass or
a fail with a witness string.  Every axiom check is an identity on basis
tuples: its residual at each tuple must vanish.  :func:`failures_of` turns
(tuple, residual) pairs into the failures (tuple, repr of the residual) of
the nonzero residuals.  :meth:`Report.add_failures` adds a check from
them, and :meth:`Report.add_residuals` from a residual function on tuples.
The check fails exactly when there is a failure.  Its witness, formatted by
:func:`first_witness` alone, names the lexicographically least failing
tuple and the residual there, so reports do not depend on evaluation
order.
"""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
PRECONDITION = "precondition-failed"


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []  # list of (key, status, witness-or-None)

    def add(self, key, ok, witness=None):
        self.checks.append((key, PASS if ok else FAIL, None if ok else witness))
        return self

    def add_failures(self, key, failures):
        """Add check ``key`` from failures as :func:`failures_of` returns
        them, witnessed by the least failing tuple; returns ``failures``."""
        self.add(key, not failures, first_witness(failures))
        return failures

    def add_residuals(self, key, tuples, residual):
        """Add check ``key`` of the identity residual(*t) = 0 on each basis
        tuple t; returns its failures."""
        return self.add_failures(key, failures_of((t, residual(*t)) for t in tuples))

    def add_status(self, key, status, witness=None):
        self.checks.append((key, status, witness))
        return self

    @property
    def passed(self):
        return all(status == PASS for _, status, _ in self.checks)

    def status_of(self, key):
        for k, status, _ in self.checks:
            if k == key:
                return status
        raise KeyError(key)

    def witness_of(self, key):
        for k, _, witness in self.checks:
            if k == key:
                return witness
        raise KeyError(key)

    def failing(self):
        """The failing lines, joined by "; " (empty when the report passes)."""
        return "; ".join(line for line in self.lines() if "fail" in line)

    def lines(self):
        out = []
        for key, status, witness in self.checks:
            if witness:
                out.append("%s: %s %s" % (key, status, witness))
            else:
                out.append("%s: %s" % (key, status))
        return out

    def __repr__(self):
        head = "Report(%s: %s)" % (self.title or "-", PASS if self.passed else FAIL)
        return head


def first_witness(failures):
    """Format the least failing tuple from [(tuple, residual-string), ...]."""
    if not failures:
        return None
    key, residual = min(failures, key=lambda item: item[0])
    return "at=%s residual=[%s]" % (",".join(map(str, key)), residual)


def failures_of(pairs):
    """(tuple, repr of the residual) of every nonzero residual among
    (tuple, residual) pairs, in order."""
    return [(key, repr(value)) for key, value in pairs if not value.is_zero()]
