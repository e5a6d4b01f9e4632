"""Report objects returned by the verification operations.

A report is a named list of failure lines plus context (cutoffs, counts).
It passes when it checked something and its failure list is empty; a
report that checked nothing renders as FAIL with a line saying so.
Rendering is deterministic: context keys and failures appear in insertion
order, which every producer keeps canonical (sorted iteration over words,
basis indices, levels).
"""

from __future__ import annotations


class Report:
    def __init__(self, name: str):
        self.name = name
        self.context: dict = {}
        self.failures: list = []
        self.checked = 0

    def note(self, key, value) -> "Report":
        self.context[str(key)] = str(value)
        return self

    def tick(self, n=1):
        self.checked += n

    def fail(self, message: str):
        self.failures.append(str(message))

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    def lines(self) -> list:
        out = ["[%s] %s" % (self.name, "PASS" if self.passed else "FAIL")]
        for key, value in self.context.items():
            out.append("  %s = %s" % (key, value))
        out.append("  checked = %d" % self.checked)
        failures = self.failures if self.checked else self.failures + ["nothing was checked"]
        if failures:
            out.append("  failures = %d" % len(failures))
            out.extend("    " + msg for msg in failures)
        return out

    def text(self) -> str:
        return "\n".join(self.lines())

    def __repr__(self):
        return "Report(%s, %s, checked=%d, failures=%d)" % (
            self.name,
            "PASS" if self.passed else "FAIL",
            self.checked,
            len(self.failures),
        )
