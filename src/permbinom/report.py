"""Check reports shared by the verification suites and the harness."""

from __future__ import annotations

from collections import namedtuple

PASS = "pass"
FAIL = "fail"
PROBABLE = "probable-pass"


class CheckReport(namedtuple("CheckReport", "check_id status expected computed notes",
                             defaults=("", "", ""))):
    """Outcome of one exact comparison between a computed and an expected value.

    Failures always carry both sides so a mismatch can be diagnosed from the
    report alone.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.status not in (PASS, FAIL, PROBABLE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and (not self.expected or not self.computed):
            raise ValueError("fail reports must carry expected and computed values")
        return self

    @property
    def ok(self) -> bool:
        return self.status in (PASS, PROBABLE)


def check(check_id: str, expected, computed, notes: str = "") -> CheckReport:
    """Build a pass/fail report from an exact equality comparison."""
    if expected == computed:
        return CheckReport(check_id, PASS, str(expected), str(computed), notes)
    return CheckReport(check_id, FAIL, str(expected), str(computed), notes)


def all_ok(reports) -> bool:
    return all(r.ok for r in reports)


def render_table(reports) -> str:
    """Plain-text table, one row per check."""
    rows = [("check", "status", "expected", "computed", "notes")]
    for r in reports:
        rows.append((r.check_id, r.status, _clip(r.expected), _clip(r.computed), _clip(r.notes)))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _clip(s: str, limit: int = 48) -> str:
    s = s.replace("\n", " ")
    return s if len(s) <= limit else s[: limit - 3] + "..."
