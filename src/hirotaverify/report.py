"""Check records shared by the verification harness and the CLI."""

from __future__ import annotations

from typing import NamedTuple


class CheckReport(NamedTuple):
    """Outcome of one identity check, immutable; _replace makes a changed copy.

    status is "pass" exactly when the residual polynomial was identically
    zero (or, for pointwise checks, every evaluated residual vanished),
    "fail" when it was not, and "error" when the check could not be carried
    out (a harness exception or an unusable sample point).  witness holds
    the leading residual term in canonical text form when a check fails, and
    the cause of an error.  order_index carries the Laurent order I where
    one applies.
    """

    equation_id: str
    n: int
    order_index: int | None = None
    status: str = "pass"
    witness: str | None = None
    term_count: int = 0
    elapsed: float = 0.0
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return self._asdict()


def sort_key(report: CheckReport):
    """Deterministic report order: (equation_id, n, order_index)."""
    idx = -1 if report.order_index is None else report.order_index
    return (report.equation_id, report.n, idx)
