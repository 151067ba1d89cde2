"""Check reports: deterministic pass/fail records with located witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    witness: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f" -- {self.witness}" if self.witness else ""
        return f"{self.name}: {status}{suffix}"


@dataclass
class Report:
    items: List[CheckItem] = field(default_factory=list)

    def add(self, name: str, ok: bool, witness: str = ""):
        self.items.append(CheckItem(name, bool(ok), witness))

    def check(self, name: str, failures, what: str):
        """Add a check that passes when `failures` is empty (or zero); a
        failure's witness is `what` with `failures` filled into its `{}`."""
        self.add(name, not failures, what.format(failures) if failures else "")

    def extend(self, other: "Report"):
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def to_text(self) -> str:
        lines = [item.line() for item in self.items]
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": i.name, "ok": i.ok, "witness": i.witness} for i in self.items
            ],
        }
