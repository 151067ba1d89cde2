"""Check reports: deterministic pass/fail records with located witnesses."""

from __future__ import annotations

from typing import List


class CheckItem:
    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name, value):
        raise AttributeError("CheckItem is immutable")

    def _fields(self):
        return self.name, self.ok, self.witness

    def __eq__(self, other) -> bool:
        if not isinstance(other, CheckItem):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"CheckItem(name={self.name!r}, ok={self.ok!r}, witness={self.witness!r})"

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f" -- {self.witness}" if self.witness else ""
        return f"{self.name}: {status}{suffix}"


class Report:
    __slots__ = ("items",)

    def __init__(self):
        self.items: List[CheckItem] = []

    def __eq__(self, other) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return self.items == other.items

    def __repr__(self):
        return f"Report(items={self.items!r})"

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
