"""The one verdict shape every check returns.

A report maps each measured quantity to the worst value seen for it.  A
float quantity passes when it is finite and below the report's tolerance;
an exact quantity (a defect count or an exact rational defect) passes only
when it is zero.  Folding readings through `worse` keeps NaN, so a check
that measured NaN anywhere cannot pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce


def worse(a, b):
    """The worse of two readings: the larger, or NaN when either is NaN
    (plain ``max(0.0, nan)`` is 0.0, which would hide the NaN)."""
    return b if b != b or b > a else a


class _Names(frozenset):
    """Quantity names that print sorted: a frozenset prints in string-hash
    order, which changes with the interpreter's hash seed."""

    def __repr__(self):
        return f"frozenset({{{', '.join(map(repr, sorted(self)))}}})" if self else "frozenset()"


@dataclass(frozen=True)
class Report:
    """Worst value per quantity, gated by one tolerance.

    ``exact`` names the quantities that must be exactly zero; it prints
    sorted, so a report's repr is the same in every interpreter.  ``witness``
    holds, per failing quantity, the first failing index or a text saying
    where it failed.  ``data`` carries ungated results (a signature, bracket
    values, the step used).
    """

    quantities: dict
    tol: float = 0.0
    exact: frozenset = frozenset()
    witness: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "exact", _Names(self.exact))

    @classmethod
    def verdict(cls, name, holds, witness):
        """Exact record of one yes/no condition: 0 when it holds, else 1."""
        return cls(
            {name: 0 if holds else 1},
            exact={name},
            witness={} if holds else {name: witness},
        )

    def holds(self, name):
        value = self.quantities[name]
        if name in self.exact:
            return value == 0
        return math.isfinite(value) and value < self.tol

    @property
    def passed(self):
        return all(self.holds(name) for name in self.quantities)

    @property
    def residual(self):
        """Worst float quantity, or None when every quantity is exact."""
        floats = [v for k, v in self.quantities.items() if k not in self.exact]
        return float(reduce(worse, floats)) if floats else None

    def describe(self):
        """One line naming each failing quantity, its value and witness."""
        parts = []
        for name, value in self.quantities.items():
            if self.holds(name):
                continue
            gate = "" if name in self.exact else f" (tol {self.tol!r})"
            where = f", witness {self.witness[name]}" if name in self.witness else ""
            parts.append(f"{name} = {value!r}{gate}{where}")
        return "; ".join(parts)
