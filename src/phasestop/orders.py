"""The transition-matrix order, TP2 minors and the model assumption report.

:func:`matrix_order_geq` compares two transition matrices with the small
absolute slack ``ORDER_TOL``: inputs are O(1) probabilities and the
comparisons involve products of two entries.  Each cost family states its
own assumptions (``assumptions`` of the family's
:class:`~phasestop.model.CostSpec`) from the check helpers here;
:func:`check_assumptions` collects them into a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import CostSpec, DetectionModel

ORDER_TOL = 1e-12


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i < j`` below ``n``, ``np.triu_indices(n, k=1)``,
    built once per size and read-only."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def _minors(m: np.ndarray) -> np.ndarray:
    """The 2x2 minors ``m[i,j] m[k,l] - m[i,l] m[k,j]`` over all rows
    ``i < k`` and columns ``j < l`` of each matrix of the stack ``m``
    (..., rows, cols), flattened to shape (..., minors)."""
    i, k = _pairs(m.shape[-2])
    j, l = _pairs(m.shape[-1])
    a, b = m[..., i, :], m[..., k, :]
    minors = a[..., j] * b[..., l] - a[..., l] * b[..., j]
    return minors.reshape(*m.shape[:-2], i.size * j.size)


def _min_minor(mat) -> float:
    """Smallest of the matrix's :func:`_minors` (0 for a matrix with no 2x2
    minor)."""
    minors = _minors(np.asarray(mat, dtype=float))
    return float(minors.min()) if minors.size else 0.0


def matrix_order_geq(p1, p2) -> bool:
    """Transition-matrix dominance: P1 >= P2 when
    ``P1[i,j] * P2[m,l] <= P2[i,j] * P1[m,l]`` for every l > j and all i, m.
    """
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must have the same shape")
    j, l = _pairs(a.shape[1])
    # axes (i, m, column pair): np.outer(a[:, j], b[:, l]) for every pair j < l
    lhs = a[:, None, j] * b[None, :, l]
    return not np.any(lhs > b[:, None, j] * a[None, :, l] + ORDER_TOL)


# ---------------------------------------------------------------------------
# Assumption checking


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    slack: float
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        return [
            f"{c.name:<12} {'pass' if c.passed else 'FAIL':<4} slack={c.slack:+.6g}"
            + (f"  ({c.detail})" if c.detail else "")
            for c in self.checks
        ]


def _ineq(name: str, slack: float, detail: str = "", tol: float = 1e-12) -> AssumptionCheck:
    """A check of the form ``expression >= 0`` with recorded slack."""
    return AssumptionCheck(name, slack >= -tol, float(slack), detail)


def _tp2_check(name: str, mat: np.ndarray, detail: str) -> AssumptionCheck:
    return _ineq(name, _min_minor(mat), detail)


def check_assumptions(model: DetectionModel, spec: CostSpec) -> AssumptionReport:
    """Numerically evaluate the structural assumptions of the cost family
    (``spec.assumptions``).

    Every inequality is reported with its slack (negative slack = violated).
    """
    return AssumptionReport(tuple(spec.assumptions(model)))
