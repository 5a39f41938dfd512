"""The Seifert matrix record, apart from the signature code of :mod:`kcg.seifert`,
which re-exports the record alone, so that a table row's matrix is checked without
that code.  Its knot polynomial comes from determinants at nodes the matrix keeps."""

from __future__ import annotations

from functools import cached_property

from . import _intpoly
from ._record import Record
from .errors import SeifertError
from .laurent import LaurentPoly, canonicalize


class SeifertMatrix(Record):
    """Square integer matrix V with det(V - V^T) = 1.

    The condition says exactly that V is the linking form of a genus
    n/2 surface with unimodular intersection form; it forces n even and
    equals the value of the knot polynomial at t = 1.  The 0x0 matrix is
    allowed and represents the unknot.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise SeifertError("not a knot Seifert matrix")
        skew = [[self.entries[i][j] - self.entries[j][i] for j in range(n)]
                for i in range(n)]
        if _det_int(skew) != 1:
            raise SeifertError("not a knot Seifert matrix")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_text(cls, text: str) -> "SeifertMatrix":
        """Parse the row encoding ``-1,1;0,-1`` (rows by ';', entries by ',')."""
        rows = []
        for chunk in text.split(";"):
            try:
                rows.append(tuple(int(x) for x in chunk.split(",")))
            except ValueError as exc:
                raise SeifertError(f"bad matrix encoding: {text!r}") from exc
        return cls(tuple(rows))

    def to_text(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.entries)

    @property
    def _nodes(self) -> range:
        """The size+1 interpolation nodes x = -n/2, ..., n/2 (n is even)."""
        return range(-(self.size // 2), self.size // 2 + 1)

    @cached_property
    def _node_values(self) -> tuple[int, ...]:
        """det(V - x V^T) at each of ``_nodes``, in order; the nodes are not
        stored, which keeps a matrix that holds its values small."""
        n, e = self.size, self.entries
        return tuple(_det_int([[e[i][j] - x * e[j][i] for j in range(n)] for i in range(n)])
                     for x in self._nodes)

    @cached_property
    def _alexander(self) -> LaurentPoly:
        """det(V - t V^T), unless ``has_alexander`` kept it; ``alexander`` is public."""
        return canonicalize(_interpolate_int(tuple(zip(self._nodes, self._node_values))))

    def has_alexander(self, delta: LaurentPoly) -> bool:
        """Whether ``alexander(self) == delta``, from the node values alone.

        det(V - t V^T) has degree at most n and is palindromic of width n
        with value 1 at t = 1, so its canonical form has degree d = n - 2s
        and it equals Delta(1) t^s Delta(t) exactly when its canonical form
        is Delta.  Both sides have degree at most n, so agreeing at the n+1
        nodes is agreeing everywhere.  An odd n - d, or d > n, fails.  A
        match keeps ``delta`` as the matrix's polynomial.
        """
        n, d = self.size, delta.degree
        unit, s = sum(delta.coeffs), (n - d) // 2
        if (n - d) % 2 or d > n or any(
                y != unit * x ** s * _intpoly.eval_at(delta.coeffs, x)
                for x, y in zip(self._nodes, self._node_values)):
            return False
        self.__dict__["_alexander"] = delta
        return True


def _det_int(rows) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def _interpolate_int(points) -> list[int]:
    """Integer coefficients of the polynomial through (x, y) points."""
    from fractions import Fraction

    n = len(points)
    acc = [Fraction(0)] * n
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = 1
        for xj, _ in points:
            if xj == xi:
                continue
            basis = _intpoly.mul(basis, [Fraction(-xj), Fraction(1)])
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for k, c in enumerate(basis):
            acc[k] += c * scale
    if any(c.denominator != 1 for c in acc):
        raise AssertionError("interpolation produced non-integer coefficients")
    return [int(c) for c in acc]
