"""Unit table for capability matching.

Each unit belongs to one dimension, which is a name, and carries an exact
decimal scale to that dimension's base unit (the unit with scale 1). A
dimension exists when one unit with scale 1 names it. Conversion never crosses
dimensions. The built-in table can be extended from a `.units` file with one
`symbol dimension scale` entry per line (`#` starts a comment).
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal, InvalidOperation
from typing import Iterable

from .model import _Checked


class UnitError(ValueError):
    """Configuration error: unknown unit symbol or inconsistent unit table."""


class UnitDef(_Checked, namedtuple("UnitDef", "symbol dimension scale_to_base")):
    __slots__ = ()

    def __new__(cls, symbol: str, dimension: str, scale_to_base: Decimal):
        scale_to_base = Decimal(scale_to_base)
        if not scale_to_base.is_finite():
            raise UnitError(f"unit {symbol!r} must have a finite scale")
        if scale_to_base <= 0:
            raise UnitError(f"unit {symbol!r} must have a positive scale")
        return tuple.__new__(cls, (symbol, dimension, scale_to_base))


class UnitTable(_Checked, namedtuple("UnitTable", "units")):
    def __new__(cls, units: Iterable[UnitDef]):
        units = tuple(units)
        by_symbol: dict[str, UnitDef] = {}
        base_seen: dict[str, str] = {}
        for unit in units:
            if unit.symbol in by_symbol:
                raise UnitError(f"unit {unit.symbol!r} defined twice")
            by_symbol[unit.symbol] = unit
            if unit.scale_to_base == 1:
                if unit.dimension in base_seen:
                    raise UnitError(
                        f"dimension {unit.dimension} has two base units: "
                        f"{base_seen[unit.dimension]!r} and {unit.symbol!r}"
                    )
                base_seen[unit.dimension] = unit.symbol
        for unit in units:
            if unit.dimension not in base_seen:
                raise UnitError(f"dimension {unit.dimension} has no base unit")
        table = tuple.__new__(cls, (units,))
        table._by_symbol = by_symbol
        return table

    def find(self, symbol: str) -> UnitDef | None:
        return self._by_symbol.get(symbol)

    def lookup(self, symbol: str) -> UnitDef:
        unit = self._by_symbol.get(symbol)
        if unit is None:
            raise UnitError(f"unknown unit {symbol!r}")
        return unit

    def extended(self, extra: Iterable[UnitDef]) -> UnitTable:
        return UnitTable((*self.units, *extra))


def in_base(value: Decimal, scale: Decimal) -> tuple[int, int]:
    """`value` times the positive `scale`, exactly, as (coefficient, exponent): coefficient × 10**exponent.
    A coefficient is read through a Decimal with exponent 0, which `int` converts without a digit limit."""
    sign, digits, exponent = value.as_tuple()
    _, scale_digits, scale_exponent = scale.as_tuple()
    return int(Decimal((sign, digits, 0))) * int(Decimal((0, scale_digits, 0))), exponent + scale_exponent


def at_most(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a <= b for two `in_base` pairs. The coefficient with the larger exponent is shifted
    across the gap, but by no more than the other coefficient's bit length: shifted that far,
    a non-zero coefficient already outweighs the other, so only its sign decides."""
    (a_coefficient, a_exponent), (b_coefficient, b_exponent) = a, b
    if a_exponent >= b_exponent:
        return a_coefficient * 10 ** min(a_exponent - b_exponent, b_coefficient.bit_length()) <= b_coefficient
    return a_coefficient <= b_coefficient * 10 ** min(b_exponent - a_exponent, a_coefficient.bit_length())


BUILTIN_UNITS = UnitTable(
    (
        UnitDef("W", "Power", Decimal(1)),
        UnitDef("mW", "Power", Decimal("0.001")),
        UnitDef("kW", "Power", Decimal(1000)),
        UnitDef("J", "Energy", Decimal(1)),
        UnitDef("kJ", "Energy", Decimal(1000)),
        UnitDef("s", "Time", Decimal(1)),
        UnitDef("ms", "Time", Decimal("0.001")),
        UnitDef("min", "Time", Decimal(60)),
        UnitDef("Hz", "Frequency", Decimal(1)),
        UnitDef("kHz", "Frequency", Decimal(1000)),
        UnitDef("MHz", "Frequency", Decimal(1000000)),
        UnitDef("m", "Length", Decimal(1)),
        UnitDef("mm", "Length", Decimal("0.001")),
        UnitDef("cm", "Length", Decimal("0.01")),
        UnitDef("degC", "Temperature", Decimal(1)),
        UnitDef("W_per_cm2", "Intensity", Decimal(1)),
    )
)

def parse_units_file(text: str, file_name: str = "<units>") -> list[UnitDef]:
    """Parse a `.units` extension file; raises UnitError with position context."""
    defs: list[UnitDef] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise UnitError(f"{file_name}:{line_no}: expected 'symbol dimension scale'")
        symbol, dimension, scale_text = parts
        try:
            scale = Decimal(scale_text)
        except InvalidOperation:
            raise UnitError(f"{file_name}:{line_no}: invalid scale {scale_text!r}") from None
        if not scale.is_finite():
            raise UnitError(f"{file_name}:{line_no}: scale must be finite")
        if scale <= 0:
            raise UnitError(f"{file_name}:{line_no}: scale must be positive")
        defs.append(UnitDef(symbol, dimension, scale))
    return defs
