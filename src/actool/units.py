"""Unit table for capability matching.

Each unit belongs to one dimension and carries an exact decimal scale to that
dimension's base unit (the unit with scale 1). Conversion never crosses
dimensions. The built-in table can be extended from a `.units` file with one
`symbol dimension scale` entry per line (`#` starts a comment).
"""

from __future__ import annotations

from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Decimal, InvalidOperation, Overflow, Underflow, localcontext
from enum import Enum
from typing import Iterable

from .model import _Checked


class UnitError(ValueError):
    """Configuration error: unknown unit symbol or inconsistent unit table."""


class Dimension(Enum):
    POWER = "Power"
    ENERGY = "Energy"
    TIME = "Time"
    FREQUENCY = "Frequency"
    LENGTH = "Length"
    TEMPERATURE = "Temperature"
    INTENSITY = "Intensity"


class UnitDef(_Checked, namedtuple("UnitDef", "symbol dimension scale_to_base")):
    __slots__ = ()

    def __new__(cls, symbol: str, dimension: Dimension, scale_to_base: Decimal):
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
        base_seen: dict[Dimension, str] = {}
        for unit in units:
            if unit.symbol in by_symbol:
                raise UnitError(f"unit {unit.symbol!r} defined twice")
            by_symbol[unit.symbol] = unit
            if unit.scale_to_base == 1:
                if unit.dimension in base_seen:
                    raise UnitError(
                        f"dimension {unit.dimension.value} has two base units: "
                        f"{base_seen[unit.dimension]!r} and {unit.symbol!r}"
                    )
                base_seen[unit.dimension] = unit.symbol
        for unit in units:
            if unit.dimension not in base_seen:
                raise UnitError(f"dimension {unit.dimension.value} has no base unit")
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

    def to_base(self, value: Decimal, symbol: str) -> Decimal:
        """Exact product: the precision covers the digits of both factors and
        the exponent range is the widest there is. UnitError if it overflows, or
        underflows so far that it would have to be rounded."""
        scale = self.lookup(symbol).scale_to_base
        with localcontext() as context:
            context.prec = len(value.as_tuple().digits) + len(scale.as_tuple().digits)
            context.Emax, context.Emin = MAX_EMAX, MIN_EMIN
            context.traps[Underflow] = True
            try:
                return value * scale
            except Overflow:
                raise UnitError(f"{value} {symbol} is too large to convert to its base unit") from None
            except Underflow:
                raise UnitError(f"{value} {symbol} is too small to convert to its base unit") from None

    def extended(self, extra: Iterable[UnitDef]) -> UnitTable:
        return UnitTable((*self.units, *extra))


BUILTIN_UNITS = UnitTable(
    (
        UnitDef("W", Dimension.POWER, Decimal(1)),
        UnitDef("mW", Dimension.POWER, Decimal("0.001")),
        UnitDef("kW", Dimension.POWER, Decimal(1000)),
        UnitDef("J", Dimension.ENERGY, Decimal(1)),
        UnitDef("kJ", Dimension.ENERGY, Decimal(1000)),
        UnitDef("s", Dimension.TIME, Decimal(1)),
        UnitDef("ms", Dimension.TIME, Decimal("0.001")),
        UnitDef("min", Dimension.TIME, Decimal(60)),
        UnitDef("Hz", Dimension.FREQUENCY, Decimal(1)),
        UnitDef("kHz", Dimension.FREQUENCY, Decimal(1000)),
        UnitDef("MHz", Dimension.FREQUENCY, Decimal(1000000)),
        UnitDef("m", Dimension.LENGTH, Decimal(1)),
        UnitDef("mm", Dimension.LENGTH, Decimal("0.001")),
        UnitDef("cm", Dimension.LENGTH, Decimal("0.01")),
        UnitDef("degC", Dimension.TEMPERATURE, Decimal(1)),
        UnitDef("W_per_cm2", Dimension.INTENSITY, Decimal(1)),
    )
)

_DIMENSIONS_BY_NAME = {dimension.value: dimension for dimension in Dimension}


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
        symbol, dimension_name, scale_text = parts
        dimension = _DIMENSIONS_BY_NAME.get(dimension_name)
        if dimension is None:
            known = ", ".join(sorted(_DIMENSIONS_BY_NAME))
            raise UnitError(f"{file_name}:{line_no}: unknown dimension {dimension_name!r} (known: {known})")
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
