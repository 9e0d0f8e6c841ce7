"""Scan containers and their CSV/JSON serialization.

Every sweep in this package (detuning spectra, spatial spectra, transport
curves, adiabaticity profiles) produces a :class:`ScanResult`: an ordered
table of abscissa values, transfer probabilities and optional sampling
errors.  The abscissa is stored in the scan's native unit ("khz", "um",
"inv_tau_per_ms", "ms") and the unit travels with the data.

CSV layout, generic scans::

    abscissa,khz,p1,stderr
    -65.0,khz,0.00012,
    -64.0,khz,0.00016,

i.e. the unit is both the second header field and a constant second column,
so the file round-trips without side-channel metadata.  Transport curves use
the three-column layout ``inv_tau_per_ms,p1,stderr``.  All floats are written
with ``repr`` (shortest round-trip form, '.' decimal separator, no locale).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["TRANSPORT_UNIT", "ScanResult"]

TRANSPORT_UNIT = "inv_tau_per_ms"

# Transport curves use a fixed three-column layout; everything else gets the
# generic four-column layout with the unit repeated per row.
_TRANSPORT_HEADER = f"{TRANSPORT_UNIT},p1,stderr"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _parse_float(field: str, line: str) -> float:
    try:
        return float(field)
    except ValueError as exc:
        raise ConfigError(f"non-numeric CSV field {field!r} in row {line!r}") from exc


@dataclass(frozen=True)
class ScanResult:
    """Ordered samples (abscissa, p1, optional stderr) of one sweep.

    abscissa : native-unit values, one per sample
    p1       : transfer probability per sample
    stderr   : sampling standard error per sample, or None when the scan
               is deterministic (no ensemble averaging involved)
    unit     : abscissa unit tag, e.g. "khz" or "um"
    """

    abscissa: np.ndarray
    p1: np.ndarray
    stderr: np.ndarray | None = None
    unit: str = "khz"

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.abscissa, dtype=float))
        p = np.atleast_1d(np.asarray(self.p1, dtype=float))
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "p1", p)
        if a.ndim != 1 or p.ndim != 1:
            raise ConfigError("scan arrays must be one-dimensional")
        if a.size == 0:
            raise ConfigError("scan must contain at least one sample")
        if a.size != p.size:
            raise ConfigError(
                f"abscissa ({a.size}) and p1 ({p.size}) lengths differ"
            )
        if not np.all(np.isfinite(a)):
            raise ConfigError("abscissa contains non-finite values")
        if self.stderr is not None:
            s = np.atleast_1d(np.asarray(self.stderr, dtype=float))
            if s.size != a.size:
                raise ConfigError(
                    f"stderr ({s.size}) and abscissa ({a.size}) lengths differ"
                )
            object.__setattr__(self, "stderr", s)
        if not isinstance(self.unit, str) or not self.unit:
            raise ConfigError("unit must be a non-empty string")

    def __len__(self) -> int:
        return int(self.abscissa.size)

    # ---------------------------------------------------------------- CSV

    def to_csv_text(self) -> str:
        """Render the scan as CSV text (trailing newline included)."""
        if self.unit == TRANSPORT_UNIT:
            header, unit = _TRANSPORT_HEADER, ""
        else:
            header, unit = f"abscissa,{self.unit},p1,stderr", f"{self.unit},"
        buf = io.StringIO()
        buf.write(header + "\n")
        for i in range(len(self)):
            err = "" if self.stderr is None else _fmt(self.stderr[i])
            buf.write(f"{_fmt(self.abscissa[i])},{unit}{_fmt(self.p1[i])},{err}\n")
        return buf.getvalue()

    def to_csv(self, path: str | Path) -> None:
        # newline="" so the text is written byte-for-byte on every platform
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv_text(cls, text: str) -> "ScanResult":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ConfigError("empty CSV")
        header = [h.strip() for h in lines[0].split(",")]
        if header == _TRANSPORT_HEADER.split(","):
            unit = TRANSPORT_UNIT
            icol, pcol, ecol = 0, 1, 2
            ncol = 3
        elif len(header) == 4 and header[0] == "abscissa" and header[2:] == ["p1", "stderr"]:
            unit = header[1]
            icol, pcol, ecol = 0, 2, 3
            ncol = 4
        else:
            raise ConfigError(f"unrecognized CSV header: {lines[0]!r}")
        xs: list[float] = []
        ps: list[float] = []
        es: list[float] = []
        have_err = False
        for ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != ncol:
                raise ConfigError(f"malformed CSV row: {ln!r}")
            if ncol == 4 and fields[1].strip() != unit:
                raise ConfigError(
                    f"unit column {fields[1]!r} disagrees with header {unit!r}"
                )
            xs.append(_parse_float(fields[icol], ln))
            ps.append(_parse_float(fields[pcol], ln))
            if fields[ecol].strip():
                have_err = True
                es.append(_parse_float(fields[ecol], ln))
            else:
                es.append(np.nan)
        stderr = np.array(es) if have_err else None
        return cls(np.array(xs), np.array(ps), stderr, unit)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ScanResult":
        try:
            text = Path(path).read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not ASCII text: {exc}") from exc
        return cls.from_csv_text(text)

    # --------------------------------------------------------------- JSON

    def to_json(self, path: str | Path) -> None:
        """Write {"unit", "abscissa", "p1", "stderr"} (stderr null when
        absent) as indented JSON."""
        doc = {
            "unit": self.unit,
            "abscissa": self.abscissa.tolist(),
            "p1": self.p1.tolist(),
            "stderr": None if self.stderr is None else self.stderr.tolist(),
        }
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
