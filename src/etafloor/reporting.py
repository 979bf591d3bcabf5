"""Bit-stable CSV/JSON report emission and parsing.

Determinism contract: a structurally equal report serializes to identical
bytes regardless of worker count or evaluation order.  Numbers are written as
Python's shortest round-trip decimal for binary64, line endings are "\n",
encoding is UTF-8, column order is fixed, and JSON key order follows the
declared field order (never hash order).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import tempfile
import typing
from enum import Enum

from .eta import ComplexPoint, EvalResult
from .propositions import PropSuiteResult
from .decomposition import TailDecomposition
from .scanner import GridReport, LineScanReport, ZeroRow
from .exceptions import DomainError

__all__ = ["EvalReport", "PropsReport", "PcaReport", "ZerosReport", "serialize_report",
           "parse_report_json", "merge_reports", "write_report_bytes", "SCAN_CSV_HEADER"]

SCHEMA_VERSION = 1

SCAN_CSV_HEADER = "alpha,beta,eta_abs,floor,margin,tail_abs,tail_bound,leading,tail_ineq_holds"
EVAL_CSV_HEADER = "alpha,beta,value_re,value_im,abs_error_estimate,method,terms_used"
PROPS_CSV_HEADER = "proposition,cases,failures,worst_violation,seed,passed"
PCA_CSV_HEADER = ("alpha,beta,theta,tail_re,tail_im,tail3_re,tail3_im,"
                  "w,w1,w2,variance1,variance2,inner_product,leading")
ZEROS_CSV_HEADER = "t,residual,engine_gap,bracket_lo,bracket_hi,angle,in_claimed_range"


@dataclasses.dataclass(frozen=True)
class EvalReport:
    s: ComplexPoint
    tol: float
    engine: str
    result: EvalResult


@dataclasses.dataclass(frozen=True)
class PropsReport:
    cases: int
    seed: int
    rows: tuple[PropSuiteResult, ...]


@dataclasses.dataclass(frozen=True)
class PcaReport:
    tol: float
    rows: tuple[TailDecomposition, ...]


@dataclasses.dataclass(frozen=True)
class ZerosReport:
    t_range: tuple[float, float]
    tol: float
    rows: tuple[ZeroRow, ...]


# report type -> (JSON kind, CSV header, CSV rows of a report, cells of a row);
# a cell is text, an int, or a float(), which "%s" writes as its shortest round trip
_SCHEMAS = {
    LineScanReport: ("line_scan", SCAN_CSV_HEADER, lambda r: r.samples, lambda b: (
        float(b.s.alpha), float(b.s.beta), float(b.eta_abs), float(b.floor),
        float(b.margin), float(b.tail_abs), float(b.tail_bound), b.leading.value,
        "true" if b.tail_ineq_holds else "false")),
    EvalReport: ("eval", EVAL_CSV_HEADER, lambda r: (r,), lambda r: (
        float(r.s.alpha), float(r.s.beta), float(r.result.value.real),
        float(r.result.value.imag), float(r.result.abs_error_estimate), r.result.method,
        r.result.terms_used)),
    PropsReport: ("props", PROPS_CSV_HEADER, lambda r: r.rows, lambda p: (
        p.proposition, p.cases, p.failures, float(p.worst_violation), p.seed,
        "true" if p.passed else "false")),
    PcaReport: ("pca", PCA_CSV_HEADER, lambda r: r.rows, lambda d: (
        float(d.s.alpha), float(d.s.beta), float(d.theta), float(d.tail.real),
        float(d.tail.imag), float(d.tail3.real), float(d.tail3.imag), float(d.w), float(d.w1),
        float(d.w2), float(d.variance1), float(d.variance2), float(d.inner_product),
        d.leading.value)),
    ZerosReport: ("zeros", ZEROS_CSV_HEADER, lambda r: r.rows, lambda z: (
        float(z.t), float(z.residual), float(z.engine_gap), float(z.bracket[0]),
        float(z.bracket[1]), float(z.angle),
        "true" if z.in_claimed_range else "false")),
}
_SCHEMAS[GridReport] = ("grid_scan", SCAN_CSV_HEADER,  # the rows of every line, in order
                        lambda r: [b for ln in r.lines for b in ln.samples],
                        _SCHEMAS[LineScanReport][3])
_REPORT_OF_KIND = {schema[0]: cls for cls, schema in _SCHEMAS.items()}
# JSON's one departure from the field layout: members inlined into their parent
_INLINED = {(EvalReport, "result")}


@functools.cache
def _plan(cls) -> tuple[tuple[str, bool, typing.Any, typing.Callable], ...]:
    """(field name = JSON key, inlined, type, reader) per field, in declared order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, (cls, f.name) in _INLINED, hints[f.name], _reader(hints[f.name]))
                 for f in dataclasses.fields(cls))


def _json_default(value, out: dict | None = None):
    """JSON encoder hook for dataclasses and complex numbers; inlined members fill `out`."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    cls = value.__class__
    if out is None:
        out = {"kind": _SCHEMAS[cls][0], "schema": SCHEMA_VERSION} if cls in _SCHEMAS else {}
    for name, inlined, _, _ in _plan(cls):
        if inlined:
            _json_default(getattr(value, name), out)
        else:
            out[name] = getattr(value, name)
    return out


def _read_leaf(hint: type, value):
    """A JSON scalar as a `hint` (float, int, bool or str); integers pass as floats."""
    if value.__class__ is hint or (hint is float and value.__class__ is int):
        return hint(value)
    raise TypeError(f"expected {hint.__name__}, got {value!r}")


def _reader(hint):
    """The function from a JSON value to the value of a field typed `hint`."""
    if hint is complex:
        return lambda obj: complex(_read_leaf(float, obj["re"]), _read_leaf(float, obj["im"]))
    if hint in (float, int, bool, str):
        return functools.partial(_read_leaf, hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint
    if dataclasses.is_dataclass(hint):
        return functools.partial(_from_json, hint)
    args = typing.get_args(hint)  # tuple[X, ...] or tuple[X, Y]
    items = [_reader(a) for a in args if a is not Ellipsis]
    variadic = args[-1] is Ellipsis

    def read_tuple(value):
        if not isinstance(value, list) or not (variadic or len(value) == len(items)):
            raise TypeError(f"expected {hint}, got {value!r}")
        return tuple(read(x) for read, x in zip(items * len(value) if variadic else items, value))
    return read_tuple


def _from_json(cls, obj):
    # a JSON value that already has its field's type needs no reader
    return cls(**{name: value if (value := obj if inlined else obj[name]).__class__ is hint
                  else read(value) for name, inlined, hint, read in _plan(cls)})


def serialize_report(report, output_format: str = "json") -> bytes:
    """Deterministic bytes for a report; identical report -> identical bytes."""
    if output_format not in ("json", "csv"):
        raise DomainError(f"unknown output format {output_format!r}; expected csv or json")
    if type(report) not in _SCHEMAS:
        raise DomainError(f"no {output_format.upper()} schema for {type(report).__name__}")
    if output_format == "json":
        return (json.dumps(report, separators=(",", ":"), default=_json_default) + "\n").encode()
    _, header, rows, cells = _SCHEMAS[type(report)]
    line = ",".join(["%s"] * (header.count(",") + 1)) + "\n"
    return (header + "\n" + "".join([line % cells(row) for row in rows(report)])).encode()


def parse_report_json(data: bytes | str):
    """Inverse of serialize_report(..., 'json'): structurally equal round trip.
    Anything but a well-formed schema-1 report raises DomainError."""
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise DomainError(f"report is not JSON: {exc}") from None
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _REPORT_OF_KIND:
        raise DomainError(f"not a report: unknown kind {kind!r}")
    if obj.get("schema") != SCHEMA_VERSION:
        raise DomainError(f"unsupported {kind} report schema {obj.get('schema')!r}")
    try:
        return _from_json(_REPORT_OF_KIND[kind], obj)
    except KeyError as exc:
        raise DomainError(f"malformed {kind} report: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed {kind} report: {exc}") from None


def merge_reports(reports: list):
    """Merge scan reports into a GridReport, or zeros reports into one report.

    Line reports are ordered by (alpha, beta_range); zeros rows by ordinate.
    """
    if not reports:
        raise DomainError("nothing to merge")
    if all(isinstance(r, (LineScanReport, GridReport)) for r in reports):
        lines: list[LineScanReport] = []
        for r in reports:
            lines.extend(r.lines if isinstance(r, GridReport) else [r])
        lines.sort(key=lambda ln: (ln.alpha, ln.beta_range))
        return GridReport.from_lines(lines)
    if all(isinstance(r, ZerosReport) for r in reports):
        rows = sorted((row for r in reports for row in r.rows), key=lambda z: z.t)
        return ZerosReport(
            t_range=(min(r.t_range[0] for r in reports), max(r.t_range[1] for r in reports)),
            tol=max(r.tol for r in reports),
            rows=tuple(rows),
        )
    raise DomainError("can only merge scan reports together or zeros reports together")


def write_report_bytes(data: bytes, output_path: str) -> None:
    """Atomic write: temp file in the destination directory, then rename."""
    if output_path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(output_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".etafloor-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, output_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
