"""Command-line front end.

Subcommands: eval, props, pca, scan, zeros, report.  Reports are written
atomically (temp file + rename) as deterministic CSV or JSON; machine output
goes to --output (or stdout when omitted), human summaries go to stderr, and
`eval` prints a human-readable line to stdout.

Exit codes: 0 success/clean scan; 2 bound violation found under --strict;
3 numerical cross-check or convergence failure; 64 usage error or out of
memory; 74 I/O error.
`report --compare` exits 1 when the inputs differ.
"""

from __future__ import annotations

import argparse
import re
import sys

from .decomposition import DEFAULT_THETA, decompose_from_eta
from .eta import ENGINES, ComplexPoint, eta_eval
from .exceptions import DomainError, EtaFloorError
from .propositions import run_all_suites
from .reporting import (
    EvalReport,
    PcaReport,
    PropsReport,
    ZerosReport,
    merge_reports,
    parse_report_json,
    serialize_report,
    write_report_bytes,
)
from .scanner import (DEFAULT_SCAN_TOL, DEFAULT_ZERO_TOL, decompose_line, scan_grid, scan_line,
                      survey_zeros, zero_geometry)

__all__ = ["UsageError", "parse_args", "main"]

EXIT_OK = 0
EXIT_COMPARE_DIFFERS = 1
EXIT_VIOLATION = 2
EXIT_CROSS_CHECK = 3
EXIT_USAGE = 64
EXIT_IO = 74


class UsageError(DomainError):
    """Invalid command line or parameter combination."""


def parse_complex_literal(text: str) -> ComplexPoint:
    """Parse `a`, `a+bi`, `a-bi`, or `bi` into a point."""
    t = text.strip().replace(" ", "")
    if not t:
        raise UsageError("empty complex literal")
    try:
        if "j" in t.lower() or "(" in t:  # complex()'s own spellings are not literals here
            raise ValueError
        z = complex(t[:-1] + "j" if t[-1] in "iI" else t)
    except ValueError:
        raise UsageError(f"cannot parse complex literal {text!r} (expected a+bi)") from None
    return ComplexPoint(z.real, z.imag)


def parse_range(text: str, name: str) -> tuple[float, float]:
    """Parse `lo:hi` (or a single number, meaning a degenerate range)."""
    t = text.strip()
    try:
        if ":" in t:
            lo_text, hi_text = t.split(":", 1)
            lo, hi = float(lo_text), float(hi_text)
        else:
            lo = hi = float(t)
    except ValueError:
        raise UsageError(f"cannot parse {name} range {text!r} (expected lo:hi)") from None
    return lo, hi


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1+0i, -1:1, -i, -inf and -nan are values, not options
        self._negative_number_matcher = re.compile(r"-\.?\d|-(?:i|inf|nan)$", re.IGNORECASE)

    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="etafloor",
                     description="Dirichlet eta engines and the floor-hypothesis scanner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_default="csv"):
        p.add_argument("--output", default=None, dest="output_path", metavar="OUTPUT",
                       help="report path ('-' for stdout)")
        p.add_argument("--format", default=fmt_default, choices=("csv", "json"),
                       dest="output_format")

    p_eval = sub.add_parser("eval", help="evaluate eta(s) with an error certificate")
    p_eval.add_argument("--s", required=True, help="point, e.g. 0.5+14.1347i")
    p_eval.add_argument("--tol", type=float, default=1e-12)
    p_eval.add_argument("--engine", default="checked", choices=ENGINES)
    add_common(p_eval, fmt_default="json")

    p_props = sub.add_parser("props", help="run the randomized proposition suites")
    p_props.add_argument("--cases", type=int, default=10_000)
    p_props.add_argument("--seed", type=int, default=0)
    add_common(p_props)

    p_pca = sub.add_parser("pca", help="tail decomposition at a point or along a line")
    p_pca.add_argument("--s", default=None, help="single point a+bi")
    p_pca.add_argument("--alpha", default=None, dest="alpha_range", metavar="ALPHA",
                       help="line alpha (with --beta lo:hi)")
    p_pca.add_argument("--beta", default=None, dest="beta_range", metavar="BETA",
                       help="beta range lo:hi")
    p_pca.add_argument("--step", type=float, default=None)
    p_pca.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_pca.add_argument("--tol", type=float, default=1e-10)
    p_pca.add_argument("--engine", default="checked", choices=ENGINES)
    add_common(p_pca)

    p_scan = sub.add_parser("scan", help="scan |eta| against the candidate floor")
    p_scan.add_argument("--alpha", required=True, dest="alpha_range", metavar="ALPHA",
                        help="alpha or alpha range lo:hi")
    p_scan.add_argument("--alpha-step", type=float, default=0.05, dest="alpha_step")
    p_scan.add_argument("--beta", required=True, dest="beta_range", metavar="BETA",
                        help="beta range lo:hi")
    p_scan.add_argument("--step", type=float, default=0.01)
    p_scan.add_argument("--tol", type=float, default=DEFAULT_SCAN_TOL)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--engine", default="checked", choices=ENGINES)
    p_scan.add_argument("--strict", action="store_true")
    add_common(p_scan)

    p_zeros = sub.add_parser("zeros", help="locate critical-line zeros in a t range")
    p_zeros.add_argument("--t", required=True, dest="t_range", metavar="T",
                         help="ordinate range lo:hi")
    p_zeros.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL)
    p_zeros.add_argument("--workers", type=int, default=1)
    p_zeros.add_argument("--engine", default="checked", choices=ENGINES)
    add_common(p_zeros)

    p_report = sub.add_parser("report", help="merge or compare prior JSON reports")
    p_report.add_argument("inputs", nargs="+", help="JSON report files")
    p_report.add_argument("--compare", action="store_true",
                          help="compare exactly two reports instead of merging")
    add_common(p_report, fmt_default="json")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse and check one command line; the namespace is the run configuration.

    Complex literals and ranges are converted in place, and the parameter
    combinations argparse cannot check raise UsageError.
    """
    ns = _build_parser().parse_args(argv)
    if ns.command == "pca":
        if (ns.s is None) == (ns.alpha_range is None):
            raise UsageError("pca needs either --s or --alpha with --beta")
        if ns.s is None and ns.beta_range is None:
            raise UsageError("pca line mode needs --beta lo:hi")
        if ns.s is not None and (ns.beta_range, ns.step) != (None, None):
            raise UsageError("pca point mode takes no --beta or --step")
    if getattr(ns, "s", None) is not None:
        ns.s = parse_complex_literal(ns.s)
    if getattr(ns, "alpha_range", None) is not None:
        ns.alpha_range = parse_range(ns.alpha_range, "alpha")
        if ns.command == "pca" and ns.alpha_range[0] != ns.alpha_range[1]:
            raise UsageError("pca line mode takes a single alpha")
        ns.beta_range = parse_range(ns.beta_range, "beta")
    if ns.command == "zeros":
        ns.t_range = parse_range(ns.t_range, "t")
    if ns.command == "report" and ns.compare and len(ns.inputs) != 2:
        raise UsageError("--compare needs exactly two input reports")
    return ns


def _emit(report, cfg: argparse.Namespace) -> None:
    data = serialize_report(report, cfg.output_format)
    write_report_bytes(data, "-" if cfg.output_path is None else cfg.output_path)


def _fmt_point(p: ComplexPoint) -> str:
    sign = "+" if p.beta >= 0 else "-"
    return f"{p.alpha:g}{sign}{abs(p.beta):g}i"


def _run_eval(cfg: argparse.Namespace) -> int:
    result = eta_eval(cfg.s, cfg.tol, cfg.engine)
    v = result.value
    print(
        f"eta({_fmt_point(cfg.s)}) = {v.real:.15g}{'+' if v.imag >= 0 else '-'}"
        f"{abs(v.imag):.15g}i  |eta| = {abs(v):.15g}  "
        f"± {result.abs_error_estimate:.3g}  [{result.method}, {result.terms_used} terms]"
    )
    if cfg.output_path is not None:
        _emit(EvalReport(cfg.s, cfg.tol, cfg.engine, result), cfg)
    return EXIT_OK


def _run_props(cfg: argparse.Namespace) -> int:
    rows = run_all_suites(cfg.cases, cfg.seed)
    report = PropsReport(cases=cfg.cases, seed=cfg.seed, rows=tuple(rows))
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(
            f"{row.proposition}: {row.cases} cases, {row.failures} failures, "
            f"worst violation {row.worst_violation:.3g} [{status}]",
            file=sys.stderr,
        )
    _emit(report, cfg)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CROSS_CHECK


def _run_pca(cfg: argparse.Namespace) -> int:
    if cfg.s is not None:
        rows = (decompose_from_eta(cfg.s, eta_eval(cfg.s, cfg.tol, cfg.engine).value, cfg.theta),)
    else:
        step = 1.0 if cfg.step is None else cfg.step
        rows = tuple(decompose_line(cfg.alpha_range[0], *cfg.beta_range, step, cfg.tol,
                                    theta=cfg.theta, engine=cfg.engine))
    _emit(PcaReport(tol=cfg.tol, rows=rows), cfg)
    return EXIT_OK


def _run_scan(cfg: argparse.Namespace) -> int:
    a_lo, a_hi = cfg.alpha_range
    if a_lo == a_hi:
        report = scan_line(
            a_lo, cfg.beta_range[0], cfg.beta_range[1], cfg.step, cfg.tol,
            workers=cfg.workers, engine=cfg.engine,
        )
        lines = (report,)
    else:
        report = scan_grid(
            cfg.alpha_range, cfg.beta_range, cfg.alpha_step, cfg.step, cfg.tol,
            workers=cfg.workers, engine=cfg.engine,
        )
        lines = report.lines
    n_failures = sum(len(ln.failures) for ln in lines)
    n_violations = sum(len(ln.violations) for ln in lines)
    print(
        f"scan: {sum(len(ln.samples) for ln in lines)} samples, "
        f"min |eta| = {min(ln.min_eta_abs for ln in lines):.6g}, "
        f"{n_violations} violations, {n_failures} failures",
        file=sys.stderr,
    )
    _emit(report, cfg)
    if n_failures:
        return EXIT_CROSS_CHECK
    if cfg.strict and n_violations:
        return EXIT_VIOLATION
    return EXIT_OK


def _run_zeros(cfg: argparse.Namespace) -> int:
    records = survey_zeros(
        cfg.t_range[0], cfg.t_range[1], cfg.tol,
        workers=cfg.workers, engine=cfg.engine,
    )
    rows = tuple(map(zero_geometry, records))
    print(f"zeros: {len(rows)} accepted in t range {cfg.t_range}", file=sys.stderr)
    _emit(ZerosReport(t_range=cfg.t_range, tol=cfg.tol, rows=rows), cfg)
    return EXIT_OK


def _run_report(cfg: argparse.Namespace) -> int:
    loaded = []
    for path in cfg.inputs:
        with open(path, "rb") as handle:
            loaded.append(parse_report_json(handle.read()))
    if cfg.compare:
        equal = loaded[0] == loaded[1]
        print("reports are equal" if equal else "reports differ", file=sys.stderr)
        return EXIT_OK if equal else EXIT_COMPARE_DIFFERS
    _emit(merge_reports(loaded), cfg)
    return EXIT_OK


_RUNNERS = {
    "eval": _run_eval,
    "props": _run_props,
    "pca": _run_pca,
    "scan": _run_scan,
    "zeros": _run_zeros,
    "report": _run_report,
}


def main(argv=None) -> int:
    """Run one command line; exceptions map to the exit contract."""
    try:
        cfg = parse_args(argv)
        return _RUNNERS[cfg.command](cfg)
    except UsageError as exc:
        print(f"etafloor: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"etafloor: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EtaFloorError as exc:
        print(f"etafloor: numerical failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except OSError as exc:
        print(f"etafloor: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # exits 64, as a grid too large for a list does
        print(f"etafloor: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
