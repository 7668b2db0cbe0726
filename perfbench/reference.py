"""Independent correctness reference and output classification.

The Gaussian reference composes the protocol's moment maps (squeeze,
rotate, damp, unsqueeze, damp) on the normally ordered moments
(<a^2>, <a^dag a>) in 40-digit decimal arithmetic, with the trigonometric
factors from mpmath at 50 digits.  The phase slope is carried through the
same composition as a forward-mode derivative, so no closed form of the
program is reused and no finite difference is taken.

``classify`` turns one CLI command and its output into counts: whether the
exit status was wrong (``failed``), how many output rows were compared with
the reference (``rows``) and how many of those fell outside tolerance
(``wrong``), plus ``problems`` that make the run's outputs incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext

import mpmath

#: Relative tolerance of a Gaussian-engine value against the reference.
GAUSSIAN_TOL = 1e-9
#: Floored relative tolerance of a Fock-engine value against the reference;
#: the program's own engine-equivalence budget.
FOCK_TOL = 1e-6
#: The program's limit on weight lost to Fock truncation (TRACE_DEFICIT_LIMIT).
TRACE_DEFICIT_TOL = 1e-8
#: Budget for ``max_rel_dev`` of ``table --oracle`` rows (validate's budget).
ORACLE_TOL = 1e-8
#: README headline ratios and their acceptance band (10%).
HEADLINES = {(15000.0, 0.001, 0.99): 5.0, (20000.0, 0.001, 0.95): 3.0}
HEADLINE_BAND = 0.10
#: A row off by more than this is gross breakage, not a precision defect,
#: and makes the outputs incorrect (Gaussian rows: inside the documented
#: sweep regime only).
GROSS_TOL = 1e-3
SWEEP_REGIME = {"n_bar": (1.0, 1e6), "phi": (1e-3, 1.0), "eta": (0.8, 0.99)}

TOLERANCES = {
    "gaussian_rel": GAUSSIAN_TOL,
    "fock_floored_rel": FOCK_TOL,
    "trace_deficit": TRACE_DEFICIT_TOL,
    "table_oracle_max_rel_dev": ORACLE_TOL,
    "headline_band": HEADLINE_BAND,
    "gross_rel": GROSS_TOL,
}

PROTOCOL_COLUMNS = [
    "engine", "n_bar", "r", "phi", "eta1", "eta2", "cutoff",
    "signal", "variance", "delta_phi", "delta_phi_is_limit",
    "m_aa_re", "m_aa_im", "snl", "snl_ratio", "trace_deficit",
]
SWEEP_COLUMNS = ["n_bar", "phi", "eta", "signal", "variance", "delta_phi", "snl", "snl_ratio"]
TABLE_COLUMNS = [
    "state_id", "n_bar", "q", "j", "qfi",
    "oracle_q", "oracle_j", "oracle_qfi", "max_rel_dev", "note",
]
TABLE_FAMILIES = 8


@dataclass(frozen=True)
class Point:
    """Reference values at one operating point (40-digit Decimals)."""

    signal: Decimal
    variance: Decimal
    m_aa: tuple  # (re, im) of <a^2>
    delta_phi: Decimal | None
    snl: Decimal
    n_bar: Decimal

    @property
    def r(self) -> Decimal:
        """asinh(sqrt(n_bar))."""
        with localcontext(CONTEXT):
            return (self.n_bar.sqrt() + (self.n_bar + 1).sqrt()).ln()


CONTEXT = Context(prec=40)
_trig_cache: dict = {}


def _trig(phi: float) -> tuple:
    """(cos 2phi, sin 2phi) from mpmath at 50 digits, cached per phi."""
    hit = _trig_cache.get(phi)
    if hit is None:
        with mpmath.workdps(50):
            two = 2 * mpmath.mpf(phi)
            hit = (Decimal(str(mpmath.cos(two))), Decimal(str(mpmath.sin(two))))
        _trig_cache[phi] = hit
    return hit


def _squeeze(ch2, sh2, cs, are, aim, m, dre, dim_, dm):
    # mode map a -> a ch r - a^dag sh r; cs = ch r sh r, negated for the inverse
    return (
        (ch2 + sh2) * are - 2 * cs * m - cs, (ch2 - sh2) * aim,
        -2 * cs * are + (ch2 + sh2) * m + sh2,
        (ch2 + sh2) * dre - 2 * cs * dm, (ch2 - sh2) * dim_,
        -2 * cs * dre + (ch2 + sh2) * dm,
    )


def _rotate(cos2, sin2, are, aim, m, dre, dim_, dm):
    # <a^2> -> <a^2> e^{-2i phi}; its phi-derivative gains -2i <a^2> e^{-2i phi}
    ure, uim = dre + 2 * aim, dim_ - 2 * are
    return (
        are * cos2 + aim * sin2, aim * cos2 - are * sin2, m,
        ure * cos2 + uim * sin2, uim * cos2 - ure * sin2, dm,
    )


def _damp(eta, *moments):
    return tuple(eta * x for x in moments)


def gaussian_point(n_bar: float, phi: float, eta1: float, eta2: float) -> Point:
    """Reference protocol values for n_bar = sinh^2 r at (phi, eta1, eta2).

    The state is (Re<a^2>, Im<a^2>, <a^dag a>) together with its derivative
    with respect to phi, pushed through squeeze(r), rotate(phi), damp(eta1),
    squeeze(-r), damp(eta2) from the vacuum.
    """
    with localcontext(CONTEXT):
        n = Decimal(n_bar)
        ch2, sh2 = n + 1, n  # cosh^2 r, sinh^2 r
        cs = (n * (n + 1)).sqrt()
        cos2, sin2 = _trig(phi)
        v = (Decimal(0),) * 6
        v = _squeeze(ch2, sh2, cs, *v)
        v = _rotate(cos2, sin2, *v)
        v = _damp(Decimal(eta1), *v)
        v = _squeeze(ch2, sh2, -cs, *v)
        are, aim, m, _, _, dm = _damp(Decimal(eta2), *v)
        variance = m * m + m + are * are + aim * aim
        return Point(
            signal=m, variance=variance, m_aa=(are, aim),
            delta_phi=variance.sqrt() / abs(dm) if dm else None,
            snl=1 / (4 * n).sqrt(), n_bar=n,
        )


def rel_dev(value: float, ref: Decimal) -> float:
    """|value - ref| / |ref| (absolute when ref is 0)."""
    with localcontext(CONTEXT):
        diff = abs(Decimal(value) - ref)
        return float(diff / abs(ref)) if ref else float(diff)


def complex_rel_dev(re: float, im: float, ref: tuple) -> float:
    """|z - ref| / |ref| for complex z = re + i im and ref = (re, im)."""
    with localcontext(CONTEXT):
        dre, dim_ = Decimal(re) - ref[0], Decimal(im) - ref[1]
        norm = (ref[0] ** 2 + ref[1] ** 2).sqrt()
        return float((dre * dre + dim_ * dim_).sqrt() / norm)


def floored_dev(value: float, ref: Decimal) -> float:
    """|value - ref| / max(|value|, |ref|, 1), the program's own measure."""
    with localcontext(CONTEXT):
        value = Decimal(value)
        return float(abs(value - ref) / max(abs(value), abs(ref), Decimal(1)))


@dataclass
class Verdict:
    failed: bool = False
    rows: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)


class Malformed(ValueError):
    """Output that does not follow the CLI's documented format."""


def _csv_rows(stdout: str, columns: list) -> list:
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# ") or lines[1].split(",") != columns:
        raise Malformed(f"expected '# meta' and header {','.join(columns)}")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    if any(None in row or None in row.values() for row in rows):
        raise Malformed("ragged csv row")
    return rows


def _num(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise Malformed(f"non-finite value {text!r}")
    return value


def _argv_value(argv: list, flag: str):
    return float(argv[argv.index(flag) + 1]) if flag in argv else None


def _in_sweep_regime(n_bar: float, phi: float, eta: float) -> bool:
    return all(lo <= x <= hi for x, (lo, hi) in zip(
        (n_bar, phi, eta), SWEEP_REGIME.values()))


def _gaussian_devs(row: dict, ref: Point) -> float:
    devs = [
        rel_dev(_num(row["signal"]), ref.signal),
        rel_dev(_num(row["variance"]), ref.variance),
        rel_dev(_num(row["delta_phi"]), ref.delta_phi),
        rel_dev(_num(row["snl"]), ref.snl),
        rel_dev(_num(row["snl_ratio"]), ref.snl / ref.delta_phi),
    ]
    if "m_aa_re" in row:
        devs.append(complex_rel_dev(_num(row["m_aa_re"]), _num(row["m_aa_im"]), ref.m_aa))
        devs.append(rel_dev(_num(row["r"]), ref.r))
    return max(devs)


def _score(verdict: Verdict, dev: float, tol: float, gross_tol: float | None, what: str) -> None:
    """Count one row; a deviation beyond ``gross_tol`` also makes the outputs incorrect."""
    verdict.rows += 1
    if not dev <= tol:
        verdict.wrong += 1
    if gross_tol is not None and not dev <= gross_tol:
        verdict.problems.append(f"{what}: deviation {dev:.3e} beyond {gross_tol:g}")


def _check_protocol(argv: list, stdout: str, verdict: Verdict) -> None:
    rows = _csv_rows(stdout, PROTOCOL_COLUMNS)
    engine = argv[argv.index("--engine") + 1] if "--engine" in argv else "gaussian"
    expected = ["gaussian", "fock"] if engine == "both" else [engine]
    if [row["engine"] for row in rows] != expected:
        raise Malformed(f"expected engine rows {expected}")
    n_bar, phi = _argv_value(argv, "--nbar"), _argv_value(argv, "--phi")
    eta = _argv_value(argv, "--eta")
    eta1 = eta if eta is not None else _argv_value(argv, "--eta1") or 1.0
    eta2 = eta if eta is not None else _argv_value(argv, "--eta2") or 1.0
    for row in rows:
        if (_num(row["n_bar"]), _num(row["phi"]), _num(row["eta1"]), _num(row["eta2"])) != (
                n_bar, phi, eta1, eta2):
            raise Malformed("row does not echo its operating point")
    ref = gaussian_point(n_bar, phi, eta1, eta2)
    for row in rows:
        if row["engine"] == "gaussian":
            gross = GROSS_TOL if eta1 == eta2 and _in_sweep_regime(n_bar, phi, eta1) else None
            _score(verdict, _gaussian_devs(row, ref), GAUSSIAN_TOL, gross, " ".join(argv))
            key = (n_bar, phi, eta1)
            if key in HEADLINES and eta1 == eta2:
                ratio = _num(row["snl_ratio"])
                if abs(ratio - HEADLINES[key]) > HEADLINE_BAND * HEADLINES[key]:
                    verdict.problems.append(f"headline ratio {ratio} at {key}")
        else:
            dev = max(
                floored_dev(_num(row["signal"]), ref.signal),
                floored_dev(_num(row["variance"]), ref.variance),
                floored_dev(_num(row["m_aa_re"]), ref.m_aa[0]),
                floored_dev(_num(row["m_aa_im"]), ref.m_aa[1]),
            )
            if not 0.0 <= _num(row["trace_deficit"]) <= TRACE_DEFICIT_TOL:
                dev = math.inf  # lost more weight than the program's own limit
            _score(verdict, dev, FOCK_TOL, GROSS_TOL, " ".join(argv))


def _check_sweep(argv: list, stdout: str, verdict: Verdict) -> None:
    rows = _csv_rows(stdout, SWEEP_COLUMNS)
    phis = [float(x) for x in argv[argv.index("--phi") + 1].split(",")]
    etas = [float(x) for x in argv[argv.index("--eta") + 1].split(",")]
    if "--nbar-logspace" in argv:
        i = argv.index("--nbar-logspace")
        lo, hi, count = (float(x) for x in argv[i + 1:i + 4])
        n_bars = [lo * (hi / lo) ** (k / max(count - 1, 1)) for k in range(int(count))]
    else:
        n_bars = [float(x) for x in argv[argv.index("--nbar") + 1].split(",")]
    grid = [(n, p, e) for n in n_bars for p in phis for e in etas]
    if len(rows) != len(grid):
        raise Malformed(f"{len(rows)} sweep rows for a grid of {len(grid)}")
    for row, (n, p, e) in zip(rows, grid):
        n_out, p_out, e_out = _num(row["n_bar"]), _num(row["phi"]), _num(row["eta"])
        if abs(n_out - n) > 1e-12 * n or (p_out, e_out) != (p, e):
            raise Malformed("sweep rows out of grid order")
        ref = gaussian_point(n_out, p, e, e)
        gross = GROSS_TOL if _in_sweep_regime(n_out, p, e) else None
        _score(verdict, _gaussian_devs(row, ref), GAUSSIAN_TOL, gross,
               f"sweep point {(n_out, p, e)}")


def _check_table(argv: list, stdout: str, verdict: Verdict) -> None:
    rows = _csv_rows(stdout, TABLE_COLUMNS)
    if len(rows) != TABLE_FAMILIES:
        raise Malformed(f"{len(rows)} table rows, expected {TABLE_FAMILIES}")
    for row in rows:
        if row["note"].startswith("closed form unavailable"):
            continue
        for col in ("q", "j", "qfi"):
            _num(row[col])
        if "--oracle" not in argv or row["note"] == "formula-only":
            continue
        dev = _num(row["max_rel_dev"]) if row["max_rel_dev"] else math.inf
        _score(verdict, dev, ORACLE_TOL, GROSS_TOL, f"oracle row {row['state_id']}")


def _check_validate(argv: list, stdout: str, verdict: Verdict) -> None:
    try:
        report = json.loads(stdout)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        raise Malformed(f"validate report: {exc}") from exc
    for check in checks:
        ok = check["passed"] and check["observed"] <= check["budget"]
        _score(verdict, 0.0 if ok else math.inf, 0.0, 0.0, f"validate {check['name']}")


CHECKERS = {
    "protocol": _check_protocol,
    "sweep": _check_sweep,
    "table": _check_table,
    "validate": _check_validate,
}


def classify(argv: list, valid: bool, code: int, stdout: str) -> Verdict:
    """Judge one command: exit status against validity, then rows against the reference.

    ``valid`` says whether the reference considers the input inside the
    physical domain: such a command must exit 0, any other must exit 2.
    """
    verdict = Verdict()
    verdict.failed = code != (0 if valid else 2)
    if code < 0 or code not in (0, 1, 2):
        verdict.problems.append(f"{' '.join(argv)}: exit status {code}")
    if verdict.failed or not valid:
        return verdict
    try:
        CHECKERS[argv[0]](argv, stdout, verdict)
    except (ValueError, KeyError) as exc:  # Malformed is a ValueError
        verdict.problems.append(f"{' '.join(argv)}: malformed output ({exc})")
    return verdict
