import math

from qmetro import fock, gaussian, validate


def test_quick_suite_structure_and_verdict():
    report = validate.run_checks("quick")
    assert report["passed"] is True
    assert report["level"] == "quick"
    names = [c["name"] for c in report["checks"]]
    assert "table-oracle-agreement" in names
    assert "engine-equivalence" in names
    assert "noisy-phase-error-transcription" in names
    assert "squeeze-closed-form" in names
    for check in report["checks"]:
        assert check["observed"] <= check["budget"]


def test_tampered_phase_error_coefficient_is_caught(monkeypatch):
    # corrupt the shot-noise coefficient of Var n = S^2 + S + |<a^2>|^2 in the
    # kernel; the transcription check must name the identity
    original = gaussian.protocol_point

    def tampered(n_bar, phi, eta1=1.0, eta2=1.0):
        point = original(n_bar, phi, eta1, eta2)
        variance = point.signal**2 + 1.01 * point.signal + abs(point.m_aa) ** 2
        error = point.phase_error * math.sqrt(variance / point.variance)
        return point._replace(variance=variance, phase_error=error)

    monkeypatch.setattr(gaussian, "protocol_point", tampered)
    report = validate.run_checks("quick")
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "noisy-phase-error-transcription" in failed
    assert report["passed"] is False


def test_tampered_slope_coefficient_is_caught(monkeypatch):
    # the reference route takes its slope from the moment pass, not from the
    # kernel, so a slip in 4 eta1 eta2 n (n+1) sin 2phi cannot cancel out
    original = gaussian.protocol_point

    def tampered(n_bar, phi, eta1=1.0, eta2=1.0):
        point = original(n_bar, phi, eta1, eta2)
        return point._replace(slope=1.01 * point.slope, phase_error=point.phase_error / 1.01)

    monkeypatch.setattr(gaussian, "protocol_point", tampered)
    observed, _ = validate.check_phase_error_transcription(samples=5)
    assert observed > 1e-3


def test_tampered_row_kernel_is_caught(monkeypatch):
    # protocol_point is a view of protocol_row, the kernel sweep calls, so a
    # slip in the row kernel's variance reaches the transcription check
    original = gaussian.protocol_row

    def tampered(n_bar, phi, eta_pairs):
        return [
            (s, 1.01 * v, aa, slope, None if e is None else e * math.sqrt(1.01), lim)
            for s, v, aa, slope, e, lim in original(n_bar, phi, eta_pairs)
        ]

    monkeypatch.setattr(gaussian, "protocol_row", tampered)
    observed, _ = validate.check_phase_error_transcription(samples=5)
    assert observed > 1e-3


def test_full_suite_passes():
    report = validate.run_checks("full")
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "qcrb-saturation" in names
    assert list(report) == ["level", "passed", "checks"]
    for check in report["checks"]:
        assert list(check) == ["name", "passed", "budget", "observed", "detail"]
    # the Heisenberg readout on the padded probe leaves only rounding
    engine = report["checks"][names.index("engine-equivalence")]
    assert engine["observed"] <= 1e-9


def test_headline_check_reports_values():
    observed, detail = validate.check_headline_ratios()
    assert observed < 0.10
    assert "target 5" in detail and "target 3" in detail


def test_projection_check():
    observed, _ = validate.check_two_photon_projection()
    assert observed < 1e-10


def test_squeeze_closed_form_check_catches_a_wrong_unitary(monkeypatch):
    # the protocol's probe no longer goes through the numerical squeeze, so
    # this check keeps the unitary under the quick suite
    observed, _ = validate.check_squeeze_closed_form()
    assert observed <= 1e-12
    original = fock._apply_squeeze
    monkeypatch.setattr(fock, "_apply_squeeze", lambda block, r: original(block, 1.001 * r))
    observed, _ = validate.check_squeeze_closed_form()
    assert observed > 1e-6
