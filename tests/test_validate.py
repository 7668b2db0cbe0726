import math

from qmetro import fock, gaussian, validate


def test_suite_structure_and_verdict():
    report = validate.run_checks()
    assert report["passed"] is True
    assert list(report) == ["passed", "checks"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "table-closed-form-identity", "table-oracle-agreement", "engine-equivalence",
        "noisy-phase-error-transcription", "lossless-signal-identity", "headline-snl-ratios",
        "error-propagation-limit", "two-photon-projection", "squeeze-closed-form",
        "table-oracle-entangled-coherent", "qcrb-saturation",
    ]
    for check in report["checks"]:
        assert list(check) == ["name", "passed", "budget", "observed", "detail"]
        assert check["observed"] <= check["budget"]
    # the complete grids: 3 r x 3 phi x 6 eta pairs, 100 transcription samples
    detail = {c["name"]: c["detail"] for c in report["checks"]}
    assert detail["engine-equivalence"] == "54 grid points at cutoff 60"
    assert detail["noisy-phase-error-transcription"].startswith("100 random")
    assert detail["error-propagation-limit"] == "n_bar in (0.5, 1.0, 2.0, 5.0)"
    # the Heisenberg readout on the padded probe leaves only rounding
    engine = report["checks"][names.index("engine-equivalence")]
    assert engine["observed"] <= 1e-9


def test_tampered_phase_error_coefficient_is_caught(monkeypatch):
    # corrupt the shot-noise coefficient of Var n = S^2 + S + |<a^2>|^2 in the
    # kernel; the transcription check must name the identity
    original = gaussian.protocol_point

    def tampered(n_bar, phi, eta1=1.0, eta2=1.0):
        point = original(n_bar, phi, eta1, eta2)
        variance = point.signal**2 + 1.01 * point.signal + abs(point.moments.m_aa) ** 2
        error = point.phase_error * math.sqrt(variance / point.variance)
        return gaussian.ProtocolResult(
            point.moments, variance, point.slope, error, point.phase_error_is_limit
        )

    monkeypatch.setattr(gaussian, "protocol_point", tampered)
    report = validate.run_checks()
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert "noisy-phase-error-transcription" in failed
    # measured, not crashed: run_checks reports a check that raises as failed too
    assert math.isfinite(failed["noisy-phase-error-transcription"]["observed"])
    assert report["passed"] is False


def test_tampered_slope_coefficient_is_caught(monkeypatch):
    # the reference route takes its slope from the moment pass, not from the
    # kernel, so a slip in 4 eta1 eta2 n (n+1) sin 2phi cannot cancel out
    original = gaussian.protocol_point

    def tampered(n_bar, phi, eta1=1.0, eta2=1.0):
        point = original(n_bar, phi, eta1, eta2)
        return gaussian.ProtocolResult(
            point.moments, point.variance, 1.01 * point.slope, point.phase_error / 1.01,
            point.phase_error_is_limit,
        )

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


def test_table_identity_check_covers_sub_photon_rows():
    # n_bar 0.5 is on the grid: the amplified-Bell row there is refused, not
    # scored, so the check measures every other family at 0.5
    observed, detail = validate.check_table_closed_form_identity()
    assert observed <= 1e-10
    assert detail == "all families, n_bar grid {0.5, 1, 2, 4, 8.5, 20, 400}"


def test_headline_check_reports_values():
    observed, detail = validate.check_headline_ratios()
    assert observed < 0.10
    assert "target 5" in detail and "target 3" in detail


def test_projection_check():
    observed, _ = validate.check_two_photon_projection()
    assert observed < 1e-10


def test_squeeze_closed_form_check_catches_a_wrong_unitary(monkeypatch):
    # the protocol's probe no longer goes through the numerical squeeze, so
    # this check keeps the unitary under the suite
    observed, _ = validate.check_squeeze_closed_form()
    assert observed <= 1e-12
    original = fock._apply_squeeze
    monkeypatch.setattr(fock, "_apply_squeeze", lambda block, r: original(block, 1.001 * r))
    observed, _ = validate.check_squeeze_closed_form()
    assert observed > 1e-6
