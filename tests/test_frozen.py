"""The value classes built on ``gaussian.Frozen`` are immutable once constructed."""

import pytest

from qmetro import cli, fock, gaussian, protocol, validate
from qmetro import correlations as co


def _values():
    config = protocol.ProtocolConfig(phi=0.1, n_bar=1.0)
    result = protocol.run_gaussian(config)
    return [
        gaussian.MomentVector.vacuum(),
        gaussian.loss_map(0.5),
        config,
        result,
        protocol.ComparisonReport(config, result, result, 60),
        cli.SweepSpec((1.0,), (0.1,), (0.9,), "csv", None),
        co.table_row("noon", 4.0),
        co.probe_statistics(fock.noon(3, 5)),
        fock.loss(fock.coherent(1.0, 20), 0.5),
        fock.coherent(1.0, 20),
        fock.observable_moments(fock.noon(2, 4)),
        validate.CheckResult("sweep-schema", True, 0.5, 0.0, "pinned", 0.001),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_assignment_raises(value):
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert getattr(value, name) is before
    assert repr(value).startswith(f"{type(value).__name__}({name}=")


def test_fields_are_keyword_and_positional():
    a = protocol.ProtocolConfig(0.3, 2.0, None, 0.9, 0.8, 60, "fock")
    b = protocol.ProtocolConfig(phi=0.3, n_bar=2.0, eta1=0.9, eta2=0.8, cutoff=60, engine="fock")
    assert [getattr(a, n) for n in a.__slots__] == [getattr(b, n) for n in b.__slots__]
    with pytest.raises(TypeError):
        protocol.ProtocolConfig(0.3, 2.0, None, 0.9, 0.8, 60, "fock", "extra")


def test_observable_moments_keep_their_validation():
    # the fock states' checks are in tests/test_fock.py::TestStateInvariants
    with pytest.raises(ValueError, match="negative number variance"):
        fock.ObservableMoments((0.0,), (0.0,), (-1.0,), None)
    with pytest.raises(ValueError, match="inconsistent"):
        fock.ObservableMoments((1.0,), (2.0,), (0.5,), None)


def test_check_result_reports_without_its_timing():
    result = validate.CheckResult("sweep-schema", True, 0.5, 0.0, "pinned", 0.001)
    assert list(result.to_dict().items()) == [
        ("name", "sweep-schema"), ("passed", True), ("budget", 0.5), ("observed", 0.0),
        ("detail", "pinned"),
    ]
