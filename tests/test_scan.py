import json

import numpy as np
import pytest

from apsim.errors import ConfigError
from apsim.scan import TRANSPORT_UNIT, ScanResult


@pytest.fixture
def spectrum_result() -> ScanResult:
    return ScanResult(
        abscissa=np.array([-2.0, -1.0, 0.0, 1.5]),
        p1=np.array([0.01, 0.5, 0.95, 0.125]),
        stderr=np.array([0.001, 0.002, 0.0015, 0.003]),
        unit="khz",
    )


@pytest.fixture
def transport_result() -> ScanResult:
    return ScanResult(
        abscissa=np.array([0.05, 1.0, 10.0]),
        p1=np.array([0.999, 0.99, 0.74]),
        stderr=None,
        unit=TRANSPORT_UNIT,
    )


def test_validation():
    with pytest.raises(ConfigError):
        ScanResult(np.zeros((2, 2)), np.zeros(4))
    with pytest.raises(ConfigError):
        ScanResult(np.array([]), np.array([]))
    with pytest.raises(ConfigError):
        ScanResult(np.array([1.0, 2.0]), np.array([0.5]))
    with pytest.raises(ConfigError):
        ScanResult(np.array([np.nan]), np.array([0.5]))
    with pytest.raises(ConfigError):
        ScanResult(np.array([1.0]), np.array([0.5]), stderr=np.array([1.0, 2.0]))


def test_len(spectrum_result, transport_result):
    assert len(spectrum_result) == 4
    assert len(transport_result) == 3


# ------------------------------------------------------------ CSV

def test_csv_layout(spectrum_result):
    lines = spectrum_result.to_csv_text().splitlines()
    assert lines[0] == "abscissa,khz,p1,stderr"
    assert lines[1].split(",") == ["-2.0", "khz", "0.01", "0.001"]
    assert len(lines) == 5


def test_transport_csv_layout(transport_result):
    lines = transport_result.to_csv_text().splitlines()
    assert lines[0] == "inv_tau_per_ms,p1,stderr"
    assert lines[1].split(",") == ["0.05", "0.999", ""]


def test_csv_round_trip(spectrum_result):
    again = ScanResult.from_csv_text(spectrum_result.to_csv_text())
    np.testing.assert_array_equal(again.abscissa, spectrum_result.abscissa)
    np.testing.assert_array_equal(again.p1, spectrum_result.p1)
    np.testing.assert_array_equal(again.stderr, spectrum_result.stderr)
    assert again.unit == "khz"


def test_transport_csv_round_trip(transport_result):
    again = ScanResult.from_csv_text(transport_result.to_csv_text())
    np.testing.assert_array_equal(again.abscissa, transport_result.abscissa)
    assert again.stderr is None
    assert again.unit == TRANSPORT_UNIT


def test_csv_bytes_deterministic(spectrum_result, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    spectrum_result.to_csv(a)
    spectrum_result.to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_file_round_trip(transport_result, tmp_path):
    path = tmp_path / "curve.csv"
    transport_result.to_csv(path)
    again = ScanResult.from_csv(path)
    np.testing.assert_array_equal(again.p1, transport_result.p1)


def test_full_float_precision_survives():
    r = ScanResult(np.array([1.0 / 3.0]), np.array([0.1 + 0.2]), unit="um")
    again = ScanResult.from_csv_text(r.to_csv_text())
    assert again.abscissa[0] == r.abscissa[0]
    assert again.p1[0] == r.p1[0]


def test_malformed_csv_rejected():
    with pytest.raises(ConfigError):
        ScanResult.from_csv_text("nonsense,header,row\n1,2,3\n")
    with pytest.raises(ConfigError):
        ScanResult.from_csv_text("abscissa,khz,p1,stderr\n")  # no data rows
    with pytest.raises(ConfigError):
        ScanResult.from_csv_text("abscissa,khz,p1,stderr\n1.0,khz,0.5\n")  # short row
    with pytest.raises(ConfigError):
        ScanResult.from_csv_text("abscissa,khz,p1,stderr\n1.0,khz,oops,\n")


def test_mixed_units_in_rows_rejected():
    text = "abscissa,khz,p1,stderr\n1.0,khz,0.5,\n2.0,um,0.6,\n"
    with pytest.raises(ConfigError):
        ScanResult.from_csv_text(text)


# ------------------------------------------------------------ JSON

def _json(result: ScanResult, tmp_path) -> dict:
    path = tmp_path / "scan.json"
    result.to_json(path)
    return json.loads(path.read_text())


def test_json_round_trip(spectrum_result, tmp_path):
    d = _json(spectrum_result, tmp_path)
    assert sorted(d) == ["abscissa", "p1", "stderr", "unit"]
    np.testing.assert_array_equal(d["abscissa"], spectrum_result.abscissa)
    np.testing.assert_array_equal(d["stderr"], spectrum_result.stderr)
    assert d["unit"] == spectrum_result.unit


def test_json_none_stderr(transport_result, tmp_path):
    assert _json(transport_result, tmp_path)["stderr"] is None


def test_json_text_round_trip(spectrum_result, tmp_path):
    # the floats come back bit for bit, and the file ends in a newline
    np.testing.assert_array_equal(_json(spectrum_result, tmp_path)["p1"], spectrum_result.p1)
    assert (tmp_path / "scan.json").read_text().endswith("}\n")
