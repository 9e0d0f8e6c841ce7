import numpy as np
import pytest

from apsim.units import khz_to_rad_per_s, ms_to_s, rad_per_s_to_khz


def test_khz_round_trip_exact():
    vals = np.array([-65.0, -11.0, 0.0, 1.7, 28.0, 40.0, 422.4])
    assert rad_per_s_to_khz(khz_to_rad_per_s(vals)) == pytest.approx(vals, rel=1e-15)


def test_khz_scale():
    # 1 kHz is 2 pi * 1000 rad/s, the single conversion everything uses
    assert khz_to_rad_per_s(1.0) == pytest.approx(2000.0 * np.pi, rel=1e-15)


def test_time_round_trip():
    # back to ms the way the config writes an adiabaticity grid
    assert ms_to_s(2.0) / ms_to_s(1.0) == pytest.approx(2.0, rel=1e-15)
    assert ms_to_s(1.0) == 1e-3


def test_scalar_in_scalar_out():
    assert isinstance(khz_to_rad_per_s(3.0), float)
    assert isinstance(ms_to_s(2.0), float)


def test_array_in_array_out():
    out = khz_to_rad_per_s(np.array([1.0, 2.0]))
    assert isinstance(out, np.ndarray)
    assert out.shape == (2,)
