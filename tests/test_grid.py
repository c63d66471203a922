import numpy as np
import pytest

from csibreath.errors import ConfigurationError
from csibreath.grid import (
    BAND_CENTER_HZ,
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    SPEED_OF_LIGHT_M_S,
    SUBCARRIER_SPACING_HZ,
    SubcarrierGrid,
    custom_grid,
    default_grid,
    ht_ltf_grid,
    l_ltf_grid,
)


def test_ht_ltf_count_and_index_range():
    g = ht_ltf_grid()
    assert g.count == 114
    n = g.physical_index
    assert n.min() == -58 and n.max() == 58
    # guard band of 3 tones around DC: -1, 0, 1 are absent
    assert not np.any(np.isin([-1, 0, 1], n))
    assert np.all(np.diff(n) > 0)


def test_ht_ltf_band_edges():
    g = ht_ltf_grid()
    assert g.center_frequency_hz[0] == BAND_LOW_HZ == 2.433875e9
    assert g.center_frequency_hz[-1] == BAND_HIGH_HZ == 2.470125e9


def test_ht_ltf_array_to_physical_index_corners():
    # 0-based corners of the index map: first/last tone of each band half
    g = ht_ltf_grid()
    assert g.physical_index[0] == -58
    assert g.physical_index[56] == -2
    assert g.physical_index[57] == 2
    assert g.physical_index[113] == 58


def test_l_ltf_is_duplicated_legacy_set():
    g = l_ltf_grid()
    assert g.count == 104
    legacy = np.concatenate([np.arange(-26, 0), np.arange(1, 27)])
    expected = np.sort(np.concatenate([legacy - 32, legacy + 32]))
    np.testing.assert_array_equal(g.physical_index, expected)
    # the two 20 MHz halves' centers themselves carry no tone
    assert not np.any(np.isin([-32, 0, 32], g.physical_index))


def test_default_grid_is_ht_then_l():
    g = default_grid()
    assert g.count == 218
    assert g.field_tag[:114] == ("HT-LTF",) * 114
    assert g.field_tag[114:] == ("L-LTF",) * 104
    np.testing.assert_array_equal(g.physical_index[:114], ht_ltf_grid().physical_index)
    np.testing.assert_array_equal(g.physical_index[114:], l_ltf_grid().physical_index)


def test_frequencies_follow_spacing_rule():
    g = default_grid()
    expected = BAND_CENTER_HZ + g.physical_index * SUBCARRIER_SPACING_HZ
    np.testing.assert_allclose(g.center_frequency_hz, expected, rtol=0, atol=0)


def test_wavelength_oracle():
    g = default_grid()
    np.testing.assert_allclose(
        g.wavelength_m, SPEED_OF_LIGHT_M_S / g.center_frequency_hz, rtol=1e-15
    )


def test_beat_factor_range_across_band():
    # (lambda_1 - lambda_2) / (lambda_1 lambda_2) = (f_2 - f_1) / c, so the
    # extreme over all pairs is the band span over c: +/- 0.12092 per meter.
    g = default_grid()
    lam = g.wavelength_m
    beat = (lam[:, None] - lam[None, :]) / (lam[:, None] * lam[None, :])
    expected = (BAND_HIGH_HZ - BAND_LOW_HZ) / SPEED_OF_LIGHT_M_S
    assert np.isclose(np.max(beat), expected, rtol=1e-12)
    assert np.isclose(np.min(beat), -expected, rtol=1e-12)
    assert np.isclose(expected, 0.12092, atol=5e-6)


def test_wavelength_ratio_range_ht_field():
    # (lambda_2 - lambda_1) / lambda_2 = 1 - f_2 / f_1 over the HT band
    g = ht_ltf_grid()
    f = g.center_frequency_hz
    ratio = 1.0 - f[None, :] / f[:, None]
    assert np.isclose(ratio.min(), -0.014894, atol=5e-7)
    assert np.isclose(ratio.max(), 0.014675, atol=5e-7)


def test_custom_grid_defaults():
    g = custom_grid(np.array([2.4e9, 2.5e9]))
    assert g.count == 2
    np.testing.assert_array_equal(g.physical_index, [0, 1])
    assert g.field_tag == ("HT-LTF", "HT-LTF")


def test_grid_validation_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        SubcarrierGrid(
            field_tag=("HT-LTF",),
            physical_index=np.array([0, 1]),
            center_frequency_hz=np.array([2.4e9, 2.5e9]),
        )
    with pytest.raises(ConfigurationError):
        custom_grid(np.array([]))
    with pytest.raises(ConfigurationError):
        custom_grid(np.array([2.4e9, -2.5e9]))
    with pytest.raises(ConfigurationError):
        custom_grid(np.array([2.4e9, 2.5e9]), physical_index=np.array([3, 3]))
    # no boolean, fraction, nested list or non-string tag, from code either
    with pytest.raises(ConfigurationError, match="integers"):
        custom_grid(np.array([2.4e9, 2.5e9]), physical_index=np.array([True, False]))
    with pytest.raises(ConfigurationError, match="integers"):
        custom_grid(np.array([2.4e9, 2.5e9]), physical_index=np.array([0.0, 1.0]))
    with pytest.raises(ConfigurationError, match="numbers"):
        custom_grid(np.array([True, True]))
    with pytest.raises(ConfigurationError, match="1-D"):
        custom_grid(np.full((2, 2), 2.4e9))
    with pytest.raises(ConfigurationError, match="strings"):
        custom_grid(np.array([2.4e9, 2.5e9]), field_tag=None)
    # an index beyond int64, or a frequency beyond every float
    with pytest.raises(ConfigurationError, match="out of range"):
        custom_grid([2.4e9, 2.5e9], physical_index=[10**23, 10**23 + 1])
    with pytest.raises(ConfigurationError, match="out of range"):
        custom_grid([2.4e9, 10**400])


def test_grid_is_hashable_and_frozen():
    g = ht_ltf_grid()
    with pytest.raises(AttributeError):
        g.count = 5
