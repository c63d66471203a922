"""Subcarrier grids for 2.4 GHz 802.11n CSI capture.

A grid maps array index m (0-based) to the preamble field the tone was
estimated from, its physical subcarrier index n(m), and its absolute center
frequency. All downstream math only consumes ``center_frequency_hz`` /
``wavelength_m``, so toy grids for tests can be built with arbitrary
frequencies via :func:`custom_grid`.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT_M_S = 299_792_458.0

# 40 MHz channel: primary 20 MHz channel 11 (2462 MHz) plus the secondary
# channel below it, so the combined channel is centered at 2452 MHz.
BAND_CENTER_HZ = 2.452e9
SUBCARRIER_SPACING_HZ = 312.5e3
BAND_LOW_HZ = 2.433875e9
BAND_HIGH_HZ = 2.470125e9

FIELD_HT_LTF = "HT-LTF"
FIELD_L_LTF = "L-LTF"


@dataclass(frozen=True)
class SubcarrierGrid:
    """Immutable description of the subcarriers present in a capture, checked
    here alone, whether built in code, from a config or from a trace header.

    Attributes
    ----------
    field_tag:
        Preamble field each tone was estimated from, one tag per array index.
    physical_index:
        Physical subcarrier index n(m) relative to the channel center.
    center_frequency_hz:
        Absolute center frequency of each tone.
    """

    field_tag: tuple[str, ...]
    physical_index: np.ndarray
    center_frequency_hz: np.ndarray

    def __post_init__(self) -> None:
        tags = _items("field tags", self.field_tag, str, "strings")
        n = _items("physical indices", self.physical_index, Integral, "integers")
        f = _items("center frequencies", self.center_frequency_hz, Real, "numbers")
        if not (tags.size == n.size == f.size):
            raise ConfigurationError("grid arrays must have equal length")
        if n.size == 0:
            raise ConfigurationError("grid must contain at least one subcarrier")
        try:
            n, f = n.astype(int), f.astype(float)
        except OverflowError as exc:  # an int beyond int64, or beyond every float
            raise ConfigurationError(f"grid values out of range: {exc}") from exc
        if not np.all(np.isfinite(f)) or np.any(f <= 0):
            raise ConfigurationError("center frequencies must be finite and positive")
        for tag in sorted(set(tags)):
            if np.any(np.diff(n[tags == tag]) <= 0):
                raise ConfigurationError(
                    f"physical indices must be strictly increasing within field {tag!r}"
                )
        object.__setattr__(self, "field_tag", tuple(tags))
        object.__setattr__(self, "physical_index", n)
        object.__setattr__(self, "center_frequency_hz", f)

    @property
    def count(self) -> int:
        return self.physical_index.size

    @property
    def wavelength_m(self) -> np.ndarray:
        return SPEED_OF_LIGHT_M_S / self.center_frequency_hz


def _items(name: str, values, kind: type, kinds: str) -> np.ndarray:
    """``values`` as a 1-D object array of ``kind`` items, none a boolean."""
    items = np.asarray(values, dtype=object)
    if items.ndim != 1:
        raise ConfigurationError(f"grid {name} must be a 1-D list of {kinds}, got {values!r}")
    for item in items:
        if isinstance(item, bool) or not isinstance(item, kind):
            raise ConfigurationError(f"grid {name} must be {kinds}, got {item!r}")
    return items


def _field_frequencies(physical: np.ndarray, center_hz: float) -> np.ndarray:
    return center_hz + physical * SUBCARRIER_SPACING_HZ


def ht_ltf_grid(center_hz: float = BAND_CENTER_HZ) -> SubcarrierGrid:
    """114-tone HT-LTF grid: physical indices [-58, -2] and [2, 58]."""
    n = np.concatenate([np.arange(-58, -1), np.arange(2, 59)])
    return SubcarrierGrid(
        field_tag=(FIELD_HT_LTF,) * n.size,
        physical_index=n,
        center_frequency_hz=_field_frequencies(n, center_hz),
    )


def l_ltf_grid(center_hz: float = BAND_CENTER_HZ) -> SubcarrierGrid:
    """104-tone L-LTF grid.

    The legacy field is duplicated in both 20 MHz halves of a 40 MHz channel,
    so the 52 legacy tones appear at offsets of -32 and +32 subcarriers.
    """
    legacy = np.concatenate([np.arange(-26, 0), np.arange(1, 27)])
    n = np.sort(np.concatenate([legacy - 32, legacy + 32]))
    return SubcarrierGrid(
        field_tag=(FIELD_L_LTF,) * n.size,
        physical_index=n,
        center_frequency_hz=_field_frequencies(n, center_hz),
    )


def default_grid() -> SubcarrierGrid:
    """Combined 218-tone grid (114 HT-LTF followed by 104 L-LTF tones)."""
    ht = ht_ltf_grid()
    ll = l_ltf_grid()
    return SubcarrierGrid(
        field_tag=ht.field_tag + ll.field_tag,
        physical_index=np.concatenate([ht.physical_index, ll.physical_index]),
        center_frequency_hz=np.concatenate(
            [ht.center_frequency_hz, ll.center_frequency_hz]
        ),
    )


def custom_grid(
    center_frequency_hz: np.ndarray,
    physical_index: np.ndarray | None = None,
    field_tag: str = FIELD_HT_LTF,
) -> SubcarrierGrid:
    """Small helper for tests and synthetic studies.

    ``physical_index`` defaults to 0, 1, 2, ... which is fine whenever the
    phase-offset model (which scales with n) is not exercised.
    """
    # a value with no length is no list of frequencies, and the grid says so
    count = len(center_frequency_hz) if isinstance(center_frequency_hz, Sized) else 0
    return SubcarrierGrid(
        field_tag=(field_tag,) * count,
        physical_index=range(count) if physical_index is None else physical_index,
        center_frequency_hz=center_frequency_hz,
    )
