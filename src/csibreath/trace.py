"""``CsiTrace``, the one CSI sequence type, which the simulator makes,
``traceio`` reads and writes and the analysis reads, and ``BLOCK_ROWS``, the
row block of every per-row stage; neither needs the simulator or its RNG."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import SubcarrierGrid

# CSI rows a per-row stage works on at a time: the stages that treat each
# row of an (M, K) matrix alone run over blocks of this many rows, so their
# temporaries span a few rows instead of the whole matrix.
BLOCK_ROWS = 32


@dataclass(frozen=True, eq=False)
class CsiTrace:
    """A CSI sequence: one complex channel estimate per grid position (row)
    and packet (column), with the packet times and the nominal sample rate.

    ``values`` is stored as a C-contiguous (M, K) complex matrix. Slicing
    with ``trace[a:b]`` selects packets ``a`` to ``b - 1``.
    """

    values: np.ndarray
    times_s: np.ndarray
    sample_rate_hz: float
    grid: SubcarrierGrid

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=complex)
        times = np.ascontiguousarray(self.times_s, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ConfigurationError("CSI values must be a non-empty (M, K) matrix")
        if times.shape != values.shape[1:]:
            raise ConfigurationError("need one timestamp per packet")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ConfigurationError(f"sample rate must be finite and > 0: {self.sample_rate_hz}")
        if not isinstance(self.grid, SubcarrierGrid) or self.grid.count != values.shape[0]:
            raise ConfigurationError("CSI rows need a grid of as many subcarriers")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times_s", times)

    @classmethod
    def uniform(cls, values: np.ndarray, sample_rate_hz: float, grid: SubcarrierGrid) -> CsiTrace:
        """A trace whose packet k was taken at k / sample_rate_hz."""
        n_samples = np.shape(values)[-1]
        return cls(values, np.arange(n_samples) / sample_rate_hz, sample_rate_hz, grid)

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, packets: slice) -> CsiTrace:
        return CsiTrace(
            self.values[:, packets], self.times_s[packets], self.sample_rate_hz, self.grid
        )
