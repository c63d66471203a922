"""Subcarrier search for a high-quality weighted subcarrier ratio.

The objective is the respiration-band ratio of sum_i a_i H(m_i, k) /
H(m_d, k): N numerator subcarriers with complex weights (|a_i| <= 1) over
one denominator subcarrier. ``fitness`` scores one genome and is the
reference definition of the objective.

The pipeline's search is ``solve_delay_basis``, a closed form. Its
denominator is the kept row whose magnitude is steadiest (highest mean/std
of |H|), a deterministic rule. For a fixed denominator every step of the
band ratio before the squared magnitude is linear in the numerator weights,
so the objective is a ratio of two Hermitian forms. Over every other row as
a numerator, with weights drawn from a basis of a few propagation delays,
its optimum is the top generalized eigenvector of an 8x8 pair of in-band
and out-of-band Gram matrices: ``ratio.max_snr``, the solver the projection
angle uses too. The best single pair over the denominator is an explicit
fallback, so the result is never worse than any of them. A
``GassSolution`` keeps the denominator and the 8 coefficients over the
grid's delay basis, or the pair, and rebuilds the weights from them. The
denominator is the first row of ``steadiness_ranking``, and the stream
fan-out divides the numerator by its first ``FANOUT_ROWS`` kept rows.

``best_single_pair`` scores all n(n-1) ordered single pairs, the exact
reference that ``gass-audit`` compares the solve against. Every ratio here,
of a pair batch, of the projected basis and of the stream fan-out, is one
``GuardTable.divide`` call, so each is guarded exactly as ``fitness``
guards a genome. The paper's own search is a genetic algorithm; the closed
form replaced it after beating it on every held-out evaluation row
(README).

Outputs must not change with the BLAS thread count. A matrix product goes
through ``ratio.blas_product``, in fixed blocks that BLAS runs on one
thread; a fresh-process test in ``tests/test_ratio.py`` pins the delay-basis
projection, a sum over every numerator row. The one-row sums,
``_numerator`` and ``_weights``, stay ``np.einsum`` sums.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StreamGuardError
from .ratio import (
    GuardTable,
    StreamStack,
    band_grams,
    blas_product,
    guard_table,
    guarded_ratio,
    max_snr,
    ssnr_values,
)


# Delays of the closed-form search's weight basis. A propagation path of
# length L adds a term exp(-j 2 pi f L / c) to the channel, a complex
# exponential across the grid, so weights built from a few delays follow the
# channel's own structure. 8 delays over +-100 ns (+-30 m of path) lie 29 ns
# apart, about the delay resolution of the default grid's 36 MHz span.
DELAY_COUNT = 8
DELAY_SPAN_S = 100e-9
# Streams of the fan-out: its 16 steadiest kept rows lost no accuracy to all (README)
FANOUT_ROWS = 16


@dataclass(frozen=True)
class Genome:
    """A weighted numerator over one denominator: complex weights, numerator
    indices, denominator index. ``fitness`` scores one, and the stream
    fan-out divides one by its ``FANOUT_ROWS`` steadiest kept rows."""

    weights: np.ndarray
    numerator_indices: np.ndarray
    denominator_index: int


@dataclass(frozen=True)
class GassSolution:
    """The search's result in its own coordinates: the denominator, the best
    single pair over it (the fallback) and, when the solve was taken, its
    coefficients over the delay basis of the grid. ``genome`` rebuilds the
    weighted numerator from them and the grid's frequencies."""

    denominator_index: int
    fitness: float          # band ratio of the chosen numerator
    pair_numerator: int     # the fallback pair's numerator
    pair_fitness: float     # the fallback pair's band ratio
    coefficients: np.ndarray | None = None  # one per delay of the basis; None: the pair

    @property
    def fallback(self) -> bool:
        """Whether the result is the fallback pair rather than the solve."""
        return self.coefficients is None

    def genome(self, frequencies_hz: np.ndarray) -> Genome:
        """The weighted numerator, given the center frequency of every row:
        a unit weight on the pair's numerator, or the solve's weights w = F c
        over every other row than the denominator (``_delay_basis``), in the
        bits the solve scored."""
        d = self.denominator_index
        if self.fallback:
            return Genome(np.ones(1, dtype=complex), np.array([self.pair_numerator]), d)
        rows, basis = _delay_basis(np.asarray(frequencies_hz, dtype=float).tobytes(), d)
        return Genome(_weights(basis, self.coefficients), rows, d)


def _check_genome(genome: Genome, n_subcarriers: int) -> None:
    w = genome.weights
    m = genome.numerator_indices
    if w.shape != m.shape or w.ndim != 1:
        raise ConfigurationError("weights and indices must be 1-D and equal length")
    if np.any(np.abs(w) > 1.0 + 1e-12):
        raise ConfigurationError("weight magnitudes must not exceed 1")
    if np.any(m < 0) or np.any(m >= n_subcarriers):
        raise ConfigurationError("numerator index out of range")
    if not 0 <= genome.denominator_index < n_subcarriers:
        raise ConfigurationError("denominator index out of range")
    if np.any(m == genome.denominator_index):
        raise ConfigurationError("numerator indices must differ from the denominator")


def combined_ratio(
    matrix: np.ndarray,
    weights: np.ndarray,
    numerator_indices: np.ndarray,
    denominator_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted numerator over a single denominator row of a CSI matrix."""
    return guarded_ratio(_numerator(matrix, weights, numerator_indices), matrix[denominator_index])


def _numerator(matrix: np.ndarray, weights: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * matrix[indices[i]], in the same bits at any BLAS
    thread count."""
    return np.einsum("n,nk->k", weights, matrix[indices])


def fitness(genome: Genome, matrix: np.ndarray, sample_rate_hz: float) -> float:
    """Band ratio of the genome's combined ratio stream; 0 when infeasible.

    All-zero weights produce no signal and score 0. A denominator that fails
    the stream guard also scores 0 rather than raising, so the search can
    move through infeasible corners.
    """
    _check_genome(genome, matrix.shape[0])
    if not np.any(genome.weights):
        return 0.0
    try:
        values, _ = combined_ratio(
            matrix, genome.weights, genome.numerator_indices, genome.denominator_index
        )
    except StreamGuardError:
        return 0.0
    return float(ssnr_values(values[None, :], sample_rate_hz)[0])


def best_single_pair(matrix: np.ndarray, sample_rate_hz: float) -> tuple[int, int, float]:
    """The best of all n(n-1) ordered (numerator, denominator) pairs and its
    band ratio, ties to the lowest denominator, then numerator.

    An exact reference for the search, with no random draw: each
    denominator's n - 1 pairs are scored in one batch, so memory stays at
    one matrix-sized batch, and each score equals the pair's ``fitness``
    bit for bit.
    """
    n_sub = matrix.shape[0]
    if n_sub < 2:
        raise ConfigurationError("need at least two subcarriers")
    guards = guard_table(matrix)
    rows = np.arange(n_sub)
    best = (-1, -1, -np.inf)
    for d in range(n_sub):
        numerators = rows[rows != d]
        scores = _pair_scores(matrix, sample_rate_hz, guards, numerators, d)
        i = int(np.argmax(scores))
        if scores[i] > best[2]:
            best = (int(numerators[i]), d, float(scores[i]))
    return best


def _pair_scores(
    matrix: np.ndarray, sample_rate_hz: float, guards: GuardTable, numerators: np.ndarray,
    d: int,
) -> np.ndarray:
    """``fitness`` of each single pair (numerators[j], d), as one batch."""
    if guards.rejected[d]:
        return np.zeros(numerators.size)
    return ssnr_values(guards.divide(matrix[numerators], matrix[d], d), sample_rate_hz)


def steadiness_ranking(matrix: np.ndarray, guards: GuardTable) -> np.ndarray:
    """Every row, steadiest first: the rows the guard keeps by the mean/std of
    |H| over their finite samples, ties to the lowest index, then the rest.
    A row of constant magnitude is infinitely steady, unless it is zero."""
    magnitude = np.abs(matrix)
    finite = np.isfinite(magnitude)
    count = np.maximum(finite.sum(axis=1), 1)  # a row with no finite sample reads as zero
    mean = np.where(finite, magnitude, 0.0).sum(axis=1) / count
    deviation = np.where(finite, magnitude - mean[:, None], 0.0)
    spread = np.sqrt((deviation * deviation).sum(axis=1) / count)
    # a constant row is infinitely steady, unless it is zero (0 / 0)
    steadiness = np.divide(
        mean, spread, out=np.where(mean > 0, np.inf, np.nan), where=spread > 0
    )
    steadiness[guards.rejected | np.isnan(steadiness)] = -np.inf
    return np.argsort(-steadiness, kind="stable")


def solve_delay_basis(
    matrix: np.ndarray,
    frequencies_hz: np.ndarray,
    sample_rate_hz: float,
    guards: GuardTable | None = None,
    ranking: np.ndarray | None = None,
) -> GassSolution:
    """Closed-form search on one analysis window.

    The denominator d is the first row of ``ranking``, the window's
    ``steadiness_ranking`` (computed when not given), and every
    other row is a numerator. Its weights are w = F c over the delay basis
    F[m, t] = exp(j 2 pi (f_m - mean f) tau_t), with at most as many delays as
    numerator rows. The rows are projected onto the basis first, S_t =
    sum_m F[m, t] H_m / H_d (guarded like any ratio by ``guards``), and the
    band ratio of sum_t c_t S_t is c^H A c / c^H B c, with A and B the
    in-band and out-of-band Gram matrices of the spectra of S. Its maximum is
    at their top generalized eigenvector (``ratio.max_snr``), and the
    solution keeps c. Its weights (``GassSolution.genome``) are scaled so
    that max |w| = 1, with that entry real and positive, and their
    ``fitness`` equals the eigenvalue up to rounding.

    ``frequencies_hz`` holds the center frequency of every row. The fallback
    is the best of the n - 1 single pairs over d (ties to the lowest
    numerator), scored in one batch; its band ratio is the solution's
    ``pair_fitness``. When B is not positive definite, or the solved weights
    score below the pair, the pair is the result (``fallback``), so the
    search is never worse than any single pair over d. B is singular on
    noise-free CSI. The basis is ``_delay_basis``, of full column rank also
    on a grid whose tones sit delta f apart, where two delays 1/delta f
    apart give the same column (10 MHz spacing repeats every 100 ns).
    """
    n_sub = matrix.shape[0]
    if n_sub < 2:
        raise ConfigurationError("need at least two subcarriers")
    frequencies = np.asarray(frequencies_hz, dtype=float)
    if frequencies.shape != (n_sub,):
        raise ConfigurationError("need one center frequency per subcarrier row")
    guards = guards if guards is not None else guard_table(matrix)
    d = int((steadiness_ranking(matrix, guards) if ranking is None else ranking)[0])
    numerators = np.flatnonzero(np.arange(n_sub) != d)
    scores = _pair_scores(matrix, sample_rate_hz, guards, numerators, d)
    best = int(np.argmax(scores))
    pair = GassSolution(d, float(scores[best]), int(numerators[best]), float(scores[best]))
    if guards.rejected[d]:
        return pair
    rows, basis = _delay_basis(frequencies.tobytes(), d)
    # sum_m F[m, t] (H_m / H_d) = (sum_m F[m, t] H_m) / H_d, guard interpolation included
    projected = guards.divide(blas_product(basis.T, matrix[rows]), matrix[d], d)
    coefficients = max_snr(*band_grams(projected, sample_rate_hz))
    if coefficients is None:
        return pair
    score = fitness(Genome(_weights(basis, coefficients), rows, d), matrix, sample_rate_hz)
    if score < pair.fitness:
        return pair
    return dataclasses.replace(pair, fitness=score, coefficients=coefficients)


@functools.lru_cache(maxsize=32)
def _delay_basis(frequency_bytes: bytes, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerator rows (all but ``d``) and the delay basis over them,
    F[m, t] = exp(j 2 pi (f_m - mean f) tau_t), for the float64 center
    frequencies in ``frequency_bytes``: at most one delay per distinct tone,
    over +-``DELAY_SPAN_S``, or, when two of these alias on the grid,
    1/(spread + smallest gap) of the tones apart, so that distinct tones
    give distinct nodes of a Vandermonde basis. Both arrays are read-only
    and built once per grid and denominator: the solve and
    ``GassSolution.genome`` of every window over the same ``d`` share them."""
    frequencies = np.frombuffer(frequency_bytes)
    rows = np.flatnonzero(np.arange(frequencies.size) != d)
    offsets = frequencies[rows] - frequencies.mean()
    tones = np.sort(offsets)
    gaps = np.diff(tones)
    gaps = gaps[gaps > 0]  # the default grid repeats each tone in two fields
    # the basis has at most the rank of the distinct tones
    count = min(DELAY_COUNT, gaps.size + 1)
    delays = np.linspace(-DELAY_SPAN_S, DELAY_SPAN_S, count)
    basis = np.exp(2j * np.pi * np.outer(offsets, delays))
    if gaps.size and np.linalg.matrix_rank(basis) < count:
        step = 1.0 / (tones[-1] - tones[0] + gaps.min())
        delays = step * (np.arange(count) - (count - 1) / 2)
        basis = np.exp(2j * np.pi * np.outer(offsets, delays))
    rows.setflags(write=False)
    basis.setflags(write=False)
    return rows, basis


def _weights(basis: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """w = F c, scaled so that max |w| = 1 with that entry real and positive."""
    weights = np.einsum("mt,t->m", basis, coefficients)
    top = int(np.argmax(np.abs(weights)))
    weights = weights / weights[top]
    weights[top] = 1.0
    return weights


def build_streams(
    genome: Genome,
    matrix: np.ndarray,
    sample_rate_hz: float,
    *,
    guards: GuardTable,
    ranking: np.ndarray | None = None,
) -> StreamStack:
    """Fan the solved numerator out over the first ``FANOUT_ROWS`` kept rows
    of ``ranking``, the window's ``steadiness_ranking`` (computed when not
    given), in grid order, so the solve's own stream, over d, is one of them.

    Numerator rows are candidates too, as the closed-form numerator spans
    every row but d. A numerator on a single row leaves that row out (over
    itself it is constant up to the rounding of x / x), and the next row
    takes its place. One ``GuardTable.divide`` makes every stream. ``genome``
    is ``GassSolution.genome`` and ``guards`` is ``guard_table(matrix)``.
    """
    ranking = steadiness_ranking(matrix, guards) if ranking is None else ranking
    dropped = guards.rejected.copy()
    # a set, not np.unique, which imports numpy.ma for its masked-array check
    own = set(genome.numerator_indices[genome.weights != 0].tolist())
    if len(own) == 1:
        dropped[own.pop()] = True
    rows = np.sort(ranking[~dropped[ranking]][:FANOUT_ROWS])
    numerator = _numerator(matrix, genome.weights, genome.numerator_indices)
    values = guards.divide(numerator, matrix[rows], rows)
    return StreamStack(values, sample_rate_hz, rows, guards.flagged[rows])
