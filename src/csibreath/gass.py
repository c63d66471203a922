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
fallback, so the result is never worse than any of them.

``best_single_pair`` scores all n(n-1) ordered single pairs, the exact
reference that ``gass-audit`` compares the solve against. Every ratio here,
of a pair batch, of the projected basis and of the stream fan-out, is one
``GuardTable.divide`` call, so each is guarded exactly as ``fitness``
guards a genome. The paper's own search is a genetic algorithm; the closed
form replaced it after beating it on every held-out evaluation row
(README).

Products over the full band are ``np.einsum`` sums rather than ``@``: a BLAS
matrix-vector product over ~200 rows changes its last bits with the BLAS
thread count, and outputs must not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StreamGuardError
from .ratio import (
    GuardTable,
    StreamStack,
    band_grams,
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


@dataclass(frozen=True)
class Genome:
    """One candidate: complex weights, numerator indices, denominator index."""

    weights: np.ndarray
    numerator_indices: np.ndarray
    denominator_index: int


@dataclass(frozen=True)
class GassSolution:
    genome: Genome
    fitness: float
    pair_fitness: float = float("nan")  # the fallback pair's band ratio


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
    # the unit-weight numerators in the bits ``_numerator`` gives each pair
    # alone, signed zeros included
    rows = np.einsum(
        "pn,pnk->pk", np.ones((numerators.size, 1), dtype=complex), matrix[numerators, None]
    )
    return ssnr_values(guards.divide(rows, matrix[d], d), sample_rate_hz)


def pick_denominator(matrix: np.ndarray, guards: GuardTable) -> int:
    """The search's denominator: the row the guard keeps whose magnitude is
    steadiest, the highest mean/std of |H| over its finite samples, ties to
    the lowest index. A row of constant magnitude scores infinity; with no
    kept row it is row 0."""
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
    return int(np.argmax(steadiness))


def solve_delay_basis(
    matrix: np.ndarray,
    frequencies_hz: np.ndarray,
    sample_rate_hz: float,
    guards: GuardTable | None = None,
) -> GassSolution:
    """Closed-form search on one analysis window.

    The denominator d is ``pick_denominator(matrix, guards)``, and every other
    row is a numerator. Its weights are w = F c over the delay basis F[m, t]
    = exp(j 2 pi (f_m - mean f) tau_t), with at most as many delays as
    numerator rows. The rows are projected onto the basis first, S_t =
    sum_m F[m, t] H_m / H_d (guarded like any ratio by ``guards``), and the
    band ratio of sum_t c_t S_t is c^H A c / c^H B c, with A and B the
    in-band and out-of-band Gram matrices of the spectra of S. Its maximum is
    at their top generalized eigenvector (``ratio.max_snr``). The weights
    are scaled so that max |w| = 1, with that entry real and positive, and
    the genome's ``fitness`` equals the eigenvalue up to rounding.

    ``frequencies_hz`` holds the center frequency of every row. The fallback
    is the best of the n - 1 single pairs over d (ties to the lowest
    numerator), scored in one batch; its band ratio is the solution's
    ``pair_fitness``. When B is not positive definite, or the solved genome
    scores below the pair, the pair's genome is the result, so the search is
    never worse than any single pair over d. B is singular on noise-free
    CSI. On a grid whose tones sit delta f apart, two delays 1/delta f apart
    give the same basis column (10 MHz spacing repeats every 100 ns); when
    the default delays alias so, they are spaced 1/(spread + smallest gap)
    of the numerator rows' frequencies apart instead, which keeps the basis
    of full column rank.
    """
    n_sub = matrix.shape[0]
    if n_sub < 2:
        raise ConfigurationError("need at least two subcarriers")
    frequencies = np.asarray(frequencies_hz, dtype=float)
    if frequencies.shape != (n_sub,):
        raise ConfigurationError("need one center frequency per subcarrier row")
    guards = guards if guards is not None else guard_table(matrix)
    d = pick_denominator(matrix, guards)
    numerators = np.flatnonzero(np.arange(n_sub) != d)
    scores = _pair_scores(matrix, sample_rate_hz, guards, numerators, d)
    best = int(np.argmax(scores))
    genome = Genome(np.ones(1, dtype=complex), numerators[best : best + 1], d)
    score = pair_fitness = float(scores[best])
    solved = None if guards.rejected[d] else _solve(matrix, frequencies, sample_rate_hz, d, guards)
    if solved is not None:
        solved_score = fitness(solved, matrix, sample_rate_hz)
        if solved_score >= pair_fitness:
            genome, score = solved, solved_score
    return GassSolution(genome=genome, fitness=score, pair_fitness=pair_fitness)


def _solve(
    matrix: np.ndarray, frequencies: np.ndarray, sample_rate_hz: float, d: int,
    guards: GuardTable,
) -> Genome | None:
    """The delay-basis genome over denominator ``d`` (a row the guard keeps),
    or None when its Gram matrices admit no solution."""
    rows = np.flatnonzero(np.arange(matrix.shape[0]) != d)
    offsets = frequencies[rows] - frequencies.mean()
    tones = np.sort(offsets)
    gaps = np.diff(tones)
    gaps = gaps[gaps > 0]  # the default grid repeats each tone in two fields
    # the basis has at most the rank of the distinct tones
    count = min(DELAY_COUNT, gaps.size + 1)
    delays = np.linspace(-DELAY_SPAN_S, DELAY_SPAN_S, count)
    basis = np.exp(2j * np.pi * np.outer(offsets, delays))
    if gaps.size and np.linalg.matrix_rank(basis) < count:
        # two delays alias on this grid: space them 1/(spread + smallest
        # gap) apart instead, so that distinct tones give distinct nodes of
        # a Vandermonde basis
        step = 1.0 / (tones[-1] - tones[0] + gaps.min())
        delays = step * (np.arange(count) - (count - 1) / 2)
        basis = np.exp(2j * np.pi * np.outer(offsets, delays))
    # sum_m F[m, t] (H_m / H_d) = (sum_m F[m, t] H_m) / H_d, guard interpolation included
    projected = guards.divide(np.einsum("mt,mk->tk", basis, matrix[rows]), matrix[d], d)
    coefficients = max_snr(*band_grams(projected, sample_rate_hz))
    if coefficients is None:
        return None
    weights = np.einsum("mt,t->m", basis, coefficients)
    top = int(np.argmax(np.abs(weights)))
    weights = weights / weights[top]
    weights[top] = 1.0
    return Genome(weights, rows, d)


def build_streams(
    solution: GassSolution,
    matrix: np.ndarray,
    sample_rate_hz: float,
    *,
    guards: GuardTable,
) -> StreamStack:
    """Fan the solved numerator out over every row the guard keeps.

    One stream per kept grid position, the numerator rows included: the
    closed-form numerator spans every row but its denominator, so excluding
    numerator rows would leave at most one stream. A numerator with weight
    on a single row leaves that row out, since over itself it is constant
    up to the rounding of x / x. The numerator is divided by all kept rows
    at once (``GuardTable.divide``). ``guards`` is ``guard_table(matrix)``.
    """
    genome = solution.genome
    kept = ~guards.rejected
    # a set, not np.unique, which imports numpy.ma for its masked-array check
    own = set(genome.numerator_indices[genome.weights != 0].tolist())
    if len(own) == 1:
        kept[own.pop()] = False
    rows = np.flatnonzero(kept)
    numerator = _numerator(matrix, genome.weights, genome.numerator_indices)
    values = guards.divide(numerator, matrix[rows], rows)
    return StreamStack(values, sample_rate_hz, rows, guards.flagged[rows])
