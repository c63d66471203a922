"""Subcarrier search for a high-quality weighted subcarrier ratio.

The objective is the respiration-band ratio of sum_i a_i H(m_i, k) /
H(m_d, k): N numerator subcarriers with complex weights (|a_i| <= 1) over
one denominator subcarrier. ``fitness`` scores one genome and is the
reference definition of the objective.

The pipeline's search is ``solve_delay_basis``, a closed form. For a fixed
denominator every step of the band ratio before the squared magnitude is
linear in the numerator weights, so the objective is a ratio of two
Hermitian forms. Over every other row as a numerator, with weights drawn
from a basis of a few propagation delays, its optimum is the top
generalized eigenvector of an 8x8 pair of in-band and out-of-band Gram
matrices (the max-SNR beamformer of Warsitz and Haeb-Umbach, IEEE TASLP
2007). The best ranked single pair is an explicit fallback, so the result is
never worse than it.

``best_single_pair`` scores all n(n-1) ordered single pairs, the exact
reference that ``gass-audit`` compares the solve against. The paper's own
search is a genetic algorithm; the closed form replaced it after beating it
on every held-out evaluation row (README).

Products over the full band are ``np.einsum`` sums rather than ``@``: a BLAS
matrix-vector product over ~200 rows changes its last bits with the BLAS
thread count, and outputs must not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StreamGuardError, check_integer
from .ratio import (
    GuardTable,
    StreamStack,
    band_spectrum,
    guard_table,
    guarded_ratio,
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
class GaParams:
    """The pair ranking that gives the search its denominator and fallback."""

    seed_pool: int = 200   # random single pairs ranked
    seed_top: int = 20     # best-ranked pairs reported with the solution

    def __post_init__(self) -> None:
        # the search starts from the best ranked pair
        check_integer("ga.seed_pool", self.seed_pool, 1)
        check_integer("ga.seed_top", self.seed_top, 1)


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
    seeded_pairs: tuple[tuple[int, int], ...] = ()
    seeded_best_fitness: float = float("nan")


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


class PopulationScorer:
    """Fitness of a batch of genomes on one window, computed at once.

    Each score equals ``fitness(genome, matrix, sample_rate_hz)`` bit for
    bit. All numerators come from one gather and one einsum, and each
    denominator's guard status from one table, ``guard_table(matrix)`` unless
    the caller passes it as ``guards``; only rows with flagged but tolerated
    samples take the interpolating path. Invalid genomes raise the same
    ConfigurationError as ``fitness``.
    """

    def __init__(
        self, matrix: np.ndarray, sample_rate_hz: float, guards: GuardTable | None = None
    ):
        self.matrix = matrix
        self.sample_rate_hz = sample_rate_hz
        self.guards = guards if guards is not None else guard_table(matrix)
        self.any_flagged = self.guards.flagged.any(axis=1)

    def score(
        self, weights: np.ndarray, indices: np.ndarray, denominators: np.ndarray
    ) -> np.ndarray:
        """Scores of genomes given as arrays, weights (P, N), numerator
        indices (P, N) and denominators (P,): genome p is (weights[p],
        indices[p], denominators[p]). Every genome is validated as
        ``fitness`` would."""
        n_sub = self.matrix.shape[0]
        if (weights.ndim != 2 or indices.shape != weights.shape
                or denominators.shape != weights.shape[:1]):
            raise ConfigurationError("population arrays must be (P, N), (P, N) and (P,)")
        invalid = (
            np.any(np.abs(weights) > 1.0 + 1e-12, axis=1)
            | np.any((indices < 0) | (indices >= n_sub), axis=1)
            | (denominators < 0)
            | (denominators >= n_sub)
            | np.any(indices == denominators[:, None], axis=1)
        )
        if invalid.any():
            p = int(np.argmax(invalid))
            _check_genome(Genome(weights[p], indices[p], int(denominators[p])), n_sub)
        live = np.any(weights, axis=1) & ~self.guards.rejected[denominators]
        scores = np.zeros(denominators.size)
        if live.any():
            scores[live] = self._score_live(weights[live], indices[live], denominators[live])
        return scores

    def _score_live(
        self, weights: np.ndarray, indices: np.ndarray, denominators: np.ndarray
    ) -> np.ndarray:
        """Scores of valid genomes with some weight over kept denominators."""
        # each row in the bits ``_numerator`` gives the genome alone
        numerators = np.einsum("pn,pnk->pk", weights, self.matrix[indices])
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (numerators / self.matrix[denominators]).astype(complex, copy=False)
        for j in np.flatnonzero(self.any_flagged[denominators]):
            d = denominators[j]
            values[j], _ = self.guards.ratio(numerators[j], self.matrix[d], d)
        return ssnr_values(values, self.sample_rate_hz)


def rank_seed_pairs(
    matrix: np.ndarray,
    sample_rate_hz: float,
    params: GaParams,
    rng: np.random.Generator,
    *,
    guards: GuardTable | None = None,
) -> list[tuple[int, int, float]]:
    """Rank a random pool of (numerator, denominator) pairs by band ratio.

    Returns (numerator, denominator, band ratio) triples, best first. The
    best entry gives ``solve_delay_basis`` its denominator and its fallback,
    and doubles as the window's single-pair quality estimate, which the
    pipeline uses to decide whether a previous solution is still good.
    ``guards`` is ``guard_table(matrix)`` when the caller already has it.
    """
    n_sub = matrix.shape[0]
    n_pairs = n_sub * (n_sub - 1)
    # code c is the ordered pair (c // (n_sub - 1), its remainder skipping m1)
    codes = rng.choice(n_pairs, size=min(params.seed_pool, n_pairs), replace=False)
    m1 = codes // (n_sub - 1)
    m2 = codes % (n_sub - 1)
    m2 += m2 >= m1
    # each pair is the genome (weights [1], numerators [m1], denominator m2)
    scores = PopulationScorer(matrix, sample_rate_hz, guards).score(
        np.ones((codes.size, 1), dtype=complex), m1[:, None], m2
    )
    order = np.lexsort((m2, m1, -scores))
    return [(int(m1[i]), int(m2[i]), float(scores[i])) for i in order]


def best_single_pair(
    matrix: np.ndarray, sample_rate_hz: float, guards: GuardTable | None = None
) -> tuple[int, int, float]:
    """The best of all n(n-1) ordered (numerator, denominator) pairs and its
    band ratio, ties to the lowest denominator, then numerator.

    An exact reference for the search, with no random draw: each
    denominator's n - 1 pairs are scored in one ``PopulationScorer`` batch,
    so memory stays at one matrix-sized batch. ``guards`` is
    ``guard_table(matrix)`` when the caller already has it.
    """
    n_sub = matrix.shape[0]
    if n_sub < 2:
        raise ConfigurationError("need at least two subcarriers")
    scorer = PopulationScorer(matrix, sample_rate_hz, guards)
    rows = np.arange(n_sub)
    best = (-1, -1, -np.inf)
    for d in range(n_sub):
        m1 = rows[rows != d]
        scores = scorer.score(
            np.ones((m1.size, 1), dtype=complex), m1[:, None], np.full(m1.size, d)
        )
        i = int(np.argmax(scores))
        if scores[i] > best[2]:
            best = (int(m1[i]), d, float(scores[i]))
    return best


def solve_delay_basis(
    matrix: np.ndarray,
    frequencies_hz: np.ndarray,
    sample_rate_hz: float,
    ranked_pairs: list[tuple[int, int, float]],
    guards: GuardTable | None = None,
) -> GassSolution:
    """Closed-form search on one analysis window.

    The denominator d is the best ranked pair's, and every other row is a
    numerator. Its weights are w = F c over the delay basis F[m, t] =
    exp(j 2 pi (f_m - mean f) tau_t), with at most as many delays as
    numerator rows. The rows are projected onto the basis first, S_t =
    sum_m F[m, t] H_m / H_d (guarded like any ratio by ``guards``), and the
    band ratio of sum_t c_t S_t is c^H A c / c^H B c, with A and B the
    in-band and out-of-band Gram matrices of the spectra of S. Its maximum is
    the top eigenvalue of A whitened by the Cholesky factor of B. The weights
    are scaled so that max |w| = 1, with that entry real and positive, and
    the genome's ``fitness`` equals the eigenvalue up to rounding.

    ``ranked_pairs`` is a non-empty ``rank_seed_pairs`` ranking, reported as
    the solution's seeded pairs; ``frequencies_hz`` holds the center
    frequency of every row. When B is not positive definite, or the solved
    genome scores below the best pair, the best pair's own genome is the
    result, so the search is never worse than the ranking. B is singular on
    noise-free CSI, and on grids whose tone spacing aliases two delays (10
    MHz spacing repeats every 100 ns).
    """
    n_sub = matrix.shape[0]
    if n_sub < 2:
        raise ConfigurationError("need at least two subcarriers")
    if not ranked_pairs:
        raise ConfigurationError("the search needs at least one ranked pair")
    frequencies = np.asarray(frequencies_hz, dtype=float)
    if frequencies.shape != (n_sub,):
        raise ConfigurationError("need one center frequency per subcarrier row")
    guards = guards if guards is not None else guard_table(matrix)
    m1, d, pair_fitness = ranked_pairs[0]
    genome, score = Genome(np.ones(1, dtype=complex), np.array([m1]), d), pair_fitness
    solved = None if guards.rejected[d] else _solve(matrix, frequencies, sample_rate_hz, d, guards)
    if solved is not None:
        solved_score = fitness(solved, matrix, sample_rate_hz)
        if solved_score >= pair_fitness:
            genome, score = solved, solved_score
    return GassSolution(
        genome=genome,
        fitness=score,
        seeded_pairs=tuple((m1, m2) for m1, m2, _ in ranked_pairs),
        seeded_best_fitness=pair_fitness,
    )


def _solve(
    matrix: np.ndarray, frequencies: np.ndarray, sample_rate_hz: float, d: int,
    guards: GuardTable,
) -> Genome | None:
    """The delay-basis genome over denominator ``d`` (a row the guard keeps),
    or None when its Gram matrices admit no solution."""
    rows = np.flatnonzero(np.arange(matrix.shape[0]) != d)
    delays = np.linspace(-DELAY_SPAN_S, DELAY_SPAN_S, min(DELAY_COUNT, rows.size))
    basis = np.exp(2j * np.pi * np.outer(frequencies[rows] - frequencies.mean(), delays))
    # sum_m F[m, t] (H_m / H_d) = (sum_m F[m, t] H_m) / H_d, guard interpolation included
    projected = np.einsum("mt,mk->tk", basis, matrix[rows])
    if guards.flagged[d].any():
        projected = np.array([guards.ratio(row, matrix[d], d)[0] for row in projected])
    else:
        projected = projected / matrix[d]
    windowed, low, in_band, nfft = band_spectrum(projected, sample_rate_hz)
    band = _hermitian_gram(low[:, in_band])
    out_of_band = nfft * _hermitian_gram(windowed) - _hermitian_gram(low)
    try:
        factor = np.linalg.cholesky(out_of_band)
        inverse = np.linalg.inv(factor)
        _, vectors = np.linalg.eigh(inverse @ band @ inverse.conj().T)
    except np.linalg.LinAlgError:
        return None
    weights = np.einsum("mt,t->m", basis, inverse.conj().T @ vectors[:, -1])
    top = int(np.argmax(np.abs(weights)))
    weights = weights / weights[top]
    weights[top] = 1.0
    return Genome(weights, rows, d)


def _hermitian_gram(rows: np.ndarray) -> np.ndarray:
    """G[t, s] = sum_k conj(rows[t, k]) rows[s, k], so that the energy of
    sum_t c_t rows[t] is c^H G c."""
    return np.einsum("tk,sk->ts", rows.conj(), rows)


def build_streams(
    solution: GassSolution,
    matrix: np.ndarray,
    sample_rate_hz: float,
    *,
    guards: GuardTable | None = None,
) -> StreamStack:
    """Fan the solved numerator out over every row the guard keeps.

    One stream per kept grid position, the numerator rows included: the
    closed-form numerator spans every row but its denominator, so excluding
    numerator rows would leave at most one stream. A numerator with weight
    on a single row leaves that row out, since over itself it is constant
    up to the rounding of x / x. The numerator is divided by all kept rows
    at once; only rows with flagged samples take the interpolating path.
    ``guards`` is ``guard_table(matrix)`` when the caller already has it.
    """
    genome = solution.genome
    if guards is None:
        guards = guard_table(matrix)
    kept = ~guards.rejected
    own = np.unique(genome.numerator_indices[genome.weights != 0])
    if own.size == 1:
        kept[own] = False
    rows = np.flatnonzero(kept)
    numerator = _numerator(matrix, genome.weights, genome.numerator_indices)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (numerator / matrix[rows]).astype(complex, copy=False)
    interpolated = guards.flagged[rows]
    for j in np.flatnonzero(interpolated.any(axis=1)):
        values[j], _ = guards.ratio(numerator, matrix[rows[j]], rows[j])
    return StreamStack(values, sample_rate_hz, rows, interpolated)
