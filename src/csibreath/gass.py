"""Genetic-algorithm search for a high-quality weighted subcarrier ratio.

The search space: N numerator subcarriers with complex weights (|a_i| <= 1)
and one denominator subcarrier; the objective is the respiration-band ratio
of sum_i a_i H(m_i, k) / H(m_d, k). Elite preservation makes the best
fitness non-decreasing across generations, so the returned solution is never
worse than any genome in the initial population - in particular never worse
than the seeded single-pair candidates.

``fitness`` scores one genome and is the reference definition of the
objective. The search scores each generation as one batch with
``PopulationScorer``, whose scores equal ``fitness`` bit for bit, so the
batch changes the speed of the search but not its trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StreamGuardError
from .ratio import CscrStream, guard_table, guarded_ratio, ssnr_values
from .simulate import CsiFrame, frames_to_matrix


@dataclass(frozen=True)
class GaParams:
    """Search hyperparameters. Defaults favor robustness over speed."""

    population: int = 64
    generations: int = 100
    tournament: int = 3
    crossover_prob: float = 0.8
    mutation_prob: float = 0.05
    weight_sigma: float = 0.1
    elites: int = 2
    stagnation_limit: int = 20
    seed_pool: int = 200   # random single pairs ranked for seeding
    seed_top: int = 20     # best-ranked pairs inserted into the population

    def __post_init__(self) -> None:
        if self.population < max(2, self.elites + 1):
            raise ConfigurationError("population too small for elitism")
        if not 0 <= self.crossover_prob <= 1 or not 0 <= self.mutation_prob <= 1:
            raise ConfigurationError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class Genome:
    """One candidate: complex weights, numerator indices, denominator index."""

    weights: np.ndarray
    numerator_indices: np.ndarray
    denominator_index: int

    def key(self) -> bytes:
        return (
            self.weights.tobytes()
            + self.numerator_indices.astype(np.int64).tobytes()
            + int(self.denominator_index).to_bytes(8, "little", signed=True)
        )


@dataclass(frozen=True)
class GassSolution:
    genome: Genome
    fitness: float
    generation_found: int
    history: np.ndarray = field(repr=False)  # best fitness per generation
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
    guard_rel: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted numerator over a single denominator row of a CSI matrix."""
    numerator = weights @ matrix[numerator_indices]
    return guarded_ratio(numerator, matrix[denominator_index], guard_rel)


def fitness(
    genome: Genome,
    frames: list[CsiFrame] | np.ndarray,
    sample_rate_hz: float,
) -> float:
    """Band ratio of the genome's combined ratio stream; 0 when infeasible.

    All-zero weights produce no signal and score 0. A denominator that fails
    the stream guard also scores 0 rather than raising, so the search can
    move through infeasible corners.
    """
    matrix = frames if isinstance(frames, np.ndarray) else frames_to_matrix(frames)
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
    """Fitness of a whole population on one window, computed as one batch.

    Each score equals ``fitness(genome, matrix, sample_rate_hz)`` bit for
    bit. All numerators come from one gather-matmul, and each denominator's
    guard status from a table built once per scorer; only rows with flagged
    but tolerated samples take the interpolating path. Invalid genomes raise
    the same ConfigurationError as ``fitness``.
    """

    def __init__(self, matrix: np.ndarray, sample_rate_hz: float):
        self.matrix = matrix
        self.sample_rate_hz = sample_rate_hz
        self.guards = guard_table(matrix)

    def __call__(self, population: list[Genome]) -> np.ndarray:
        n_sub = self.matrix.shape[0]
        if not population:
            return np.zeros(0)
        shapes = {g.weights.shape for g in population}
        shapes |= {g.numerator_indices.shape for g in population}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            for genome in population:
                _check_genome(genome, n_sub)
            raise ConfigurationError("genomes of one population must have equal length")
        weights = np.stack([g.weights for g in population])
        indices = np.stack([g.numerator_indices for g in population])
        denominators = np.array([g.denominator_index for g in population])
        invalid = (
            np.any(np.abs(weights) > 1.0 + 1e-12, axis=1)
            | np.any((indices < 0) | (indices >= n_sub), axis=1)
            | (denominators < 0)
            | (denominators >= n_sub)
            | np.any(indices == denominators[:, None], axis=1)
        )
        if invalid.any():
            _check_genome(population[int(np.argmax(invalid))], n_sub)
        return self._score(weights, indices, denominators)

    def _score(
        self, weights: np.ndarray, indices: np.ndarray, denominators: np.ndarray
    ) -> np.ndarray:
        """Scores of validated (P, N) weights and indices over (P,) denominators."""
        scores = np.zeros(denominators.size)
        live = np.any(weights, axis=1) & ~self.guards.rejected[denominators]
        if not live.any():
            return scores
        den = denominators[live]
        numerators = (weights[live][:, None, :] @ self.matrix[indices[live]])[:, 0, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (numerators / self.matrix[den]).astype(complex, copy=False)
        for j in np.flatnonzero(self.guards.flagged[den].any(axis=1)):
            values[j], _ = self.guards.ratio(numerators[j], self.matrix[den[j]], den[j])
        scores[live] = ssnr_values(values, self.sample_rate_hz)
        return scores


def rank_seed_pairs(
    matrix: np.ndarray,
    sample_rate_hz: float,
    params: GaParams,
    rng: np.random.Generator,
) -> list[tuple[int, int, float]]:
    """Rank a random pool of (numerator, denominator) pairs by band ratio.

    Returns (numerator, denominator, band ratio) triples, best first. The
    best entry doubles as the window's single-pair quality estimate, which
    the pipeline uses to decide whether a previous solution is still good.
    """
    n_sub = matrix.shape[0]
    n_pool = min(params.seed_pool, n_sub * (n_sub - 1))
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    while len(pairs) < n_pool:
        m1, m2 = rng.integers(0, n_sub, size=2)
        if m1 != m2 and (m1, m2) not in seen:
            seen.add((m1, m2))
            pairs.append((int(m1), int(m2)))
    # each pair is the genome (weights [1], numerators [m1], denominator m2)
    index = np.array(pairs, dtype=int).reshape(-1, 2)
    scores = PopulationScorer(matrix, sample_rate_hz)._score(
        np.ones((len(pairs), 1), dtype=complex), index[:, :1], index[:, 1]
    )
    ranked = sorted(zip(pairs, scores), key=lambda t: (-t[1], t[0]))
    return [(m1, m2, float(s)) for (m1, m2), s in ranked]


def _pair_genome(m1: int, m2: int, n_numerators: int, n_sub: int,
                 rng: np.random.Generator) -> Genome:
    """Single-pair seed: unit weight on m1, zero weights on random fillers."""
    weights = np.zeros(n_numerators, dtype=complex)
    weights[0] = 1.0 + 0.0j
    indices = np.empty(n_numerators, dtype=int)
    indices[0] = m1
    for i in range(1, n_numerators):
        indices[i] = _draw_index(rng, n_sub, forbidden=m2)
    return Genome(weights, indices, m2)


def _draw_index(rng: np.random.Generator, n_sub: int, forbidden: int) -> int:
    idx = int(rng.integers(0, n_sub - 1))
    return idx + 1 if idx >= forbidden else idx


def _random_genome(n_numerators: int, n_sub: int, rng: np.random.Generator) -> Genome:
    denominator = int(rng.integers(0, n_sub))
    indices = np.array(
        [_draw_index(rng, n_sub, denominator) for _ in range(n_numerators)]
    )
    radius = np.sqrt(rng.random(n_numerators))
    phase = rng.uniform(0.0, 2.0 * np.pi, n_numerators)
    return Genome(radius * np.exp(1j * phase), indices, denominator)


def _mutate(genome: Genome, n_sub: int, params: GaParams,
            rng: np.random.Generator) -> Genome:
    weights = genome.weights.copy()
    indices = genome.numerator_indices.copy()
    denominator = genome.denominator_index
    if rng.random() < params.mutation_prob:
        denominator = int(rng.integers(0, n_sub))
    for i in range(indices.size):
        if rng.random() < params.mutation_prob:
            indices[i] = _draw_index(rng, n_sub, denominator)
        if rng.random() < params.mutation_prob:
            step = rng.normal(0.0, params.weight_sigma, 2)
            w = weights[i] + step[0] + 1j * step[1]
            if abs(w) > 1.0:
                w /= abs(w)
            weights[i] = w
    # a denominator mutation may collide with surviving numerator genes
    for i in range(indices.size):
        if indices[i] == denominator:
            indices[i] = _draw_index(rng, n_sub, denominator)
    return Genome(weights, indices, denominator)


def _crossover(a: Genome, b: Genome, n_sub: int, params: GaParams,
               rng: np.random.Generator) -> Genome:
    if rng.random() >= params.crossover_prob:
        return a
    take_b = rng.random(a.weights.size) < 0.5
    weights = np.where(take_b, b.weights, a.weights)
    indices = np.where(take_b, b.numerator_indices, a.numerator_indices)
    denominator = b.denominator_index if rng.random() < 0.5 else a.denominator_index
    for i in range(indices.size):
        if indices[i] == denominator:
            indices[i] = _draw_index(rng, n_sub, denominator)
    return Genome(weights, indices.copy(), denominator)


def _tournament(fits: np.ndarray, params: GaParams,
                rng: np.random.Generator) -> int:
    contenders = rng.integers(0, fits.size, params.tournament)
    return int(contenders[np.argmax(fits[contenders])])


def optimize(
    frames: list[CsiFrame] | np.ndarray,
    n_numerators: int,
    sample_rate_hz: float,
    params: GaParams | None = None,
    seed: int | np.random.Generator = 0,
    ranked_pairs: list[tuple[int, int, float]] | None = None,
) -> GassSolution:
    """Search for the best weighted ratio on one analysis window.

    Deterministic for a fixed seed. The initial population contains the
    top-ranked single-pair genomes from a random candidate pool, so the
    result can only improve on the best plain two-subcarrier ratio found
    there. A caller that already ranked the pool (``rank_seed_pairs``) can
    pass it in through ``ranked_pairs``.
    """
    params = params or GaParams()
    matrix = frames if isinstance(frames, np.ndarray) else frames_to_matrix(frames)
    n_sub = matrix.shape[0]
    if n_sub < 2:
        raise ConfigurationError("need at least two subcarriers")
    if n_numerators < 1:
        raise ConfigurationError("n_numerators must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    score = PopulationScorer(matrix, sample_rate_hz)

    ranked = (
        ranked_pairs
        if ranked_pairs is not None
        else rank_seed_pairs(matrix, sample_rate_hz, params, rng)
    )
    seeds = ranked[: params.seed_top]
    population = [
        _pair_genome(m1, m2, n_numerators, n_sub, rng) for m1, m2, _ in seeds
    ]
    while len(population) < params.population:
        population.append(_random_genome(n_numerators, n_sub, rng))
    population = population[: params.population]

    fits = score(population)
    best_idx = int(np.argmax(fits))
    best_genome, best_fit = population[best_idx], float(fits[best_idx])
    history = [best_fit]
    generation_found = 0
    stagnant = 0

    for generation in range(1, params.generations + 1):
        order = np.argsort(-fits, kind="stable")
        next_pop = [population[i] for i in order[: params.elites]]
        while len(next_pop) < params.population:
            pa = population[_tournament(fits, params, rng)]
            pb = population[_tournament(fits, params, rng)]
            child = _crossover(pa, pb, n_sub, params, rng)
            child = _mutate(child, n_sub, params, rng)
            next_pop.append(child)
        population = next_pop
        fits = score(population)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_genome, best_fit = population[gen_best], float(fits[gen_best])
            generation_found = generation
            stagnant = 0
        else:
            stagnant += 1
        history.append(best_fit)
        if stagnant >= params.stagnation_limit:
            break

    return GassSolution(
        genome=best_genome,
        fitness=best_fit,
        generation_found=generation_found,
        history=np.array(history),
        seeded_pairs=tuple((m1, m2) for m1, m2, _ in seeds),
        seeded_best_fitness=seeds[0][2] if seeds else float("nan"),
    )


def build_streams(
    solution: GassSolution,
    frames: list[CsiFrame] | np.ndarray,
    sample_rate_hz: float,
    include_numerators: bool = False,
    guard_rel: float = 1e-9,
) -> list[CscrStream]:
    """Fan the solved numerator out over every remaining denominator.

    One stream per grid position, excluding the numerator subcarriers
    themselves unless ``include_numerators`` is set (zero-weight numerator
    slots do not count as used). Streams whose denominator fails the guard
    are skipped.
    """
    matrix = frames if isinstance(frames, np.ndarray) else frames_to_matrix(frames)
    genome = solution.genome
    used = {
        int(m)
        for m, w in zip(genome.numerator_indices, genome.weights)
        if w != 0
    }
    streams: list[CscrStream] = []
    numerator_spec = tuple(
        (complex(w), int(m))
        for w, m in zip(genome.weights, genome.numerator_indices)
    )
    guards = guard_table(matrix, guard_rel)
    numerator = genome.weights @ matrix[genome.numerator_indices]
    for m in range(matrix.shape[0]):
        if (not include_numerators and m in used) or guards.rejected[m]:
            continue
        values, bad = guards.ratio(numerator, matrix[m], m)
        streams.append(
            CscrStream(
                values=values,
                sample_rate_hz=sample_rate_hz,
                numerator=numerator_spec,
                denominator=m,
                interpolated=bad,
            )
        )
    return streams
