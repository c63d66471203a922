import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from csibreath.errors import ConfigurationError
from csibreath.gass import (
    GaParams,
    GassSolution,
    Genome,
    PopulationScorer,
    best_single_pair,
    build_streams,
    combined_ratio,
    fitness,
    rank_seed_pairs,
    solve_delay_basis,
)
from csibreath.grid import custom_grid
from csibreath.ratio import (
    GuardTable,
    average_phase_blocks,
    band_spectrum,
    guard_table,
    guarded_ratio,
)
from csibreath.simulate import (
    ChannelScenario,
    ImpairmentConfig,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    generate_ideal_csi,
)


def _toy_frequencies(n_tones, spacing_hz=10e6):
    return 2.452e9 + spacing_hz * np.arange(n_tones)


def _toy_matrix(n_tones=6, seed=2, noise=0.05, duration_s=20.0, spacing_hz=10e6):
    grid = custom_grid(_toy_frequencies(n_tones, spacing_hz))
    scenario = ChannelScenario(
        sample_rate_hz=10.0,
        duration_s=duration_s,
        static_paths=(StaticPath(amplitude=1.0, length_m=6.0),),
        dynamic_amplitude=0.1,
        base_dynamic_length_m=10.0,
        motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.003),
    )
    trace = generate_ideal_csi(scenario, grid)
    return apply_impairments(
        trace, ImpairmentConfig(gaussian_noise_std=noise, seed=seed)
    ).values


# ----------------------------------------------------------------------------
# Fitness primitives
# ----------------------------------------------------------------------------


def test_combined_ratio_hand_oracle(rng):
    matrix = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)) + 2.0
    weights = np.array([2.0 + 0j, 0.0 + 1j])
    values, bad = combined_ratio(matrix, weights, np.array([0, 2]), 1)
    expected = (2.0 * matrix[0] + 1j * matrix[2]) / matrix[1]
    np.testing.assert_allclose(values, expected, rtol=1e-14)
    assert not bad.any()


def test_fitness_zero_for_silent_or_guarded_genomes():
    matrix = np.ones((3, 40), dtype=complex)
    matrix[1] += 0.1 * np.sin(2 * np.pi * 0.25 * np.arange(40) / 10.0)
    silent = Genome(np.zeros(1, dtype=complex), np.array([1]), 0)
    assert fitness(silent, matrix, 10.0) == 0.0
    matrix[2] = 0.0  # denominator guard trips
    guarded = Genome(np.array([1.0 + 0j]), np.array([1]), 2)
    assert fitness(guarded, matrix, 10.0) == 0.0


def test_genome_validation():
    matrix = np.ones((4, 30), dtype=complex)
    cases = [
        Genome(np.array([1.5 + 0j]), np.array([1]), 0),      # weight too big
        Genome(np.array([1.0 + 0j]), np.array([2]), 2),      # collides
        Genome(np.array([1.0 + 0j]), np.array([9]), 0),      # out of range
        Genome(np.array([1.0 + 0j]), np.array([1, 2]), 0),   # shape mismatch
        Genome(np.array([1.0 + 0j]), np.array([1]), 7),      # denominator range
    ]
    for genome in cases:
        with pytest.raises(ConfigurationError):
            fitness(genome, matrix, 10.0)


@settings(max_examples=25, deadline=None)
@given(angle=st.floats(0.0, 2 * np.pi), scale=st.floats(0.05, 1.0))
def test_single_weight_fitness_ignores_scale_and_phase(angle, scale):
    matrix = _toy_matrix(n_tones=3)
    unit = Genome(np.array([1.0 + 0j]), np.array([0]), 2)
    scaled = Genome(
        np.array([scale * np.exp(1j * angle)]), np.array([0]), 2
    )
    assert np.isclose(
        fitness(unit, matrix, 10.0), fitness(scaled, matrix, 10.0), rtol=1e-9
    )


# ----------------------------------------------------------------------------
# Batch scoring
# ----------------------------------------------------------------------------


def _scoring_matrix():
    """Seven rows at 10 Hz, each exercising one branch of the fitness."""
    rng = np.random.default_rng(3)
    n = 600
    breath = 1.0 + 0.1 * np.sin(2 * np.pi * 0.25 * np.arange(n) / 10.0)
    matrix = 1.0 + 0.3 * (rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n)))
    matrix[1] = matrix[0] * breath        # row 1 over row 0: no out-of-band energy
    matrix[2] = 0.0                       # rejected: zero throughout
    matrix[3, 100:200] = 1e-12            # rejected: 1/6 of the samples flagged
    matrix[4, [0, 50, 51, 599]] = 0.0     # tolerated: 4 samples interpolated
    return matrix


SCORING_MATRIX = _scoring_matrix()


def _padded(n, weight, numerator, denominator):
    """Genome with one live numerator and n - 1 zero-weight fillers."""
    filler = next(m for m in range(7) if m != denominator)
    weights = np.zeros(n, dtype=complex)
    weights[0] = weight
    indices = np.full(n, filler)
    indices[0] = numerator
    return Genome(weights, indices, denominator)


@st.composite
def _populations(draw):
    n = draw(st.integers(1, 3))
    population = [
        _padded(n, 0.0, 0, 1),            # all-zero weights
        _padded(n, 1.0, 1, 0),            # inf band ratio
        _padded(n, 0.5, 0, 2),            # denominator zero throughout
        _padded(n, 1.0, 0, 3),            # denominator mostly flagged
        _padded(n, 0.7j, 0, 4),           # a few samples interpolated
    ]
    for _ in range(draw(st.integers(0, 8))):
        denominator = draw(st.integers(0, 6))
        indices = [
            m + (m >= denominator)
            for m in draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        ]
        radius = draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=n, max_size=n
        ))
        phase = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
        weights = np.array(radius) * np.exp(1j * np.array(phase))
        population.append(Genome(weights, np.array(indices), denominator))
    return draw(st.permutations(population))


def _stacked(population):
    """Equal-length genomes as the (weights, indices, denominators) arrays
    ``PopulationScorer.score`` takes."""
    return (
        np.stack([g.weights for g in population]),
        np.stack([g.numerator_indices for g in population]),
        np.array([g.denominator_index for g in population]),
    )


@settings(max_examples=40, deadline=None)
@given(population=_populations())
def test_population_scorer_equals_fitness_bit_for_bit(population):
    scores = PopulationScorer(SCORING_MATRIX, 10.0).score(*_stacked(population))
    expected = np.array([fitness(g, SCORING_MATRIX, 10.0) for g in population])
    assert scores.tobytes() == expected.tobytes()
    assert np.isinf(expected).any() and (expected == 0.0).sum() >= 3


def test_population_scorer_raises_like_fitness():
    good = _padded(1, 1.0, 0, 5)
    invalid = [
        Genome(np.array([1.5 + 0j]), np.array([1]), 0),      # weight too big
        Genome(np.array([1.0 + 0j]), np.array([2]), 2),      # collides
        Genome(np.array([1.0 + 0j]), np.array([9]), 0),      # out of range
        Genome(np.array([1.0 + 0j]), np.array([1]), 7),      # denominator range
    ]
    scorer = PopulationScorer(SCORING_MATRIX, 10.0)
    for i, bad in enumerate(invalid):
        with pytest.raises(ConfigurationError) as reference:
            fitness(bad, SCORING_MATRIX, 10.0)
        later_bad = invalid[(i + 1) % len(invalid)]
        with pytest.raises(ConfigurationError, match=re.escape(str(reference.value))):
            scorer.score(*_stacked([good, bad, later_bad, good]))
    # weights and numerator indices of unequal length
    weights, indices, denominators = _stacked([good, good])
    with pytest.raises(ConfigurationError, match="population arrays"):
        scorer.score(weights, np.hstack([indices, indices]), denominators)


# ----------------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------------


def test_seed_ranking_is_sorted_and_deterministic():
    matrix = _toy_matrix()
    params = GaParams(seed_pool=25, seed_top=5)
    a = rank_seed_pairs(matrix, 10.0, params, np.random.default_rng(5))
    b = rank_seed_pairs(matrix, 10.0, params, np.random.default_rng(5))
    assert a == b
    scores = [s for _, _, s in a]
    assert scores == sorted(scores, reverse=True)
    assert all(m1 != m2 for m1, m2, _ in a)
    assert len({(m1, m2) for m1, m2, _ in a}) == len(a)
    assert len(a) == 25


def test_seed_ranking_pool_capped_by_pair_count():
    matrix = _toy_matrix(n_tones=3)
    ranked = rank_seed_pairs(
        matrix, 10.0, GaParams(seed_pool=500), np.random.default_rng(0)
    )
    assert len(ranked) == 6  # 3 * 2 ordered pairs


def test_seed_ranking_scores_equal_pair_fitness(impaired_trace):
    matrix = average_phase_blocks(impaired_trace, 5).values
    ranked = rank_seed_pairs(matrix, 10.0, GaParams(), np.random.default_rng(0))
    assert len(ranked) == 200
    for m1, m2, score in ranked:
        pair = Genome(np.array([1.0 + 0j]), np.array([m1]), m2)
        assert score == fitness(pair, matrix, 10.0)


# ----------------------------------------------------------------------------
# Exhaustive pair reference
# ----------------------------------------------------------------------------


def test_toy_grid_search_matches_exhaustive():
    # with one numerator the objective ignores weight scale and phase, so
    # the best ordered pair is the true single-pair optimum
    matrix = _toy_matrix(n_tones=6).copy()
    matrix[2, ::2] = 0.0  # half the samples flagged: the guard rejects row 2
    guards = guard_table(matrix)
    assert guards.rejected.tolist() == [False, False, True, False, False, False]
    scores = {
        (m1, m2): fitness(Genome(np.array([1.0 + 0j]), np.array([m1]), m2), matrix, 10.0)
        for m2 in range(6)
        for m1 in range(6)
        if m1 != m2
    }
    assert all(scores[(m1, 2)] == 0.0 for m1 in range(6) if m1 != 2)
    best = max(scores, key=scores.get)  # the first maximum: lowest denominator, then numerator
    assert best_single_pair(matrix, 10.0) == (*best, scores[best])
    assert best_single_pair(matrix, 10.0, guards) == (*best, scores[best])
    # every pair in a random ranking scores at most the exhaustive best
    ranked = rank_seed_pairs(matrix, 10.0, GaParams(seed_pool=12), np.random.default_rng(0))
    assert ranked[0][2] <= scores[best]
    with pytest.raises(ConfigurationError, match="two subcarriers"):
        best_single_pair(matrix[:1], 10.0)


@pytest.mark.parametrize("bad", [
    {"seed_pool": 0},
    {"seed_pool": -1},
    {"seed_pool": 10.5},
    {"seed_pool": 2.0},
    {"seed_pool": True},
    {"seed_pool": "200"},
    {"seed_pool": None},
    {"seed_pool": float("nan")},
    {"seed_top": 0},
    {"seed_top": -1},
    {"seed_top": 2.5},
    {"seed_top": 1.0},
    {"seed_top": False},
    {"seed_top": "20"},
    {"seed_top": None},
    {"seed_top": float("inf")},
])
def test_ga_params_reject_bad_values(bad):
    # the search starts from the best ranked pair, so both need at least one
    with pytest.raises(ConfigurationError, match=rf"ga\.{next(iter(bad))} must be an integer >= 1"):
        GaParams(**bad)


# ----------------------------------------------------------------------------
# Stream fan-out
# ----------------------------------------------------------------------------


def test_build_streams_covers_every_kept_row():
    # the closed-form numerator spans every row but its denominator, so the
    # fan-out divides it by every row the guard keeps, numerator rows included
    matrix = _toy_matrix(n_tones=12, spacing_hz=2.5e6)
    matrix[4] = 0.0  # rejected by the guard
    guards = guard_table(matrix)
    ranked = rank_seed_pairs(matrix, 10.0, GaParams(seed_pool=20), np.random.default_rng(1))
    solution = solve_delay_basis(matrix, _toy_frequencies(12, 2.5e6), 10.0, ranked, guards)
    genome = solution.genome
    assert genome.weights.size == 11
    streams = build_streams(solution, matrix, 10.0)
    assert streams.denominators.tolist() == [m for m in range(12) if m != 4]
    assert streams.values.shape == (11, matrix.shape[1]) and len(streams) == 11
    assert streams.sample_rate_hz == 10.0
    # a single-pair numerator over its own row would be constant up to the
    # rounding of x / x, so that row is left out
    m1, d, score = ranked[0]
    pair = GassSolution(Genome(np.array([1.0 + 0j]), np.array([m1]), d), score)
    fallback = build_streams(pair, matrix, 10.0)
    assert fallback.denominators.tolist() == [m for m in range(12) if m not in (4, m1)]


def test_build_streams_values_match_direct_ratio():
    matrix = _toy_matrix(n_tones=4, spacing_hz=2.5e6)
    ranked = rank_seed_pairs(matrix, 10.0, GaParams(seed_pool=10), np.random.default_rng(5))
    solution = solve_delay_basis(matrix, _toy_frequencies(4, 2.5e6), 10.0, ranked)
    streams = build_streams(solution, matrix, 10.0)
    assert len(streams) == 4
    for values, denominator in zip(streams.values, streams.denominators):
        expected, _ = combined_ratio(
            matrix,
            solution.genome.weights,
            solution.genome.numerator_indices,
            denominator,
        )
        np.testing.assert_allclose(values, expected, rtol=1e-14)


def test_shared_guard_table_gives_the_same_outputs(impaired_trace, small_ga):
    matrix = average_phase_blocks(impaired_trace, 5).values.copy()
    matrix[3, ::25] = 0.0   # a few flagged samples: interpolated
    matrix[7, ::2] = 0.0    # half of them flagged: rejected
    guards = guard_table(matrix)
    assert guards.rejected[7] and not guards.rejected[3] and guards.flagged[3].any()
    shared = rank_seed_pairs(matrix, 10.0, small_ga, np.random.default_rng(4), guards=guards)
    assert shared == rank_seed_pairs(matrix, 10.0, small_ga, np.random.default_rng(4))
    frequencies = impaired_trace.grid.center_frequency_hz
    a = solve_delay_basis(matrix, frequencies, 10.0, shared, guards)
    b = solve_delay_basis(matrix, frequencies, 10.0, shared)
    assert a.fitness == b.fitness
    for part in ("weights", "numerator_indices"):
        assert getattr(a.genome, part).tobytes() == getattr(b.genome, part).tobytes()
    assert best_single_pair(matrix, 10.0, guards) == best_single_pair(matrix, 10.0)
    genome = Genome(np.array([1.0 + 0j, 0.5j, 0.0]), np.array([3, 1, 2]), 0)
    solution = GassSolution(genome, 1.0)
    with_table = build_streams(solution, matrix, 10.0, guards=guards)
    without = build_streams(solution, matrix, 10.0)
    assert with_table.denominators.tolist() == without.denominators.tolist()
    assert 7 not in with_table.denominators
    assert with_table.values.tobytes() == without.values.tobytes()
    assert with_table.interpolated.tobytes() == without.interpolated.tobytes()


# ----------------------------------------------------------------------------
# Closed-form search
# ----------------------------------------------------------------------------


def _eigenvalue(matrix, frequencies, fs, denominator):
    """Top generalized eigenvalue of the delay-basis problem, built the long
    way: every ratio row guarded on its own, then projected, and solved by
    scipy."""
    rows = [m for m in range(matrix.shape[0]) if m != denominator]
    delays = np.linspace(-100e-9, 100e-9, min(8, len(rows)))
    basis = np.exp(2j * np.pi * np.outer(frequencies[rows] - frequencies.mean(), delays))
    ratios = np.array([guarded_ratio(matrix[m], matrix[denominator])[0] for m in rows])
    windowed, low, in_band, nfft = band_spectrum(basis.T @ ratios, fs)
    band = low[:, in_band].conj() @ low[:, in_band].T
    out_of_band = nfft * windowed.conj() @ windowed.T - low.conj() @ low.T
    return scipy.linalg.eigh(band, out_of_band, eigvals_only=True)[-1]


def _window(trace, k1=5, seed=None):
    """A 10 s block-averaged window of ``trace`` with fresh noise from ``seed``."""
    if seed is not None:
        trace = apply_impairments(trace, ImpairmentConfig(
            pbd_noise_std=0.002, sfo_slope=1e-4, cfo_walk_std=0.05,
            gaussian_noise_std=0.03, seed=seed,
        ))
    return average_phase_blocks(trace, k1).values[:, :100]


def _solve(matrix, frequencies, fs=10.0, seed=0):
    ranked = rank_seed_pairs(matrix, fs, GaParams(), np.random.default_rng(seed))
    return solve_delay_basis(matrix, frequencies, fs, ranked[:20]), ranked


@pytest.mark.parametrize("seed", range(4))
def test_delay_basis_fitness_equals_eigenvalue(breathing_trace, seed):
    frequencies = breathing_trace.grid.center_frequency_hz
    matrix = _window(breathing_trace, seed=seed)
    solution, ranked = _solve(matrix, frequencies, seed=seed)
    genome = solution.genome
    assert genome.weights.size == matrix.shape[0] - 1  # not the fallback
    assert solution.fitness == fitness(genome, matrix, 10.0)
    expected = _eigenvalue(matrix, frequencies, 10.0, genome.denominator_index)
    np.testing.assert_allclose(solution.fitness, expected, rtol=1e-9)
    assert genome.denominator_index == ranked[0][1]
    assert solution.fitness > solution.seeded_best_fitness == ranked[0][2]
    assert solution.seeded_pairs == tuple((m1, m2) for m1, m2, _ in ranked[:20])


@pytest.mark.parametrize("seed", range(3))
def test_delay_basis_weights_are_canonical(breathing_trace, seed):
    matrix = _window(breathing_trace, seed=seed)
    weights = _solve(matrix, breathing_trace.grid.center_frequency_hz)[0].genome.weights
    top = int(np.argmax(np.abs(weights)))
    assert weights[top] == 1.0 and np.abs(weights).max() == 1.0
    # the same window rotated and rescaled has the same ratios up to
    # rounding, and solves to the same weights: the eigenvector's arbitrary
    # phase does not leak out
    scaled = matrix * (0.5 * np.exp(0.7j))
    again = _solve(scaled, breathing_trace.grid.center_frequency_hz)[0].genome.weights
    np.testing.assert_allclose(again, weights, rtol=1e-7, atol=1e-9)


def test_delay_basis_is_never_below_the_best_pair(breathing_trace):
    frequencies = breathing_trace.grid.center_frequency_hz
    # noise-free CSI spans too few dimensions: B is singular, Cholesky fails
    clean = _window(breathing_trace)
    solution, ranked = _solve(clean, frequencies)
    m1, d, score = ranked[0]
    assert solution.genome.weights.tolist() == [1.0]
    assert solution.genome.numerator_indices.tolist() == [m1]
    assert solution.genome.denominator_index == d
    assert solution.fitness == score == fitness(solution.genome, clean, 10.0)
    # grids with fewer numerator rows than delays, and a noisy full grid
    for n_tones in (2, 3, 6):
        for seed in range(3):
            matrix = _toy_matrix(n_tones=n_tones, seed=seed)
            solution, ranked = _solve(matrix, _toy_frequencies(n_tones), seed=seed)
            assert solution.fitness >= ranked[0][2]
            assert solution.fitness == fitness(solution.genome, matrix, 10.0)
    for seed in range(5):
        solution, ranked = _solve(_window(breathing_trace, seed=seed), frequencies, seed=seed)
        assert solution.fitness >= ranked[0][2]


def test_delay_basis_falls_back_when_the_solve_scores_lower(breathing_trace):
    matrix = _window(breathing_trace, seed=1)
    frequencies = breathing_trace.grid.center_frequency_hz
    ranked = rank_seed_pairs(matrix, 10.0, GaParams(), np.random.default_rng(0))
    better = [(ranked[0][0], ranked[0][1], np.inf)]  # a pair no solve can beat
    solution = solve_delay_basis(matrix, frequencies, 10.0, better)
    assert solution.genome.weights.size == 1 and solution.fitness == np.inf


def test_delay_basis_interpolates_a_flagged_denominator(breathing_trace, monkeypatch):
    frequencies = breathing_trace.grid.center_frequency_hz
    matrix = _window(breathing_trace, seed=2).copy()
    ranked = rank_seed_pairs(matrix, 10.0, GaParams(), np.random.default_rng(0))
    m1, d, _ = ranked[0]
    matrix[d, [0, 40, 41, 99]] = 0.0  # flagged, not rejected
    guards = guard_table(matrix)
    assert guards.flagged[d].any() and not guards.rejected[d]
    pair = fitness(Genome(np.array([1.0 + 0j]), np.array([m1]), d), matrix, 10.0)
    calls = []
    original = GuardTable.ratio

    def spy(self, numerator, denominator, row):
        calls.append(row)
        return original(self, numerator, denominator, row)

    monkeypatch.setattr(GuardTable, "ratio", spy)
    solution = solve_delay_basis(matrix, frequencies, 10.0, [(m1, d, pair)], guards)
    assert calls.count(d) == 8  # one per projected row; ``fitness`` adds its own
    assert solution.genome.weights.size == matrix.shape[0] - 1
    np.testing.assert_allclose(
        solution.fitness, _eigenvalue(matrix, frequencies, 10.0, d), rtol=1e-9
    )


def test_delay_basis_input_validation():
    matrix = _toy_matrix(n_tones=4)
    with pytest.raises(ConfigurationError, match="ranked pair"):
        solve_delay_basis(matrix, _toy_frequencies(4), 10.0, [])
    with pytest.raises(ConfigurationError, match="center frequency"):
        solve_delay_basis(matrix, _toy_frequencies(3), 10.0, [(0, 1, 1.0)])
    with pytest.raises(ConfigurationError, match="two subcarriers"):
        solve_delay_basis(matrix[:1], _toy_frequencies(1), 10.0, [(0, 1, 1.0)])
