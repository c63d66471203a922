import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from csibreath.errors import ConfigurationError
from csibreath import gass
from csibreath.gass import (
    GassSolution,
    Genome,
    _pair_scores,
    best_single_pair,
    build_streams,
    combined_ratio,
    fitness,
    pick_denominator,
    solve_delay_basis,
)
from csibreath.grid import FIELD_HT_LTF, FIELD_L_LTF, SubcarrierGrid, custom_grid
from csibreath.ratio import (
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


def _toy_matrix(n_tones=6, seed=2, noise=0.05, duration_s=20.0, spacing_hz=10e6, grid=None):
    grid = grid or custom_grid(_toy_frequencies(n_tones, spacing_hz))
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


def test_single_pair_scores_equal_fitness_bit_for_bit():
    guards = guard_table(SCORING_MATRIX)
    assert guards.rejected.tolist() == [False, False, True, True, False, False, False]
    assert guards.flagged[4].any()
    rows = np.arange(7)
    expected = {}
    for d in range(7):
        numerators = rows[rows != d][::-1]  # any order
        scores = _pair_scores(SCORING_MATRIX, 10.0, guards, numerators, d)
        loop = np.array([
            fitness(Genome(np.array([1.0 + 0j]), np.array([m]), d), SCORING_MATRIX, 10.0)
            for m in numerators
        ])
        assert scores.tobytes() == loop.tobytes(), d
        expected.update({(int(m), d): score for m, score in zip(numerators, loop)})
    values = np.array(list(expected.values()))
    assert np.isinf(values).any() and (values == 0.0).sum() >= 12
    best = max(sorted(expected, key=lambda pair: (pair[1], pair[0])), key=expected.get)
    assert best_single_pair(SCORING_MATRIX, 10.0) == (*best, expected[best])


# ----------------------------------------------------------------------------
# Denominator and fallback pair
# ----------------------------------------------------------------------------


def _steadiness(row):
    magnitude = np.abs(row[np.isfinite(row)])
    return magnitude.mean() / magnitude.std()


def _best_pair_over(matrix, d):
    """The best single pair over denominator d by a ``fitness`` loop, ties to
    the lowest numerator, and its band ratio."""
    pairs = [
        Genome(np.array([1.0 + 0j]), np.array([m]), d) for m in range(matrix.shape[0]) if m != d
    ]
    scores = [fitness(pair, matrix, 10.0) for pair in pairs]
    best = int(np.argmax(scores))
    return pairs[best], scores[best]


def test_denominator_is_the_steadiest_kept_row(rng):
    matrix = 1.0 + rng.normal(size=(5, 100)) + 1j * rng.normal(size=(5, 100))
    matrix[1] = 1.0
    matrix[1, :12] = 0.0  # 12% of the samples flagged: rejected, though steady
    matrix[3] = 1.0 + 0.1 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    matrix[3, 7] = np.nan  # a non-finite sample is left out
    guards = guard_table(matrix)
    assert guards.rejected.tolist() == [False, True, False, False, False]
    steadiness = [_steadiness(row) for row in matrix]
    assert steadiness[1] > max(steadiness[m] for m in (0, 2, 4))
    assert int(np.argmax(steadiness)) == 3
    assert pick_denominator(matrix, guards) == 3
    matrix[2] = matrix[3]  # a tie goes to the lowest index
    assert pick_denominator(matrix, guard_table(matrix)) == 2
    flat = np.ones((3, 10), dtype=complex)  # constant magnitude: infinitely steady
    flat[1] *= 2.0
    assert pick_denominator(flat, guard_table(flat)) == 0
    silent = np.zeros((3, 10), dtype=complex)  # no kept row
    assert pick_denominator(silent, guard_table(silent)) == 0


def test_fallback_pair_is_the_best_pair_over_the_denominator(impaired_trace):
    matrix = average_phase_blocks(impaired_trace, 5).values[:, :100]
    solution = solve_delay_basis(matrix, impaired_trace.grid.center_frequency_hz, 10.0)
    d = pick_denominator(matrix, guard_table(matrix))
    assert solution.genome.denominator_index == d
    pair, score = _best_pair_over(matrix, d)
    assert solution.pair_fitness == score == fitness(pair, matrix, 10.0)
    assert solution.fitness >= solution.pair_fitness
    # every pair over d ties (a rejected denominator scores 0): the lowest numerator
    silent = np.zeros((3, 100), dtype=complex)
    solution = solve_delay_basis(silent, _toy_frequencies(3), 10.0)
    assert solution.genome.numerator_indices.tolist() == [1]
    assert solution.fitness == solution.pair_fitness == 0.0


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
    # the search's fallback is the best of them over its denominator
    solution = solve_delay_basis(matrix, _toy_frequencies(6), 10.0)
    d = solution.genome.denominator_index
    assert solution.pair_fitness == max(scores[(m1, d)] for m1 in range(6) if m1 != d)
    with pytest.raises(ConfigurationError, match="two subcarriers"):
        best_single_pair(matrix[:1], 10.0)


# ----------------------------------------------------------------------------
# Stream fan-out
# ----------------------------------------------------------------------------


def test_build_streams_covers_every_kept_row():
    # the closed-form numerator spans every row but its denominator, so the
    # fan-out divides it by every row the guard keeps, numerator rows included
    matrix = _toy_matrix(n_tones=12, spacing_hz=2.5e6)
    matrix[4] = 0.0  # rejected by the guard
    guards = guard_table(matrix)
    solution = solve_delay_basis(matrix, _toy_frequencies(12, 2.5e6), 10.0, guards)
    genome = solution.genome
    assert genome.weights.size == 11
    streams = build_streams(solution, matrix, 10.0, guards=guards)
    assert streams.denominators.tolist() == [m for m in range(12) if m != 4]
    assert streams.values.shape == (11, matrix.shape[1]) and len(streams) == 11
    assert streams.sample_rate_hz == 10.0
    # a single-pair numerator over its own row would be constant up to the
    # rounding of x / x, so that row is left out
    m1, d = 11, genome.denominator_index
    pair = GassSolution(Genome(np.array([1.0 + 0j]), np.array([m1]), d), 1.0)
    fallback = build_streams(pair, matrix, 10.0, guards=guards)
    assert fallback.denominators.tolist() == [m for m in range(12) if m not in (4, m1)]


def test_build_streams_values_match_direct_ratio():
    matrix = _toy_matrix(n_tones=4, spacing_hz=2.5e6)
    solution = solve_delay_basis(matrix, _toy_frequencies(4, 2.5e6), 10.0)
    streams = build_streams(solution, matrix, 10.0, guards=guard_table(matrix))
    assert len(streams) == 4
    for values, denominator in zip(streams.values, streams.denominators):
        expected, _ = combined_ratio(
            matrix,
            solution.genome.weights,
            solution.genome.numerator_indices,
            denominator,
        )
        np.testing.assert_allclose(values, expected, rtol=1e-14)


def test_shared_guard_table_gives_the_same_outputs(impaired_trace):
    matrix = average_phase_blocks(impaired_trace, 5).values.copy()
    matrix[3, ::25] = 0.0   # a few flagged samples: interpolated
    matrix[7, ::2] = 0.0    # half of them flagged: rejected
    guards = guard_table(matrix)
    assert guards.rejected[7] and not guards.rejected[3] and guards.flagged[3].any()
    frequencies = impaired_trace.grid.center_frequency_hz
    a = solve_delay_basis(matrix, frequencies, 10.0, guards)
    b = solve_delay_basis(matrix, frequencies, 10.0)
    assert a.fitness == b.fitness and a.pair_fitness == b.pair_fitness
    for part in ("weights", "numerator_indices"):
        assert getattr(a.genome, part).tobytes() == getattr(b.genome, part).tobytes()
    genome = Genome(np.array([1.0 + 0j, 0.5j, 0.0]), np.array([3, 1, 2]), 0)
    solution = GassSolution(genome, 1.0)
    with_table = build_streams(solution, matrix, 10.0, guards=guards)
    fresh = build_streams(solution, matrix, 10.0, guards=guard_table(matrix))
    assert with_table.denominators.tolist() == fresh.denominators.tolist()
    assert 7 not in with_table.denominators
    assert with_table.values.tobytes() == fresh.values.tobytes()
    assert with_table.interpolated.tobytes() == fresh.interpolated.tobytes()


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




@pytest.mark.parametrize("seed", range(4))
def test_delay_basis_fitness_equals_eigenvalue(breathing_trace, seed):
    frequencies = breathing_trace.grid.center_frequency_hz
    matrix = _window(breathing_trace, seed=seed)
    solution = solve_delay_basis(matrix, frequencies, 10.0)
    genome = solution.genome
    assert genome.weights.size == matrix.shape[0] - 1  # not the fallback
    assert solution.fitness == fitness(genome, matrix, 10.0)
    expected = _eigenvalue(matrix, frequencies, 10.0, genome.denominator_index)
    np.testing.assert_allclose(solution.fitness, expected, rtol=1e-9)
    assert genome.denominator_index == pick_denominator(matrix, guard_table(matrix))
    assert solution.fitness > solution.pair_fitness
    assert solution.pair_fitness == _best_pair_over(matrix, genome.denominator_index)[1]


@pytest.mark.parametrize("seed", range(3))
def test_delay_basis_weights_are_canonical(breathing_trace, seed):
    matrix = _window(breathing_trace, seed=seed)
    frequencies = breathing_trace.grid.center_frequency_hz
    weights = solve_delay_basis(matrix, frequencies, 10.0).genome.weights
    top = int(np.argmax(np.abs(weights)))
    assert weights[top] == 1.0 and np.abs(weights).max() == 1.0
    # the same window rotated and rescaled has the same ratios up to
    # rounding, and solves to the same weights: the eigenvector's arbitrary
    # phase does not leak out
    scaled = matrix * (0.5 * np.exp(0.7j))
    again = solve_delay_basis(scaled, frequencies, 10.0).genome.weights
    np.testing.assert_allclose(again, weights, rtol=1e-7, atol=1e-9)


def test_delay_basis_is_never_below_the_best_pair(breathing_trace):
    # the best pair the search has: its fallback, the best single pair over d
    frequencies = breathing_trace.grid.center_frequency_hz
    # noise-free CSI spans too few dimensions: B is singular, Cholesky fails
    clean = _window(breathing_trace)
    solution = solve_delay_basis(clean, frequencies, 10.0)
    fallback, score = _best_pair_over(clean, solution.genome.denominator_index)
    assert solution.genome.weights.tolist() == [1.0]
    assert solution.genome.numerator_indices.tolist() == fallback.numerator_indices.tolist()
    assert solution.fitness == solution.pair_fitness == score
    # grids with fewer numerator rows than delays, and a noisy full grid
    for n_tones in (2, 3, 6):
        for seed in range(3):
            matrix = _toy_matrix(n_tones=n_tones, seed=seed)
            solution = solve_delay_basis(matrix, _toy_frequencies(n_tones), 10.0)
            assert solution.fitness >= solution.pair_fitness
            d = solution.genome.denominator_index
            assert solution.pair_fitness == _best_pair_over(matrix, d)[1]
            assert solution.fitness == fitness(solution.genome, matrix, 10.0)
    # one tone on every row: no spacing of the delays gives the basis full rank
    matrix = _toy_matrix(n_tones=3)
    solution = solve_delay_basis(matrix, np.full(3, 2.452e9), 10.0)
    assert solution.genome.weights.tolist() == [1.0]
    assert solution.fitness == solution.pair_fitness
    for seed in range(5):
        matrix = _window(breathing_trace, seed=seed)
        solution = solve_delay_basis(matrix, frequencies, 10.0)
        assert solution.fitness >= solution.pair_fitness


@pytest.mark.parametrize("n_tones", [12, 6])
@pytest.mark.parametrize("seed", range(3))
def test_delay_basis_solves_on_a_grid_that_aliases_its_delays(n_tones, seed):
    # at 10 MHz spacing the +-100 ns delays give the same basis column; the
    # search spaces its delays apart instead of falling back to the pair
    matrix = _toy_matrix(n_tones=n_tones, seed=seed)
    solution = solve_delay_basis(matrix, _toy_frequencies(n_tones), 10.0)
    assert solution.genome.weights.size == n_tones - 1  # not the fallback
    assert solution.fitness == fitness(solution.genome, matrix, 10.0)
    assert solution.fitness > 2.0 * solution.pair_fitness > 0.0


@pytest.mark.parametrize("spacing_hz", [10e6, 2.5e6])
@pytest.mark.parametrize("seed", range(3))
def test_delay_basis_solves_on_a_grid_that_repeats_its_tones(spacing_hz, seed):
    # 8 rows over 4 tones, each tone in two fields as on the default grid:
    # the basis can hold no more delays than there are distinct tones
    grid = SubcarrierGrid(
        field_tag=(FIELD_HT_LTF,) * 4 + (FIELD_L_LTF,) * 4,
        physical_index=np.tile(np.arange(4), 2),
        center_frequency_hz=np.tile(_toy_frequencies(4, spacing_hz), 2),
    )
    matrix = _toy_matrix(seed=seed, grid=grid)
    solution = solve_delay_basis(matrix, grid.center_frequency_hz, 10.0)
    assert solution.genome.weights.size == 7  # not the fallback
    assert solution.fitness == fitness(solution.genome, matrix, 10.0)
    assert solution.fitness > solution.pair_fitness > 0.0


def test_delay_basis_falls_back_when_the_solve_scores_lower(breathing_trace, monkeypatch):
    matrix = _window(breathing_trace, seed=1)
    frequencies = breathing_trace.grid.center_frequency_hz
    solved = solve_delay_basis(matrix, frequencies, 10.0)
    assert solved.fitness > solved.pair_fitness > 0.0
    # a solve whose genome scores 0, below any pair with a breathing band
    silent = Genome(np.zeros(1, dtype=complex), np.array([0]), solved.genome.denominator_index)
    monkeypatch.setattr(gass, "_solve", lambda *args: silent)
    solution = solve_delay_basis(matrix, frequencies, 10.0)
    assert solution.genome.weights.tolist() == [1.0]
    assert solution.fitness == solution.pair_fitness == solved.pair_fitness


def test_delay_basis_interpolates_a_flagged_denominator(breathing_trace, monkeypatch):
    frequencies = breathing_trace.grid.center_frequency_hz
    matrix = _window(breathing_trace, seed=2).copy()
    d = 7
    matrix[d, [0, 40, 41, 99]] = 0.0  # flagged, not rejected
    # the flagged samples make row d unsteady; make it the denominator anyway
    monkeypatch.setattr(gass, "pick_denominator", lambda matrix, guards: d)
    guards = guard_table(matrix)
    assert guards.flagged[d].any() and not guards.rejected[d]
    solution = solve_delay_basis(matrix, frequencies, 10.0, guards)
    # the fallback pairs over d score as ``fitness`` scores them, interpolated
    pairs = [
        fitness(Genome(np.ones(1, dtype=complex), np.array([m]), d), matrix, 10.0)
        for m in range(matrix.shape[0]) if m != d
    ]
    assert solution.pair_fitness == max(pairs)
    # and the projected rows are interpolated too, or the solve would fail
    assert solution.genome.weights.size == matrix.shape[0] - 1
    np.testing.assert_allclose(
        solution.fitness, _eigenvalue(matrix, frequencies, 10.0, d), rtol=1e-9
    )


def test_delay_basis_input_validation():
    matrix = _toy_matrix(n_tones=4)
    with pytest.raises(ConfigurationError, match="center frequency"):
        solve_delay_basis(matrix, _toy_frequencies(3), 10.0)
    with pytest.raises(ConfigurationError, match="two subcarriers"):
        solve_delay_basis(matrix[:1], _toy_frequencies(1), 10.0)
