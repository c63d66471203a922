import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csibreath.combine import (
    INFINITE_WEIGHT_CAP,
    align_streams,
    combine,
    moving_average,
    remove_offset,
    stream_gain,
)
from csibreath.errors import ConfigurationError
from csibreath.gass import Genome, GassSolution, build_streams, combined_ratio
from csibreath.ratio import StreamStack, guard_table, ssnr_values


def _stack(rows, denominators=None, fs=10.0):
    """A stack of the streams ``rows``, over denominators 0, 1, ... unless
    given."""
    values = np.array(rows, dtype=complex, ndmin=2)
    if denominators is None:
        denominators = range(values.shape[0])
    return StreamStack(
        values=values,
        sample_rate_hz=fs,
        denominators=np.array(denominators, dtype=int),
        interpolated=np.zeros(values.shape, dtype=bool),
    )


def _breath(n=300, fs=10.0, depth=0.3):
    t = np.arange(n) / fs
    return np.exp(1j * depth * np.sin(2 * np.pi * 0.25 * t))


# ----------------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------------


def test_remove_offset_zero_mean(rng):
    v = rng.normal(size=50) + 1j * rng.normal(size=50) + (3.0 - 2.0j)
    q = remove_offset(v)
    assert abs(q.mean()) < 1e-13
    np.testing.assert_allclose(q, v - v.mean(), rtol=1e-15)


def test_stream_gain_matches_brute_force(rng):
    q = rng.normal(size=40) + 1j * rng.normal(size=40)
    q -= q.mean()
    window = 7
    brute = max(
        abs(q[i : i + window].mean()) for i in range(q.size - window + 1)
    )
    assert np.isclose(stream_gain(q, window), brute, rtol=1e-12)


def test_stream_gain_short_series_and_validation(rng):
    q = rng.normal(size=4) + 0j
    assert np.isclose(stream_gain(q, 10), abs(q.mean()))
    with pytest.raises(ConfigurationError):
        stream_gain(q, 0)


def test_moving_average_sliding_oracle(rng):
    v = rng.normal(size=30) + 1j * rng.normal(size=30)
    window = 5  # odd: centered window is unambiguous
    out = moving_average(v, window)
    assert out.size == v.size
    for i in range(v.size):
        lo, hi = max(0, i - 2), min(v.size, i + 3)
        assert np.isclose(out[i], v[lo:hi].mean(), rtol=1e-12)


def test_moving_average_block_and_window_one(rng):
    v = rng.normal(size=23)
    np.testing.assert_array_equal(moving_average(v, 1), v)
    with pytest.raises(ConfigurationError):
        moving_average(v, 0)


# ----------------------------------------------------------------------------
# Alignment
# ----------------------------------------------------------------------------


def test_align_single_stream_identity(rng):
    v = _breath() + 0.05 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    aligned = align_streams(_stack([v]), gain_window=5)
    assert len(aligned) == 1
    q = v - v.mean()
    np.testing.assert_allclose(aligned.offset_removed[0], q, rtol=1e-14)
    assert np.isclose(aligned.gains[0], stream_gain(q, 5))
    np.testing.assert_allclose(aligned.normalized[0], q / aligned.gains[0], rtol=1e-14)
    assert aligned.rotations[0] == 0.0


def test_align_recovers_known_rotation(rng):
    v = _breath() + 0.05 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    for theta in (0.0, 0.7, -2.9, 3.1):
        aligned = align_streams(_stack([v, v * np.exp(-1j * theta)]), gain_window=5)
        # either copy may be the reference; the rotation between them is theta
        relative = aligned.rotations[1] - aligned.rotations[0]
        assert abs(np.angle(np.exp(1j * (relative - theta)))) < 1e-12


def test_align_drops_constant_stream(rng):
    good = _breath() + 0.02 * rng.normal(size=300)
    flat = np.full(300, 2.0 + 1.0j)
    aligned = align_streams(_stack([good, flat], [3, 0]), 5)
    assert len(aligned) == 1
    assert aligned.denominators.tolist() == [3]


def test_align_rotates_onto_best_stream(rng):
    b = _breath()
    noise = 0.02 * (rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300)))
    best = b + noise[0] * 0.1
    worse = 1.7 * b * np.exp(1j * 1.1) + noise[1]
    aligned = align_streams(_stack([worse, best], [1, 2]), 5)
    assert aligned.denominators.tolist() == [1, 2]
    other, ref = 0, 1
    assert aligned.band_ratios[ref] > aligned.band_ratios[other]
    assert aligned.rotations[ref] == 0.0
    # rotating the worse stream by its reported angle re-aligns it
    normalized = aligned.normalized
    realigned = normalized[other] * np.exp(1j * aligned.rotations[other])
    misfit = np.sum(np.abs(normalized[ref] - realigned) ** 2)
    raw = np.sum(np.abs(normalized[ref] - normalized[other]) ** 2)
    assert misfit < raw


def test_align_validation(rng):
    with pytest.raises(ConfigurationError, match="no streams"):
        align_streams(_stack(np.empty((0, 10))), 5)
    with pytest.raises(ConfigurationError, match="degenerate"):
        align_streams(_stack([np.ones(10)]), 5)  # every stream degenerate


# ----------------------------------------------------------------------------
# Weighted summation
# ----------------------------------------------------------------------------


def _noisy_streams(rng, count=4, noise=0.3):
    b = _breath()
    rows = []
    for _ in range(count):
        gain = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0, 2 * np.pi)
        n = noise * (rng.normal(size=b.size) + 1j * rng.normal(size=b.size)) / np.sqrt(2)
        rows.append(gain * np.exp(1j * theta) * b + n)
    return _stack(rows)


def test_combine_matches_hand_recomputation(rng):
    aligned = align_streams(_noisy_streams(rng), gain_window=5)
    combined = combine(aligned, smoothing_window=3, mu=0.4)
    total = np.zeros(300, dtype=complex)
    contributing = 0
    for weight, normalized, rotation in zip(
        combined.weights, aligned.normalized, aligned.rotations
    ):
        if weight > 0:
            total += weight * normalized * np.exp(1j * rotation)
            contributing += 1
    np.testing.assert_allclose(combined.values, total, rtol=1e-12)
    assert combined.contributing == contributing >= 1
    np.testing.assert_allclose(
        combined.smoothed, moving_average(total, 3), rtol=1e-12
    )
    ref = int(np.argmax(aligned.band_ratios))
    assert combined.reference_denominator == aligned.denominators[ref]


def test_combine_mu_threshold_inclusive(rng):
    aligned = align_streams(_noisy_streams(rng), gain_window=5)
    strict = combine(aligned, smoothing_window=1, mu=1.0)
    assert strict.contributing == 1  # only the best survives mu = 1
    permissive = combine(aligned, smoothing_window=1, mu=0.0)
    assert permissive.contributing == len(aligned)


def test_combine_identical_streams_all_survive(rng):
    v = _breath() + 0.05 * rng.normal(size=300)
    aligned = align_streams(_stack([v, v, v]), 5)
    combined = combine(aligned, smoothing_window=1, mu=1.0)
    assert combined.contributing == 3


def test_combine_validation(rng):
    aligned = align_streams(_noisy_streams(rng), gain_window=5)
    with pytest.raises(ConfigurationError):
        combine(dataclasses.replace(aligned, denominators=np.empty(0, dtype=int)), 3)
    with pytest.raises(ConfigurationError):
        combine(aligned, 3, mu=1.5)


def test_infinite_band_ratios_capped(rng):
    # a clean in-band complex tone saturates the band-ratio metric
    b = np.exp(2j * np.pi * 0.25 * np.arange(300) / 10.0)
    aligned = align_streams(_stack([b * np.exp(1j * i) for i in range(3)]), gain_window=5)
    assert np.isinf(aligned.band_ratios).all()
    combined = combine(aligned, smoothing_window=1, mu=0.9)
    assert np.all(np.isfinite(combined.values))
    assert combined.contributing == 3
    assert combined.weights.tolist() == [INFINITE_WEIGHT_CAP] * 3


def test_combining_beats_single_streams(rng):
    # modest expectation here (the acceptance run measures the real margin):
    # averaging eight independent-noise copies should clearly win
    gains = []
    for seed in range(5):
        local = np.random.default_rng(seed)
        streams = _noisy_streams(local, count=8, noise=0.4)
        singles = ssnr_values(streams.values, 10.0)
        aligned = align_streams(streams, gain_window=5)
        combined = combine(aligned, smoothing_window=3, mu=0.3)
        gains.append(ssnr_values(combined.smoothed[None, :], 10.0)[0] / np.mean(singles))
    assert np.mean(gains) > 2.0


# ----------------------------------------------------------------------------
# The stream stack equals the per-stream loop
# ----------------------------------------------------------------------------
# A copy of the per-stream fan-out, alignment and summation that the stack
# replaced, kept as the oracle: the stack must give the same bits.


def _loop_gain(q, gain_window):
    if q.size < gain_window:
        return float(np.abs(q.mean()))
    csum = np.cumsum(np.concatenate([[0.0 + 0.0j], q]))
    means = (csum[gain_window:] - csum[:-gain_window]) / gain_window
    return float(np.max(np.abs(means)))


def _loop_build(genome, matrix):
    """One stream per row the guard keeps, numerator rows included, each
    the genome's ``combined_ratio`` over that row; a numerator with weight
    on one row only leaves that row out."""
    guards = guard_table(matrix)
    own = set(genome.numerator_indices[genome.weights != 0].tolist())
    streams = []
    for m in range(matrix.shape[0]):
        if guards.rejected[m] or own == {m}:
            continue
        values, bad = combined_ratio(matrix, genome.weights, genome.numerator_indices, m)
        streams.append((m, values, bad))
    return streams


def _loop_align(streams, fs, gain_window):
    """(denominator, offset_removed, gain, normalized, beta, rotation) per kept stream."""
    betas = ssnr_values(np.array([values for _, values in streams]), fs)
    aligned = []
    for (m, values), beta in zip(streams, betas):
        q = values - values.mean()
        g = _loop_gain(q, gain_window)
        if g == 0.0:
            continue
        normalized = q / g
        aligned.append([m, q, g, normalized, float(beta), 0.0])
    reference = max(range(len(aligned)), key=lambda i: aligned[i][4])
    kept = []
    for i, a in enumerate(aligned):
        if i != reference:
            inner = np.sum(aligned[reference][3] * np.conj(a[3]))
            if inner == 0:
                continue
            a[5] = float(np.angle(inner))
        kept.append(a)
    return kept


def _loop_combine(kept, mu):
    capped = np.minimum(np.array([a[4] for a in kept]), INFINITE_WEIGHT_CAP)
    survivors = capped >= mu * capped.max()
    total = np.zeros_like(kept[0][3])
    weights = []
    for a, keep, weight in zip(kept, survivors, capped):
        weights.append(float(weight) if keep else 0.0)
        if keep:
            total = total + weights[-1] * a[3] * np.exp(1j * a[5])
    return total, weights, int(survivors.sum())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_stack_equals_loop(streams, expected, gain_window, mu):
    aligned = align_streams(streams, gain_window)
    loop = _loop_align(expected, streams.sample_rate_hz, gain_window)
    assert aligned.denominators.tolist() == [a[0] for a in loop]
    for j, (_, q, g, normalized, beta, rotation) in enumerate(loop):
        assert _same_bits(aligned.offset_removed[j], q)
        assert _same_bits(aligned.gains[j], np.float64(g))
        assert _same_bits(aligned.normalized[j], normalized)
        assert _same_bits(aligned.band_ratios[j], np.float64(beta))
        assert _same_bits(aligned.rotations[j], np.float64(rotation))
    combined = combine(aligned, smoothing_window=3, mu=mu)
    total, weights, contributing = _loop_combine(loop, mu)
    assert _same_bits(combined.values, total)
    assert combined.weights.tolist() == weights
    assert combined.contributing == contributing


@settings(max_examples=40, deadline=None)
@example(  # the guard keeps only the two rows that give constant streams
    seed=353, n_sub=4, n_samples=141, n_numerators=3, flagged_rows=2,
    constant_stream=True, gain_window=1, mu=0.0,
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sub=st.integers(4, 12),
    n_samples=st.integers(40, 160),
    n_numerators=st.integers(1, 3),
    flagged_rows=st.integers(0, 3),
    constant_stream=st.booleans(),
    gain_window=st.integers(1, 200),
    mu=st.floats(0.0, 1.0),
)
def test_stream_stack_equals_per_stream_loop(
    seed, n_sub, n_samples, n_numerators, flagged_rows, constant_stream, gain_window, mu,
):
    local = np.random.default_rng(seed)
    matrix = local.normal(size=(n_sub, n_samples)) + 1j * local.normal(size=(n_sub, n_samples))
    matrix += 3.0 * _breath(n_samples)
    numerators = local.choice(n_sub - 1, size=n_numerators, replace=False)
    denominator = n_sub - 1
    weights = local.uniform(0.2, 1.0, n_numerators) * np.exp(1j * local.uniform(0, 6, n_numerators))
    weights[local.random(n_numerators) < 0.2] = 0.0   # unused numerator slots
    if constant_stream:
        # numerator exactly 0.5 + 0.25j over a denominator of exactly 1:
        # a constant ratio whose stream has zero gain
        weights[:] = 0.0
        weights[0] = 1.0
        matrix[numerators[0]] = 0.5 + 0.25j
        matrix[denominator] = 1.0
    for row in local.choice(n_sub, size=min(flagged_rows, n_sub), replace=False):
        # a few samples under the guard (interpolated) or most of them (rejected)
        share = local.choice([0.05, 0.5])
        matrix[row, local.random(n_samples) < share] = 0.0
    genome = Genome(weights, numerators, denominator)
    solution = GassSolution(genome, 1.0)
    streams = build_streams(solution, matrix, 10.0)
    expected = _loop_build(genome, matrix)
    assert streams.denominators.tolist() == [m for m, _, _ in expected]
    for values, bad, (_, loop_values, loop_bad) in zip(
        streams.values, streams.interpolated, expected
    ):
        assert _same_bits(values, loop_values)
        assert _same_bits(bad, loop_bad)
    if not len(streams):
        return
    # a zero numerator makes every stream constant, and so does a constant
    # stream that is the only one the guard lets through
    if (np.ptp(streams.values, axis=1) == 0).all():
        with pytest.raises(ConfigurationError, match="degenerate"):
            align_streams(streams, gain_window)
        return
    _check_stack_equals_loop(
        streams, list(zip(streams.denominators.tolist(), streams.values)), gain_window, mu
    )


def test_stream_stack_drops_constant_and_unalignable_like_the_loop(rng, caplog):
    # integer-valued, zero-mean streams on disjoint halves: the normalized
    # reference and the second stream have an inner product of exactly zero
    n = 256
    reference = np.zeros(n)
    reference[: n // 2] = np.round(1000 * np.sin(2 * np.pi * 0.25 * np.arange(n // 2) / 10.0))
    reference[n // 2 - 1] -= reference.sum()
    orthogonal = np.zeros(n)
    orthogonal[n // 2 :] = rng.integers(-50, 50, n // 2)
    orthogonal[-1] -= orthogonal.sum()
    values = [
        reference + 0j,
        np.full(n, 2.0 + 1.0j),                 # constant: zero gain
        orthogonal + 0j,                        # unalignable
        _breath(n) + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
    ]
    streams = _stack(values)
    with caplog.at_level("WARNING", logger="csibreath.combine"):
        _check_stack_equals_loop(streams, list(enumerate(values)), 5, 0.0)
    assert [r.getMessage() for r in caplog.records] == [
        "dropping constant stream (denominator 1)",
        "dropping unalignable stream (denominator 2)",
    ]


def test_primitives_take_stream_stacks(rng):
    stack = rng.normal(size=(5, 40)) + 1j * rng.normal(size=(5, 40))
    q = remove_offset(stack)
    gains = stream_gain(q, 7)
    short = stream_gain(q, 50)
    for i in range(5):
        assert _same_bits(q[i], remove_offset(stack[i]))
        assert gains[i] == stream_gain(q[i], 7)
        assert short[i] == stream_gain(q[i], 50)
