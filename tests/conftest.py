import os

import numpy as np
import pytest

from csibreath.grid import default_grid
from csibreath.simulate import (
    ChannelScenario,
    ImpairmentConfig,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    generate_ideal_csi,
)


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def breathing_scenario():
    """15 bpm target, 4 m past the aggregate static path, 6 mm chest travel."""
    return ChannelScenario(
        sample_rate_hz=50.0,
        duration_s=15.0,
        static_paths=(StaticPath(amplitude=1.0, length_m=6.0),),
        dynamic_amplitude=0.1,
        base_dynamic_length_m=10.0,
        motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.003),
    )


@pytest.fixture(scope="session")
def breathing_trace(breathing_scenario, grid):
    return generate_ideal_csi(breathing_scenario, grid)


@pytest.fixture(scope="session")
def impaired_trace(breathing_trace):
    config = ImpairmentConfig(
        pbd_noise_std=0.002,
        sfo_slope=1e-4,
        cfo_walk_std=0.05,
        gaussian_noise_std=0.02,
        seed=7,
    )
    return apply_impairments(breathing_trace, config)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def set_cpus():
    """Set the CPUs this process may use, ``set_cpus(n)`` for its first
    ``n``, restored after the test. Skips where the platform has no
    affinity call or fewer CPUs than the test needs."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    before = os.sched_getaffinity(0)

    def set_first(n: int) -> None:
        if len(before) < n:
            pytest.skip(f"needs {n} CPUs, this process may use {len(before)}")
        os.sched_setaffinity(0, sorted(before)[:n])

    yield set_first
    os.sched_setaffinity(0, before)
