"""YAML run configuration -> dataclasses.

One file describes a whole run: the grid, a scenario (or an input trace),
impairments, pipeline knobs, and sweep settings. Unknown keys are rejected
so typos fail loudly instead of silently running defaults; only the retired
pipeline keys are dropped, with a warning. The full schema is
documented in the README.
"""

from __future__ import annotations

import dataclasses
import logging
import re
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigurationError
from .grid import SubcarrierGrid, custom_grid, default_grid, ht_ltf_grid, l_ltf_grid
from .pipeline import PipelineConfig
from .simulate import (
    ChannelScenario,
    ChirpMotion,
    ImpairmentConfig,
    Motion,
    MotionEvent,
    RateStepMotion,
    SinusoidMotion,
    StaticPath,
)

logger = logging.getLogger(__name__)

TOP_LEVEL_KEYS = {"grid", "scenario", "impairments", "input", "pipeline", "sweep"}
SWEEP_KEYS = {"offsets_m", "positions", "span_wavelengths", "noise_stds", "runs_per_level"}

# Settings the method now fixes: the stream cut ``mu`` and those of the
# searches the closed-form, deterministic one replaced (the genetic algorithm,
# its solution reuse and its random pair ranking). Configs that set them
# still load: these keys are dropped with one warning.
RETIRED_KEYS = {
    "pipeline": ("n_numerators", "mu", "reuse_tolerance"),
    "pipeline.ga": (
        "population", "generations", "tournament", "crossover_prob", "mutation_prob",
        "weight_sigma", "elites", "stagnation_limit", "seed_pool", "seed_top",
    ),
}


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads an exponent float written without a dot or without a
    sign on the exponent (``2.452e9``, ``1e-3``) as a string; this loader
    reads it as the number, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a mapping")
    _reject_unknown(raw, TOP_LEVEL_KEYS, "top level")
    return raw


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")


def _section(mapping: dict, key: str, where: str) -> dict:
    """A copy of the mapping under ``key``; absent or empty (YAML null) means
    the section's defaults."""
    value = mapping.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {value!r}")
    return dict(value)


def _mappings(items: Any, where: str) -> list[dict]:
    """A list of mappings; absent or empty (YAML null) means none."""
    if items is None:
        return []
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ConfigurationError(f"{where} must be a list of mappings, got {items!r}")
    return items


def _build(cls: type, mapping: dict, where: str, **overrides: Any):
    fields = {f.name for f in dataclasses.fields(cls)}
    _reject_unknown(mapping, fields, where)
    try:
        return cls(**{**mapping, **overrides})
    except TypeError as exc:
        raise ConfigurationError(f"bad {where} section: {exc}") from exc


def grid_from_config(config: dict) -> SubcarrierGrid:
    spec = config.get("grid")
    if spec is None:
        spec = "default"
    if isinstance(spec, str):
        builders = {"default": default_grid, "ht-ltf": ht_ltf_grid, "l-ltf": l_ltf_grid}
        if spec not in builders:
            raise ConfigurationError(
                f"unknown grid {spec!r}; expected one of {sorted(builders)}"
            )
        return builders[spec]()
    if isinstance(spec, dict):
        _reject_unknown(spec, {"center_frequencies_hz", "physical_indices", "field"}, "grid")
        if "center_frequencies_hz" not in spec:
            raise ConfigurationError("custom grid needs center_frequencies_hz")
        return custom_grid(
            spec["center_frequencies_hz"],
            physical_index=spec.get("physical_indices"),
            field_tag=spec.get("field", "HT-LTF"),
        )
    raise ConfigurationError("grid must be a name or a mapping")


def input_from_config(config: dict) -> str | None:
    """The input trace's path, or None when the run synthesizes its scenario."""
    section = _section(config, "input", "input")
    _reject_unknown(section, {"trace"}, "input")
    path = section.get("trace")
    if section and not isinstance(path, str):
        raise ConfigurationError(f"input.trace must be a file path, got {path!r}")
    return path


def _motion_from_config(spec: dict) -> Motion:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("scenario.motion needs a 'kind'")
    kind = spec["kind"]
    kinds = {"sinusoid": SinusoidMotion, "chirp": ChirpMotion, "steps": RateStepMotion}
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"unknown motion kind {kind!r}")
    body = {k: v for k, v in spec.items() if k != "kind"}
    return _build(kinds[kind], body, "scenario.motion")


def scenario_from_config(config: dict) -> ChannelScenario:
    if "scenario" not in config:
        raise ConfigurationError("config has no scenario section")
    section = _section(config, "scenario", "scenario")
    if "static_paths" not in section or "motion" not in section:
        raise ConfigurationError("scenario needs static_paths and motion")
    paths = tuple(
        _build(StaticPath, p, "scenario.static_paths")
        for p in _mappings(section.pop("static_paths"), "scenario.static_paths")
    )
    motion = _motion_from_config(section.pop("motion"))
    events = tuple(
        _build(MotionEvent, e, "scenario.motion_events")
        for e in _mappings(section.pop("motion_events", None), "scenario.motion_events")
    )
    return _build(
        ChannelScenario,
        section,
        "scenario",
        static_paths=paths,
        motion=motion,
        motion_events=events,
    )


def sweep_from_config(config: dict) -> dict:
    """The sweep section as a mapping; absent or empty means no settings."""
    sweep = _section(config, "sweep", "sweep")
    _reject_unknown(sweep, SWEEP_KEYS, "sweep")
    return sweep


def impairments_from_config(config: dict, seed_offset: int = 0) -> ImpairmentConfig:
    """The impairments section, its seed (an integer >= 0) offset by ``seed_offset``."""
    base = _build(ImpairmentConfig, _section(config, "impairments", "impairments"), "impairments")
    return dataclasses.replace(base, seed=base.seed + seed_offset)


def pipeline_from_config(config: dict) -> PipelineConfig:
    section = _section(config, "pipeline", "pipeline")
    ga = _section(section, "ga", "pipeline.ga")
    _reject_unknown(ga, set(RETIRED_KEYS["pipeline.ga"]), "pipeline.ga")
    retired = [f"pipeline.{key}" for key in RETIRED_KEYS["pipeline"] if key in section]
    retired += [f"pipeline.ga.{key}" for key in RETIRED_KEYS["pipeline.ga"] if key in ga]
    for key in (*RETIRED_KEYS["pipeline"], "ga"):
        section.pop(key, None)
    if retired:
        logger.warning(
            "ignoring retired pipeline keys: %s (the search is closed-form, the stream cut 0.5)",
            ", ".join(retired),
        )
    return _build(PipelineConfig, section, "pipeline")
