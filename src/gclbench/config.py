"""Run configuration: one versioned JSON document, validated strictly.

List-valued hyperparameters expand into a cross-product of runs (grid
search); scalar values pin a single point. Unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from pathlib import Path

from .sessions import EVAL_EDGES_FULL, EVAL_EDGES_INTRA, FSNCIL, GLOBAL, LOCAL, NCIL
from .synth import SynthConfig

# One entry per SynthConfig field, typed by its default; SynthConfig and
# synth_tag reject a value out of range.
_JSON_TYPES = {int: "integer", float: "number"}
SYNTH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {f.name: {"type": _JSON_TYPES[type(f.default)]}
                   for f in dataclasses.fields(SynthConfig)},
}

# Desk-scale defaults.
DEFAULT_PLAN_NCIL = {"classes_per_session": 2, "num_sessions": 3, "shots": 100, "test_cap": 500}
DEFAULT_PLAN_FSNCIL = {
    "base_classes": 3, "ways": 2, "num_sessions": 3,
    "shots_base": 100, "shots_novel": 5, "test_cap": 500,
}
# scenario -> its builder's shape parameters, the only plan keys it takes
PLAN_DEFAULTS = {NCIL: DEFAULT_PLAN_NCIL, FSNCIL: DEFAULT_PLAN_FSNCIL}

# provider kind -> the fields it cannot do without
PROVIDER_FIELDS = {"file": ("matrix", "index"), "http": ("endpoint",)}

PROVIDER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(PROVIDER_FIELDS)},
        "matrix": {"type": "string"},
        "index": {"type": "string"},
        "endpoint": {"type": "string"},
        "model": {"type": "string"},
        "batch_size": {"type": "integer", "minimum": 1},
        "max_in_flight": {"type": "integer", "minimum": 1},
    },
    "allOf": [{"if": {"properties": {"kind": {"const": kind}}}, "then": {"required": list(fields)}}
              for kind, fields in PROVIDER_FIELDS.items()],
}

# name -> (default or None, schema of one value, whether a list such as [1e-3, 1e-2]
# sweeps it). sample_num has no global default: cosine/teen cap at 100, simplecil
# at 20, simgcl_proto at 50 unless the config pins one value.
HYPERPARAMETERS = {
    "lr": (1e-2, {"type": "number", "exclusiveMinimum": 0}, True),
    "hidden_dim": (64, {"type": "integer", "minimum": 1}, True),
    "epochs": (200, {"type": "integer", "minimum": 1}, True),
    "dropout": (0.5, {"type": "number", "minimum": 0, "exclusiveMaximum": 1}, False),
    "strength": (100.0, {"type": "number", "minimum": 0}, True),
    "lwf_lambda": (1.0, {"type": "number", "minimum": 0}, True),
    "lwf_T": (2.0, {"type": "number", "exclusiveMinimum": 0}, True),
    "tau": (1.0, {"type": "number", "exclusiveMinimum": 0}, False),
    "sample_num": (None, {"type": "integer", "minimum": 1}, False),
    "k_smooth": (8, {"type": "integer", "minimum": 0}, True),
    "softmax_T": (16.0, {"type": "number"}, False),
    "shift_weight": (0.5, {"type": "number", "minimum": 0, "maximum": 1}, False),
    "fanouts": ([20, 20], {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 1}, False),
    "max_node_text_len": (128, {"type": "integer", "minimum": 1}, False),
    "conv_bias": (False, {"type": "boolean"}, False),
    "provider": (None, PROVIDER_SCHEMA, False),
    "cache_path": (None, {"type": "string"}, False),
}
DEFAULT_HYPERS = {k: d for k, (d, _, _) in HYPERPARAMETERS.items() if d is not None}
_GRID_ITEMS = {k: rule for k, (_, rule, grid) in HYPERPARAMETERS.items() if grid}  # sweepable

LEAKAGE_K_GRID = (1, 2, 4, 8)  # the leakage probe's default smoothing depths


def _or_grid(item: dict) -> dict:
    """One value, or a non-empty list of distinct values to sweep; each obeys `item`."""
    return {"if": {"type": "array"},  # not a oneOf, whose error would name no expected type
            "then": {"items": item, "minItems": 1, "uniqueItems": True}, "else": item}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version"],
    "properties": {
        "version": {"const": 1},
        "dataset": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["synth"],
                    "properties": {"synth": SYNTH_SCHEMA},
                },
            ]
        },
        "dataset_name": {"type": "string"},
        "scenario": {"enum": list(PLAN_DEFAULTS)},
        "mode": {"enum": [LOCAL, GLOBAL]},
        "methods": {"type": "array", "items": {"type": "string"}, "minItems": 1,
                    "uniqueItems": True},
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1,
                  "uniqueItems": True},
        "eval_edges": {"enum": [EVAL_EDGES_INTRA, EVAL_EDGES_FULL]},
        "plan": {"type": "object", "additionalProperties": {"type": "integer"}},
        "hyperparameters": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: _or_grid(rule) if grid else rule
                           for k, (_, rule, grid) in HYPERPARAMETERS.items()},
        },
    },
}

class ConfigError(ValueError):
    pass


@functools.cache
def _validator():
    """CONFIG_SCHEMA's validator, built once: a JSON integer is a Python int (30.0 and
    true are not), and a JSON number a finite int or float (true is not)."""
    # Imported here: the runners read DEFAULT_HYPERS, and a library import of
    # gclbench should not load the schema validator.
    import jsonschema

    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: type(x) is int,
        "number": lambda _, x: type(x) is int or (isinstance(x, float) and math.isfinite(x)),
    })
    return jsonschema.validators.extend(base, type_checker=checker)(CONFIG_SCHEMA)


def validate_config(doc: dict) -> dict:
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {error.message}") from error
    return doc


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_config(path) -> dict:
    """The validated config at `path`, read as strict JSON: no NaN or Infinity literal."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(doc)


def resolve_hypers(hypers: dict | None) -> dict:
    """DEFAULT_HYPERS overlaid with the given hyperparameters (grids kept as lists);
    a key that HYPERPARAMETERS does not list is a ConfigError naming it."""
    unknown = sorted(set(hypers or {}) - set(HYPERPARAMETERS))
    if unknown:
        raise ConfigError(f"unknown hyperparameter {', '.join(unknown)}; "
                          f"the keys are {', '.join(HYPERPARAMETERS)}")
    return {**DEFAULT_HYPERS, **(hypers or {})}


def resolve_point(hypers: dict | None) -> dict:
    """resolve_hypers for one run, each value checked by its HYPERPARAMETERS rule as
    validate_config checks it; a list under a sweepable key is a ConfigError naming it."""
    hypers = resolve_hypers(hypers)
    validate_config({"version": 1, "hyperparameters": hypers})
    for k in _GRID_ITEMS:
        if isinstance(hypers[k], list):
            raise ConfigError(f"config invalid at hyperparameters/{k}: {hypers[k]!r} is a grid; "
                              f"a run takes one point of it (expand with "
                              f"gclbench.config.expand_grid)")
    return hypers


def expand_grid(hypers: dict) -> list[dict]:
    """Cross-product of all list-valued grid keys; scalars pass through."""
    keys = sorted(k for k in _GRID_ITEMS if isinstance(hypers.get(k), list))
    return [{**hypers, **dict(zip(keys, combo))}
            for combo in itertools.product(*(hypers[k] for k in keys))]
