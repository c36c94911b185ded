"""Line-oriented world file format.

    # comments run to end of line, blank lines are skipped
    dimension 2
    attribute gender male female
    component engineer gender=male mean=4,0 weight=0.325
    component engineer gender=female mean=0,0 weight=0.175 cov=1,0;0,1

Directives:
  dimension N                 -- required once, before any component
  attribute NAME V1 V2 ...    -- declares one schema attribute (>= 2 values)
  component CONCEPT k=v ...   -- keys: mean (comma floats), weight (positive
                                 float), optional cov (rows split by ';',
                                 entries by ','), plus one ATTR=VALUE pair per
                                 declared attribute

Concept, attribute and value names match [A-Za-z0-9_.-]+.
All structural problems are reported as WorldFileError with the offending
line number; whole-world invariants (value coverage per concept, etc.) are
reported against the file as a whole.
"""

from __future__ import annotations

import importlib.resources
import math
import re

import numpy as np

from .errors import WorldFileError, WorldValidationError
from .world import Attribute, AttributeSchema, Component, MixtureWorld

_NAME = re.compile(r"[A-Za-z0-9_.-]+")   # keeps names free of the artifacts' separators


def default_world_path() -> str:
    """Path of the packaged two-concept demonstration world."""
    return str(importlib.resources.files("steerlab") / "worlds" / "default.world")


def load_world(path: str) -> MixtureWorld:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_world(text, path=path)


def parse_world(text: str, path: str = "<world>") -> MixtureWorld:
    dimension: int | None = None
    dimension_line = 0
    attributes: list[Attribute] = []
    seen_attrs: set[str] = set()
    raw_components: list[tuple[int, Component]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, rest = tokens[0], tokens[1:]

        if directive == "dimension":
            if dimension is not None:
                raise WorldFileError(
                    f"dimension already declared on line {dimension_line}", path, lineno
                )
            if len(rest) != 1 or not rest[0].isdigit() or int(rest[0]) < 1:
                raise WorldFileError("dimension needs a single positive integer", path, lineno)
            dimension = int(rest[0])
            dimension_line = lineno

        elif directive == "attribute":
            if raw_components:
                raise WorldFileError("attributes must be declared before components", path, lineno)
            if len(rest) < 3:
                raise WorldFileError(
                    "attribute needs a name and at least 2 values", path, lineno
                )
            name, values = rest[0], tuple(rest[1:])
            for token in rest:
                _check_name(token, path, lineno)
            if name in seen_attrs:
                raise WorldFileError(f"attribute {name!r} declared twice", path, lineno)
            if len(set(values)) != len(values):
                raise WorldFileError(f"attribute {name!r} repeats a value", path, lineno)
            seen_attrs.add(name)
            attributes.append(Attribute(name, values))

        elif directive == "component":
            if dimension is None:
                raise WorldFileError("dimension must be declared before components", path, lineno)
            if not rest:
                raise WorldFileError("component needs a concept name", path, lineno)
            concept = rest[0]
            _check_name(concept, path, lineno)
            comp = _parse_component(concept, rest[1:], dimension, attributes, path, lineno)
            raw_components.append((lineno, comp))

        else:
            raise WorldFileError(f"unknown directive {directive!r}", path, lineno)

    if dimension is None:
        raise WorldFileError("missing dimension directive", path)
    if not raw_components:
        raise WorldFileError("world declares no components", path)

    try:
        return MixtureWorld(dimension, AttributeSchema(attributes),
                            [c for _, c in raw_components])
    except WorldValidationError as exc:
        raise WorldFileError(str(exc), path) from exc


def _check_name(name, path, lineno) -> None:
    if not _NAME.fullmatch(name):
        raise WorldFileError(f"name {name!r} must match {_NAME.pattern}", path, lineno)


def _parse_component(concept, pairs, dimension, attributes, path, lineno) -> Component:
    known_attrs = {a.name: a for a in attributes}
    mean = None
    weight = None
    cov = None
    tags: dict[str, str] = {}

    for token in pairs:
        if "=" not in token:
            raise WorldFileError(f"expected key=value, got {token!r}", path, lineno)
        key, value = token.split("=", 1)
        if key == "mean":
            mean = _parse_vector(value, dimension, path, lineno)
        elif key == "weight":
            try:
                weight = float(value)
            except ValueError:
                raise WorldFileError(f"bad weight {value!r}", path, lineno) from None
            if not 0 < weight < math.inf:
                raise WorldFileError(f"weight must be positive and finite, got {value}",
                                     path, lineno)
        elif key == "cov":
            cov = _parse_matrix(value, dimension, path, lineno)
        elif key in known_attrs:
            if value not in known_attrs[key].values:
                raise WorldFileError(
                    f"unknown value {value!r} for attribute {key!r}", path, lineno
                )
            if key in tags:
                raise WorldFileError(f"attribute {key!r} tagged twice", path, lineno)
            tags[key] = value
        else:
            raise WorldFileError(f"unknown component key {key!r}", path, lineno)

    if mean is None:
        raise WorldFileError("component is missing mean=", path, lineno)
    if weight is None:
        raise WorldFileError("component is missing weight=", path, lineno)
    missing = set(known_attrs) - set(tags)
    if missing:
        raise WorldFileError(
            f"component is missing a value for attribute(s) {sorted(missing)}", path, lineno
        )
    if cov is None:
        cov = np.eye(dimension)
    else:
        if not np.allclose(cov, cov.T, atol=1e-9):
            raise WorldFileError("covariance is not symmetric", path, lineno)
        if np.linalg.eigvalsh(cov).min() <= 1e-12:
            raise WorldFileError("covariance is not positive definite", path, lineno)
    return Component(mean=mean, covariance=cov, weight=weight, concept=concept, tags=tags)


def _parse_vector(text, dimension, path, lineno) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise WorldFileError(f"bad vector {text!r}", path, lineno) from None
    if not np.all(np.isfinite(vec)):
        raise WorldFileError(f"vector {text!r} has non-finite entries", path, lineno)
    if vec.shape != (dimension,):
        raise WorldFileError(
            f"vector {text!r} has {vec.size} entries, expected {dimension}", path, lineno
        )
    return vec


def _parse_matrix(text, dimension, path, lineno) -> np.ndarray:
    rows = [_parse_vector(row, dimension, path, lineno) for row in text.split(";")]
    if len(rows) != dimension:
        raise WorldFileError(
            f"matrix has {len(rows)} rows, expected {dimension}", path, lineno
        )
    return np.array(rows)
