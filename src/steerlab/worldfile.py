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
This module checks syntax only; `world.AttributeSchema` and
`world.MixtureWorld` check every semantic invariant once the whole file has
parsed.  Either way the WorldFileError names the file and the line: that of
the attribute or component at fault, or 0 for a whole-world problem.

`load_world` reads the file on every call, but parses and validates each
distinct content once per process: the same bytes, from any path, give the
same shared world, with the mixtures and values it has already prepared.
Sharing relies on a world's components, arrays and tags being read-only
once built (see `world.MixtureWorld`).  A file that fails to load is not kept, and an edited
file is parsed again.
"""

from __future__ import annotations

import importlib.resources

import numpy as np

from .errors import WorldFileError, WorldValidationError
from .world import NAME, Attribute, AttributeSchema, Component, MixtureWorld


def default_world_path() -> str:
    """Path of the packaged two-concept demonstration world."""
    return str(importlib.resources.files("steerlab") / "worlds" / "default.world")


# The worlds of the last _LOADED_MAX distinct file contents, least recently loaded first.
_LOADED: dict[bytes, MixtureWorld] = {}
_LOADED_MAX = 8


def load_world(path: str) -> MixtureWorld:
    """The world the file holds; the one already built when its bytes were loaded before."""
    with open(path, "rb") as fh:
        data = fh.read()
    world = _LOADED.pop(data, None)
    if world is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WorldFileError(f"not UTF-8 text ({exc})", path,
                                 len(data[:exc.start + 1].splitlines())) from None
        world = parse_world(text, path=path)
        if len(_LOADED) >= _LOADED_MAX:
            del _LOADED[next(iter(_LOADED))]
    _LOADED[data] = world
    return world


def parse_world(text: str, path: str = "<world>") -> MixtureWorld:
    dimension: int | None = None
    dimension_line = 0
    attributes: list[Attribute] = []
    attribute_lines: list[int] = []
    components: list[Component] = []
    component_lines: list[int] = []

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
            if len(rest) != 1 or not rest[0].isdecimal() or int(rest[0]) < 1:
                raise WorldFileError("dimension needs a single positive integer", path, lineno)
            dimension = int(rest[0])
            dimension_line = lineno

        elif directive == "attribute":
            if components:
                raise WorldFileError("attributes must be declared before components", path, lineno)
            if not rest:
                raise WorldFileError("attribute needs a name and its values", path, lineno)
            for token in rest:
                _check_name(token, path, lineno)
            attributes.append(Attribute(rest[0], tuple(rest[1:])))
            attribute_lines.append(lineno)

        elif directive == "component":
            if dimension is None:
                raise WorldFileError("dimension must be declared before components", path, lineno)
            if not rest:
                raise WorldFileError("component needs a concept name", path, lineno)
            concept = rest[0]
            _check_name(concept, path, lineno)
            comp = _parse_component(concept, rest[1:], dimension, attributes, path, lineno)
            components.append(comp)
            component_lines.append(lineno)

        else:
            raise WorldFileError(f"unknown directive {directive!r}", path, lineno)

    schema = _located(lambda: AttributeSchema(attributes), attribute_lines, path)
    if dimension is None:
        raise WorldFileError("missing dimension directive", path)
    return _located(lambda: MixtureWorld(dimension, schema, components), component_lines, path)


def _located(build, lines: list[int], path: str):
    """build(), with a WorldValidationError re-raised at the line of the
    attribute or component it names (line 0 when it names none)."""
    try:
        return build()
    except WorldValidationError as exc:
        line = 0 if exc.index is None else lines[exc.index]
        raise WorldFileError(str(exc), path, line) from exc


def _check_name(name, path, lineno) -> None:
    if not NAME.fullmatch(name):
        raise WorldFileError(f"name {name!r} must match {NAME.pattern}", path, lineno)


def _parse_component(concept, pairs, dimension, attributes, path, lineno) -> Component:
    tag_names = {a.name for a in attributes}
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
        elif key == "cov":
            cov = _parse_matrix(value, dimension, path, lineno)
        elif key in tag_names:
            if key in tags:
                raise WorldFileError(f"attribute {key!r} tagged twice", path, lineno)
            tags[key] = value
        else:
            raise WorldFileError(f"unknown component key {key!r}", path, lineno)

    if mean is None:
        raise WorldFileError("component is missing mean=", path, lineno)
    if weight is None:
        raise WorldFileError("component is missing weight=", path, lineno)
    return Component(mean=mean, covariance=np.eye(dimension) if cov is None else cov,
                     weight=weight, concept=concept, tags=tags)


def _parse_vector(text, dimension, path, lineno) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise WorldFileError(f"bad vector {text!r}", path, lineno) from None
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
