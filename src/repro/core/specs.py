"""Textual component / scenario specs shared by the CLI and the server.

One place understands the compact spellings users type — ``mult16``,
``adder8``, ``worst10y``, ``10y_worst``, ``fresh`` — so the command line
(:mod:`repro.cli`) and the characterization service
(:mod:`repro.serve`) accept exactly the same vocabulary and fail with
the same diagnostics. Parsing errors raise :class:`SpecError` (a
``ValueError``); callers translate that into ``SystemExit`` (CLI) or an
HTTP 400 (server).
"""

import dataclasses
import re
from typing import Optional, Tuple

from ..aging import balance_case, fresh, worst_case

#: Registry of component constructors by their canonical CLI name.
#: Populated lazily (:func:`component_registry`) because ``repro.rtl``
#: imports the synthesis stack.
_COMPONENTS = None

#: Short component spellings accepted in compact ``<name><width>`` specs.
COMPONENT_ALIASES = {
    "add": "adder",
    "mult": "multiplier",
    "mul": "multiplier",
}

#: Synthesis efforts accepted everywhere a spec names one.
EFFORTS = ("low", "medium", "high", "ultra")


class SpecError(ValueError):
    """A textual spec that does not parse; the message is user-facing."""


def component_registry():
    """The ``{name: component class}`` registry behind compact specs."""
    global _COMPONENTS
    if _COMPONENTS is None:
        from ..rtl import (Adder, BoothMultiplier, CarrySelectAdder,
                           CarrySkipAdder, KoggeStoneAdder, Multiplier,
                           MultiplyAccumulate, RippleCarryAdder)
        _COMPONENTS = {
            "adder": Adder,
            "rca": RippleCarryAdder,
            "ksa": KoggeStoneAdder,
            "csel": CarrySelectAdder,
            "cskip": CarrySkipAdder,
            "multiplier": Multiplier,
            "booth": BoothMultiplier,
            "mac": MultiplyAccumulate,
        }
    return _COMPONENTS


def parse_component(spec, width=None, precision=None):
    """Resolve a component spec to an instance.

    Accepts plain registry names (``multiplier``, using *width*, default
    32) and compact ``<name><width>`` spellings (``mult16``, ``adder8``)
    that override *width*. Raises :class:`SpecError` for unknown names.
    """
    registry = component_registry()
    name = str(spec)
    if name not in registry:
        match = re.match(r"^([a-z_]+?)(\d+)$", name)
        if match:
            name, width = match.group(1), int(match.group(2))
    name = COMPONENT_ALIASES.get(name, name)
    try:
        cls = registry[name]
    except KeyError:
        raise SpecError(
            "unknown component %r (choose from %s, or a compact spec "
            "like mult16 / adder8)"
            % (spec, ", ".join(sorted(registry))))
    width = 32 if width is None else int(width)
    if width < 1:
        raise SpecError("component width must be >= 1, got %d" % width)
    return cls(width, precision=precision)


def component_spec(component):
    """The registry spelling of a component instance (inverse of
    :func:`parse_component`, width passed separately)."""
    for name, cls in component_registry().items():
        if type(component) is cls:
            return name
    raise SpecError("component %s has no registry spelling"
                    % getattr(component, "name", type(component).__name__))


def parse_scenario(spec):
    """One scenario spec: ``fresh``, ``worst10y``/``balance1y`` or the
    characterization-label spelling ``10y_worst``."""
    spec = str(spec)
    if spec == "fresh":
        return fresh()
    match = (re.match(r"^(worst|balance)[-_]?(\d+(?:\.\d+)?)y?$", spec)
             or re.match(r"^(\d+(?:\.\d+)?)y?[-_]?(worst|balance)$", spec))
    if not match:
        raise SpecError(
            "unknown scenario %r (expected e.g. worst10y, balance1y, "
            "10y_worst or fresh)" % spec)
    first, second = match.groups()
    kind, years = ((first, second) if first in ("worst", "balance")
                   else (second, first))
    return (worst_case if kind == "worst" else balance_case)(float(years))


def corner_grid(scenarios):
    """``(corners, labels)``: fresh first (it defines the guardband-free
    clock), then the *scenarios* specs in order, deduplicated by label."""
    corners = [parse_scenario("fresh")]
    labels = ["fresh"]
    for text in scenarios:
        scenario = parse_scenario(text)
        if scenario.label not in labels:
            corners.append(scenario)
            labels.append(scenario.label)
    return tuple(corners), tuple(labels)


def parse_effort(spec):
    """Validate a synthesis-effort name."""
    effort = str(spec)
    if effort not in EFFORTS:
        raise SpecError("unknown effort %r (choose from %s)"
                        % (spec, ", ".join(EFFORTS)))
    return effort


def _coerce(kind, value, sequence=tuple):
    """*value* in the JSON-stable form of field annotation *kind*."""
    if kind == Tuple[str, ...]:
        return sequence(str(v) for v in value)
    if kind == Tuple[float, ...]:
        return sequence(float(v) for v in value)
    if kind == Optional[int]:
        return None if value is None else int(value)
    return value if kind is str else kind(value)


class GridSpec:
    """Shared plumbing of the campaign and Monte Carlo grid specs.

    Subclasses are frozen dataclasses with ``component``, ``scenarios``,
    ``clock_scales``, ``seed``, ``effort`` and ``width`` fields; ``KIND``
    names the spec in diagnostics, and the field annotations drive the
    JSON coercions of :meth:`to_dict` and :meth:`from_dict`.
    """

    KIND = "grid"

    def validated(self):
        """Check the shared fields (subclasses add theirs); raises
        :class:`SpecError`."""
        parse_component(self.component, width=self.width)
        parse_effort(self.effort)
        labels = [parse_scenario(s).label for s in self.scenarios]
        if not labels:
            raise SpecError("%s needs at least one scenario" % self.KIND)
        if len(set(labels)) != len(labels):
            raise SpecError("duplicate scenarios in %r" % (self.scenarios,))
        if not self.clock_scales:
            raise SpecError("%s needs at least one clock scale" % self.KIND)
        if any(not (0.0 < float(s) <= 4.0) for s in self.clock_scales):
            raise SpecError("clock scales must be in (0, 4], got %r"
                            % (self.clock_scales,))
        if int(self.seed) < 0:
            raise SpecError("seed must be non-negative, got %r"
                            % (self.seed,))
        return self

    def to_dict(self):
        """JSON-serializable form (see :meth:`from_dict`)."""
        return {f.name: _coerce(f.type, getattr(self, f.name), list)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; unknown fields are an error."""
        if not isinstance(data, dict):
            raise SpecError("%s must be an object, got %r"
                            % (cls.KIND, type(data).__name__))
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(kinds))
        if unknown:
            raise SpecError("unknown %s fields: %s"
                            % (cls.KIND, ", ".join(unknown)))
        if "component" not in data:
            raise SpecError("%s needs a component" % cls.KIND)
        return cls(**{name: _coerce(kinds[name], value)
                      for name, value in data.items()}).validated()


class GridResult:
    """Shared JSON form of the campaign and Monte Carlo results:
    dataclasses whose first field is the ``spec``, tagged ``SCHEMA``.
    They hold no wall-clock fields, so equal ``to_dict()`` outputs are
    the reproducibility check the determinism tests perform."""

    SCHEMA = None

    def to_dict(self):
        data = {"schema": self.SCHEMA, "spec": self.spec.to_dict()}
        for f in dataclasses.fields(self)[1:]:
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data
