"""Textual component / scenario specs shared by the CLI and the server.

One place understands the compact spellings users type — ``mult16``,
``adder8``, ``worst10y``, ``10y_worst``, ``fresh`` — so the command line
(:mod:`repro.cli`) and the characterization service
(:mod:`repro.serve`) accept exactly the same vocabulary and fail with
the same diagnostics. Parsing errors raise :class:`SpecError` (a
``ValueError``); callers translate that into ``SystemExit`` (CLI) or an
HTTP 400 (server).
"""

import re

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
