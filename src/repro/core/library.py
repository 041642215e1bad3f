"""The library of aging-induced approximations (Fig. 3(a)).

Characterizations are performed offline, once per component family, and
collected here. The microarchitecture flow then answers "how much
precision must block X give up to survive scenario Y?" with plain table
lookups — the paper's key claim of quantifying aging-induced
approximations *without further gate-level simulations*.

The library serializes to JSON so a characterization run can be shipped
with a design, exactly like the released degradation-aware cell library
the paper builds on.
"""

import json

from .characterize import ComponentCharacterization, component_key


def _key(component_or_key):
    return (component_or_key if isinstance(component_or_key, str)
            else component_key(component_or_key))


class AgingApproximationLibrary:
    """Keyed store of :class:`ComponentCharacterization` entries."""

    def __init__(self, entries=()):
        self._entries = {}
        #: key -> scenarios of each entry the flow's Eq. 2 search created
        #: (in memory only, never serialized): such an entry may be
        #: extended down the default precision range, a supplied one not.
        self._searched = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry):
        """Insert or replace a characterization (a supplied entry)."""
        self._entries[entry.key] = entry
        self._searched.pop(entry.key, None)
        return entry

    def searched_scenarios(self, component_or_key):
        """Scenarios the Eq. 2 search characterized into an entry it
        created, oldest first; None for a supplied or missing entry."""
        return self._searched.get(_key(component_or_key))

    def add_searched(self, entry, scenario):
        """Record that the Eq. 2 search characterized *scenario* into
        *entry*, inserting the entry when it is new."""
        scenarios = self._searched.get(entry.key)
        if scenarios is None:
            self._entries[entry.key] = entry
            scenarios = self._searched[entry.key] = []
        if all(s.label != scenario.label for s in scenarios):
            scenarios.append(scenario)
        return entry

    def get(self, component_or_key):
        """Look up by component instance or key; None when missing."""
        return self._entries.get(_key(component_or_key))

    def __contains__(self, component_or_key):
        return self.get(component_or_key) is not None

    def __len__(self):
        return len(self._entries)

    def keys(self):
        return sorted(self._entries)

    def entries(self):
        return [self._entries[k] for k in self.keys()]

    def required_precision(self, component_or_key, scenario_label,
                           target_ps=None):
        """Eq. 2 lookup: largest precision meeting the timing target."""
        entry = self.get(component_or_key)
        if entry is None:
            raise KeyError("component %r not characterized"
                           % (component_or_key,))
        return entry.required_precision(scenario_label, target_ps=target_ps)

    # -- persistence -------------------------------------------------------
    def to_json(self, indent=2):
        return json.dumps({"entries": [e.to_dict()
                                       for e in self.entries()]},
                          indent=indent)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(ComponentCharacterization.from_dict(d)
                   for d in data["entries"])

    def save(self, path):
        """Write the library to a JSON file."""
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path):
        """Read a library previously written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(handle.read())
