"""Gate instances.

A :class:`Gate` is one standard-cell instance inside a
:class:`~repro.netlist.netlist.Netlist`: a cell type name (a key into a
:class:`~repro.cells.library.CellLibrary`), an ordered tuple of input nets
and a single output net.
"""

from dataclasses import dataclass, field
from typing import Tuple


def split_cell(name):
    """``(kind, drive)`` of a cell name: ``"NAND2_X2"`` -> ``("NAND2",
    2)``; a name without a drive suffix is its own kind, at drive 1."""
    base, sep, drive = name.rpartition("_X")
    if sep and drive.isdigit():
        return base, int(drive)
    return name, 1


@dataclass
class Gate:
    """One standard-cell instance.

    Attributes
    ----------
    uid:
        Unique id of this gate within its netlist. Stable across
        optimization passes so that aging stress annotations (which are
        keyed by gate uid) survive netlist rewrites that keep the gate.
    cell:
        Cell type name, e.g. ``"NAND2_X1"``. Resolved against a
        :class:`~repro.cells.library.CellLibrary` at analysis time so a
        netlist is not tied to one library instance.
    inputs:
        Ordered input net ids. Order matters for non-commutative cells
        (``MUX2`` select is the last input).
    output:
        The single output net id driven by this gate.
    """

    uid: int
    cell: str
    inputs: Tuple[int, ...]
    output: int
    name: str = field(default="")

    def __post_init__(self):
        self.inputs = tuple(self.inputs)

    @property
    def kind(self):
        """Base cell kind without the drive-strength suffix.

        ``"NAND2_X1"`` -> ``"NAND2"``. Cell names without a drive suffix
        are returned unchanged.
        """
        return split_cell(self.cell)[0]

    @property
    def drive(self):
        """Drive strength (1, 2, 4, ...) encoded in the cell name."""
        return split_cell(self.cell)[1]

    def with_cell(self, cell):
        """Return a copy of this gate mapped to a different cell type."""
        return Gate(uid=self.uid, cell=cell, inputs=self.inputs,
                    output=self.output, name=self.name)


class FrozenGate(Gate):
    """A :class:`Gate` of a read-only netlist (see
    :meth:`~repro.netlist.netlist.Netlist.freeze`): assigning any
    attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("gate %d belongs to a read-only netlist; "
                             "copy() the netlist to edit it" % self.uid)

    def __delattr__(self, name):
        self.__setattr__(name, None)
