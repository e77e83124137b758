"""Data partitioning across NDP units (Section II-B).

DRAM-bank NDP requires each unit to hold a contiguous range of the data it
computes on; UPMEM's SDK does this with a transposition procedure and
HBM-PIM with a BLAS-layout rearrangement.  We assume the same facility: the
:class:`PartitionMap` places logical arrays into the per-bank physical
address space, with either a *blocked* layout (contiguous element ranges
per unit -- the default, matching coarse-grained interleaving) or a
*striped* layout (round-robin).

Addresses returned here are the physical addresses tasks carry
(Section IV notes NDP systems work on large contiguous ranges or physical
addresses directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..dram.address import AddressMap


class AllocationError(RuntimeError):
    """A data array does not fit in the per-bank data region."""


@dataclass(frozen=True)
class DataArray:
    """A logical array partitioned across all units."""

    name: str
    n_elements: int
    element_size: int
    layout: str                   # "blocked" | "striped"
    per_unit: int                 # elements placed in each unit
    unit_offsets: Tuple[int, ...]  # byte offset of this array in each bank


class PartitionMap:
    """Allocates arrays into banks and resolves element <-> address."""

    def __init__(self, addr_map: AddressMap):
        self.addr_map = addr_map
        self.units = addr_map.total_units
        self.bank_bytes = addr_map.bank_bytes
        self._arrays: Dict[str, DataArray] = {}
        # Bump allocator per unit; all units allocate in lockstep so a
        # single cursor suffices.
        self._next_offset = 0

    def allocate(
        self, name: str, n_elements: int, element_size: int,
        layout: str = "blocked",
    ) -> DataArray:
        """Place a new array across all banks."""
        if name in self._arrays:
            raise AllocationError(f"array {name!r} already allocated")
        if n_elements <= 0 or element_size <= 0:
            raise AllocationError("array must have positive size")
        if layout not in ("blocked", "striped"):
            raise AllocationError(f"unknown layout {layout!r}")
        per_unit = math.ceil(n_elements / self.units)
        nbytes = per_unit * element_size
        if self._next_offset + nbytes > self.bank_bytes:
            raise AllocationError(
                f"array {name!r} ({nbytes} B/bank) overflows the bank "
                f"({self._next_offset}/{self.bank_bytes} B used)"
            )
        offsets = tuple(self._next_offset for _ in range(self.units))
        arr = DataArray(
            name=name, n_elements=n_elements, element_size=element_size,
            layout=layout, per_unit=per_unit, unit_offsets=offsets,
        )
        self._next_offset += nbytes
        self._arrays[name] = arr
        return arr

    # -- element <-> placement ---------------------------------------------
    def placement(self, arr: DataArray, index: int) -> Tuple[int, int]:
        """``(unit_id, slot)`` of element ``index``."""
        if not 0 <= index < arr.n_elements:
            raise IndexError(f"{arr.name}[{index}] out of range")
        if arr.layout == "blocked":
            return index // arr.per_unit, index % arr.per_unit
        return index % self.units, index // self.units

    def addr_of(self, arr: DataArray, index: int) -> int:
        unit, slot = self.placement(arr, index)
        return (
            unit * self.bank_bytes
            + arr.unit_offsets[unit]
            + slot * arr.element_size
        )

    def home_unit(self, arr: DataArray, index: int) -> int:
        return self.placement(arr, index)[0]

    def index_of(self, arr: DataArray, addr: int) -> int:
        """Inverse of :meth:`addr_of` (used by task functions)."""
        unit = addr // self.bank_bytes
        offset = addr % self.bank_bytes - arr.unit_offsets[unit]
        if offset < 0 or offset % arr.element_size != 0:
            raise ValueError(f"address {addr:#x} not in array {arr.name!r}")
        slot = offset // arr.element_size
        if slot >= arr.per_unit:
            raise ValueError(f"address {addr:#x} not in array {arr.name!r}")
        if arr.layout == "blocked":
            index = unit * arr.per_unit + slot
        else:
            index = slot * self.units + unit
        if not 0 <= index < arr.n_elements:
            raise ValueError(f"address {addr:#x} beyond array {arr.name!r}")
        return index

    def elements_of_unit(self, arr: DataArray, unit_id: int) -> List[int]:
        """All element indices homed in ``unit_id``."""
        if arr.layout == "blocked":
            lo = unit_id * arr.per_unit
            hi = min(arr.n_elements, lo + arr.per_unit)
            return list(range(lo, hi))
        return list(range(unit_id, arr.n_elements, self.units))
