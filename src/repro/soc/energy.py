"""Per-component energy ledger.

Every hardware component charges its activity here. The ledger keys each
charge by ``(component, group, tag)`` so the experiment drivers can slice
the same data three ways:

* by **component** (``"gpu"``, ``"big_cpu"``) for detailed debugging;
* by **group** (CPU / IPs / Memory / Sensors) for the paper's Fig. 2
  breakdown;
* by **tag** (``"event"``, ``"lookup"``, ``"idle"``) for the Fig. 11c
  overhead accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.soc.component import ComponentGroup

#: Charge tag for regular event-processing work.
TAG_EVENT = "event"
#: Charge tag for SNIP lookup-table loads and comparisons (overhead).
TAG_LOOKUP = "lookup"
#: Charge tag for idle/leakage power integrated over session time.
TAG_IDLE = "idle"


@dataclass(frozen=True)
class EnergyReport:
    """Immutable snapshot of an :class:`EnergyMeter`.

    Attributes
    ----------
    total_joules:
        Grand total over every charge.
    by_component / by_group / by_tag:
        Marginal totals along each axis.
    by_group_and_tag:
        Joint totals, used by the overhead analysis.
    """

    total_joules: float
    by_component: Mapping[str, float]
    by_group: Mapping[ComponentGroup, float]
    by_tag: Mapping[str, float]
    by_group_and_tag: Mapping[Tuple[ComponentGroup, str], float]

    def group_fraction(self, group: ComponentGroup) -> float:
        """Fraction of total energy consumed by ``group`` (0 if empty)."""
        if self.total_joules <= 0:
            return 0.0
        return self.by_group.get(group, 0.0) / self.total_joules

    def tag_fraction(self, tag: str) -> float:
        """Fraction of total energy carrying ``tag`` (0 if empty)."""
        if self.total_joules <= 0:
            return 0.0
        return self.by_tag.get(tag, 0.0) / self.total_joules


class EnergyMeter:
    """Accumulates energy charges from all components of one SoC."""

    def __init__(self) -> None:
        self._by_component: Dict[str, float] = defaultdict(float)
        self._by_group: Dict[ComponentGroup, float] = defaultdict(float)
        self._by_tag: Dict[str, float] = defaultdict(float)
        self._by_group_tag: Dict[Tuple[ComponentGroup, str], float] = defaultdict(float)
        self._total = 0.0

    def charge(
        self,
        component: str,
        group: ComponentGroup,
        joules: float,
        tag: str = TAG_EVENT,
    ) -> None:
        """Record ``joules`` of consumption.

        Negative charges are rejected — refunds would let a scheme hide
        energy it actually spent.
        """
        if joules < 0:
            raise ValueError(f"negative energy charge from {component!r}: {joules}")
        if joules == 0:
            return
        self._by_component[component] += joules
        self._by_group[group] += joules
        self._by_tag[tag] += joules
        self._by_group_tag[(group, tag)] += joules
        self._total += joules

    @property
    def total_joules(self) -> float:
        """Total energy charged so far."""
        return self._total

    def component_joules(self, component: str) -> float:
        """Energy charged by one component so far."""
        return self._by_component.get(component, 0.0)

    def group_joules(self, group: ComponentGroup) -> float:
        """Energy charged by one component group so far."""
        return self._by_group.get(group, 0.0)

    def tag_joules(self, tag: str) -> float:
        """Energy charged under one tag so far."""
        return self._by_tag.get(tag, 0.0)

    def report(self) -> EnergyReport:
        """Immutable snapshot of the current ledger."""
        return EnergyReport(
            total_joules=self._total,
            by_component=dict(self._by_component),
            by_group=dict(self._by_group),
            by_tag=dict(self._by_tag),
            by_group_and_tag=dict(self._by_group_tag),
        )

    def reset(self) -> None:
        """Clear the ledger (used between scheme runs on a shared SoC)."""
        self._by_component.clear()
        self._by_group.clear()
        self._by_tag.clear()
        self._by_group_tag.clear()
        self._total = 0.0


# -- columnar fast path -------------------------------------------------

#: Process-wide interning of ``(component, group, tag)`` charge keys.
#: Key ids are an encoding detail — every folded quantity depends only
#: on the per-meter record order and the id→key metadata, so reports
#: stay byte-identical however ids were dealt across sessions or jobs.
_KEY_IDS: Dict[Tuple[str, ComponentGroup, str], int] = {}
_KEY_META: List[Tuple[str, ComponentGroup, str]] = []


def charge_key_id(component: str, group: ComponentGroup, tag: str) -> int:
    """Intern one charge key; used to precompute static cost patterns."""
    key = (component, group, tag)
    key_id = _KEY_IDS.get(key)
    if key_id is None:
        key_id = len(_KEY_META)
        _KEY_IDS[key] = key_id
        _KEY_META.append(key)
    return key_id


#: Process-wide interning of idle-accrual patterns: the ``(key ids,
#: watts)`` of one power-state configuration's idle charges, in id
#: order. A pattern id must mean the same pattern in every meter,
#: because recorded charge patterns (and any idle record in them) are
#: poured into many.
_PATTERN_IDS: Dict[Tuple[Tuple[int, ...], Tuple[float, ...]], int] = {}
#: The interned patterns flattened into ``(lengths, starts, key ids,
#: watts)`` arrays; emptied whenever a pattern is interned.
_PATTERN_COLUMNS: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []


def idle_pattern_id(key_ids: Tuple[int, ...], watts: Tuple[float, ...]) -> int:
    """Intern one idle-accrual pattern for :meth:`ColumnarMeter.accrue`.

    ``key_ids`` come from :func:`charge_key_id`; ``watts`` are the
    matching background draws, charged ``watts * seconds`` each.
    """
    pattern = (key_ids, watts)
    pattern_id = _PATTERN_IDS.get(pattern)
    if pattern_id is None:
        pattern_id = _PATTERN_IDS[pattern] = len(_PATTERN_IDS)
        _PATTERN_COLUMNS.clear()
    return pattern_id


def _pattern_columns() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every interned pattern, flattened; built once per new pattern."""
    if not _PATTERN_COLUMNS:
        lengths = np.array([len(ids) for ids, _ in _PATTERN_IDS], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        key_ids = np.array(
            [key_id for ids, _ in _PATTERN_IDS for key_id in ids], dtype=np.int64
        )
        watts = np.array(
            [power for _, powers in _PATTERN_IDS for power in powers], dtype=np.float64
        )
        _PATTERN_COLUMNS.append((lengths, starts, key_ids, watts))
    return _PATTERN_COLUMNS[0]


def _expand_idle(
    key_ids: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand every idle record in place into its pattern's charges.

    An idle record (key id ``-1 - pattern id``, amount ``seconds``)
    becomes the pattern's charges, ``watts * seconds`` each: a float64
    product in numpy is the IEEE product Python computes, so each
    charge has the bits and the position that appending it one by one
    would have given it. Other records are multiplied by 1.0, which
    leaves every float as it was.
    """
    markers = np.flatnonzero(key_ids < 0)
    if not len(markers):
        return key_ids, values
    lengths, starts, pattern_keys, pattern_watts = _pattern_columns()
    patterns = -1 - key_ids[markers]
    counts = np.ones(len(key_ids), dtype=np.int64)
    counts[markers] = lengths[patterns]
    ends = np.cumsum(counts)
    # Each record's first row in a table of the flattened patterns
    # followed by the records themselves (key, multiplier 1.0); output
    # slot ``s`` of a record starting at slot ``ends - counts`` reads
    # row ``first + s - (ends - counts)``.
    first = np.arange(len(pattern_keys), len(pattern_keys) + len(key_ids))
    first[markers] = starts[patterns]
    rows = np.repeat(first - (ends - counts), counts) + np.arange(ends[-1])
    table_keys = np.concatenate((pattern_keys, key_ids))
    table_watts = np.concatenate((pattern_watts, np.ones(len(values))))
    return table_keys[rows], table_watts[rows] * np.repeat(values, counts)


def _axis_fold(
    dense: np.ndarray,
    first_order: np.ndarray,
    values: np.ndarray,
    axis_of: Sequence[object],
) -> Dict[object, float]:
    """Grouped sums along one axis, in the scalar meter's exact order.

    ``dense`` holds each record's index into the fold's distinct key
    ids, ``first_order`` those indices in first-charge order, and
    ``axis_of`` each distinct key's axis key (component name, group,
    tag, or group-tag pair). One unbuffered ``np.add.at`` walks the
    records in arrival order and adds each into its axis key's sum from
    0.0 — the same left-to-right float additions ``EnergyMeter.charge``
    performs — and keys are inserted in first-charge order, so
    ``dict(...)`` snapshots (and therefore pickles) are byte-identical
    to the scalar ledger's.
    """
    # An axis key is first charged by its earliest-charged key id, so
    # walking the ids in first-charge order deals the axis indices in
    # the scalar meter's defaultdict insertion order.
    table = np.empty(len(axis_of), dtype=np.int64)
    axis_indices: Dict[object, int] = {}
    for index in first_order.tolist():
        axis_key = axis_of[index]
        axis_index = axis_indices.get(axis_key)
        if axis_index is None:
            axis_index = axis_indices[axis_key] = len(axis_indices)
        table[index] = axis_index
    sums = np.zeros(len(axis_indices), dtype=np.float64)
    np.add.at(sums, table[dense], values)
    return dict(zip(axis_indices, sums.tolist()))


class ColumnarMeter(EnergyMeter):
    """Append-only energy ledger with a vectorized grouped fold.

    ``charge`` records ``(key id, joules)`` instead of updating four
    dicts, and :meth:`accrue` records a whole idle interval as one
    ``(-1 - pattern id, seconds)`` record. Totals are folded lazily:
    idle records are expanded in place into their patterns' charges,
    then each axis is summed with one in-order ``np.add.at`` pass, so
    every float result and every dict insertion order is bit-identical
    to an :class:`EnergyMeter` fed the same charges.

    A :class:`~repro.soc.soc.Soc` built on this meter also writes into
    the record columns without going through its components: idle
    accrual, CPU, DRAM and IP charges to IDLE components (see
    :meth:`~repro.soc.soc.Soc.charge_cycles`), and the static delivery
    and upkeep patterns of :func:`repro.android.dispatch.delivery_upkeep_pattern`
    via :meth:`extend`. Components keep no record beside the ledger, so
    nothing goes stale when a charge bypasses them.
    """

    def __init__(self) -> None:
        super().__init__()
        self._key_ids: List[int] = []
        self._values: List[float] = []

    def charge(
        self,
        component: str,
        group: ComponentGroup,
        joules: float,
        tag: str = TAG_EVENT,
    ) -> None:
        self.charge_id(charge_key_id(component, group, tag), joules, component)

    def charge_id(self, key_id: int, joules: float, component: str) -> None:
        """:meth:`charge` under a key already interned by :func:`charge_key_id`.

        Same checks: negative charges raise, zero charges are skipped.
        ``component`` names the charger in the error message.
        """
        if joules < 0:
            raise ValueError(f"negative energy charge from {component!r}: {joules}")
        if joules == 0:
            return
        self._key_ids.append(key_id)
        self._values.append(joules)

    def extend(self, key_ids: Sequence[int], values: Sequence[float]) -> None:
        """Append parallel columns of precomputed records, unchecked.

        Callers guarantee every value is positive: the static patterns
        of :func:`repro.android.dispatch.delivery_upkeep_pattern` are
        recorded from real scalar charge sequences, which carry no zero
        or negative charges, and a pattern taken with
        :meth:`records_since` holds only records a meter accepted (idle
        records included, whose pattern ids mean the same in every
        meter).
        """
        self._key_ids.extend(key_ids)
        self._values.extend(values)

    def accrue(self, pattern_id: int, seconds: float) -> None:
        """Record an idle interval: ``watts * seconds`` for every charge
        of the pattern :func:`idle_pattern_id` interned, as one record.

        Unchecked, like :meth:`extend`: the caller guarantees every
        product is positive (see :meth:`repro.soc.soc.Soc.advance_time`).
        """
        self._key_ids.append(-1 - pattern_id)
        self._values.append(seconds)

    @property
    def record_count(self) -> int:
        """How many records the columns hold (an idle interval is one)."""
        return len(self._values)

    def records_since(self, start: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """The records appended after the first ``start``, ready for :meth:`extend`."""
        return tuple(self._key_ids[start:]), tuple(self._values[start:])

    # -- folded views ---------------------------------------------------

    def _columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The records as arrays, each idle record expanded in place."""
        count = len(self._values)
        return _expand_idle(
            np.fromiter(self._key_ids, np.int64, count),
            np.fromiter(self._values, np.float64, count),
        )

    def _folded(self) -> EnergyReport:
        key_ids, values = self._columns()
        if not len(values):
            return EnergyReport(
                total_joules=0.0, by_component={}, by_group={},
                by_tag={}, by_group_and_tag={},
            )
        # Expanded key ids are small dense integers below the interned
        # key count, so one first-occurrence pass over a table of that
        # length finds the distinct ids (ascending), each id's first
        # record and each record's index into the ids. Every axis
        # derives its first-charge order from this.
        count = len(key_ids)
        first_seen = np.full(len(_KEY_META), count, dtype=np.int64)
        np.minimum.at(first_seen, key_ids, np.arange(count))
        ids = np.flatnonzero(first_seen < count)
        first = first_seen[ids]
        dense_of = np.empty(len(_KEY_META), dtype=np.int64)
        dense_of[ids] = np.arange(len(ids))
        dense = dense_of[key_ids]
        first_order = np.argsort(first)
        keys = [_KEY_META[key_id] for key_id in ids.tolist()]
        return EnergyReport(
            total_joules=float(np.add.accumulate(values)[-1]),
            by_component=_axis_fold(
                dense, first_order, values, [key[0] for key in keys]
            ),
            by_group=_axis_fold(
                dense, first_order, values, [key[1] for key in keys]
            ),
            by_tag=_axis_fold(
                dense, first_order, values, [key[2] for key in keys]
            ),
            by_group_and_tag=_axis_fold(
                dense, first_order, values, [(key[1], key[2]) for key in keys]
            ),
        )

    @property
    def total_joules(self) -> float:
        """The grand total alone, without folding the four axes.

        The same sequential ``np.add.accumulate`` over the expanded
        records in arrival order that :meth:`report` runs, so the same
        float.
        """
        values = self._columns()[1]
        return float(np.add.accumulate(values)[-1]) if len(values) else 0.0

    def component_joules(self, component: str) -> float:
        return self._folded().by_component.get(component, 0.0)

    def group_joules(self, group: ComponentGroup) -> float:
        return self._folded().by_group.get(group, 0.0)

    def tag_joules(self, tag: str) -> float:
        return self._folded().by_tag.get(tag, 0.0)

    def report(self) -> EnergyReport:
        return self._folded()

    def reset(self) -> None:
        super().reset()
        self._key_ids.clear()
        self._values.clear()


def merge_reports(reports: Iterable[EnergyReport]) -> EnergyReport:
    """Sum several reports into one (e.g. across session repetitions)."""
    by_component: Dict[str, float] = defaultdict(float)
    by_group: Dict[ComponentGroup, float] = defaultdict(float)
    by_tag: Dict[str, float] = defaultdict(float)
    by_group_tag: Dict[Tuple[ComponentGroup, str], float] = defaultdict(float)
    total = 0.0
    for report in reports:
        total += report.total_joules
        for key, value in report.by_component.items():
            by_component[key] += value
        for group, value in report.by_group.items():
            by_group[group] += value
        for tag, value in report.by_tag.items():
            by_tag[tag] += value
        for pair, value in report.by_group_and_tag.items():
            by_group_tag[pair] += value
    return EnergyReport(
        total_joules=total,
        by_component=dict(by_component),
        by_group=dict(by_group),
        by_tag=dict(by_tag),
        by_group_and_tag=dict(by_group_tag),
    )
