"""Property tests: lane-superposed PPSFP == N independent serial runs.

The superposed PPSFP kernel packs one fault per bit *lane* on top of the
per-lane pattern packing, so one compiled evaluation screens
``lanes x patterns`` fault/pattern pairs.  Hypothesis checks it against
its serial counterparts on random netlists, random pattern sets and
random stem/branch fault subsets:

* both engines of :func:`simulate_patterns` (superposed, interpreted
  walker) return the identical :class:`CombinationalCoverage` --
  including the undetected-fault order,
* the superposed verdicts equal one :func:`detects` call per fault,
* lane grouping is invisible: shrinking the lane budget until every pass
  holds a single fault cannot change a verdict,
* :func:`pack_patterns` round-trips (bit ``k`` of input ``i`` is pattern
  ``k``'s character for input ``i``), which the fault-per-lane field
  replication builds on.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import simulator
from repro.faults.simulator import (
    detects,
    pack_patterns,
    simulate_patterns,
)
from test_prop_superposed import netlist_faults_patterns, random_netlists


@contextmanager
def _lane_budget(bits: int):
    """Temporarily shrink the superposition budget to force multi-pass runs."""
    previous = simulator.PPSFP_LANE_BITS
    simulator.PPSFP_LANE_BITS = bits
    try:
        yield
    finally:
        simulator.PPSFP_LANE_BITS = previous


def _pattern_strings(netlist, patterns):
    """Bit-list patterns (as drawn) -> the string form the API accepts."""
    return ["".join(str(bit) for bit in pattern) for pattern in patterns]


@given(netlist_faults_patterns())
@settings(deadline=None)
def test_engines_agree_whole_report(data):
    """superposed == interpreted, as full CombinationalCoverage."""
    netlist, faults, patterns = data
    strings = _pattern_strings(netlist, patterns)
    superposed = simulate_patterns(netlist, strings, faults, engine="superposed")
    interpreted = simulate_patterns(netlist, strings, faults, engine="interpreted")
    assert superposed == interpreted


@given(netlist_faults_patterns())
@settings(deadline=None)
def test_superposed_equals_serial_detects(data):
    """Each lane's verdict == one independent serial detects() run."""
    netlist, faults, patterns = data
    strings = _pattern_strings(netlist, patterns)
    outcome = simulate_patterns(netlist, strings, faults, engine="superposed")
    packed, mask = pack_patterns(strings, netlist.inputs)
    undetected = set()
    for fault in faults:
        if not detects(netlist, fault, packed, mask):
            undetected.add(id(fault))
    # order-preserving comparison against the report's undetected tuple
    expected = tuple(f for f in faults if id(f) in undetected)
    assert outcome.undetected == expected
    assert outcome.detected == len(faults) - len(expected)


@given(netlist_faults_patterns(), st.integers(min_value=1, max_value=3))
@settings(deadline=None)
def test_lane_grouping_is_invisible(data, budget_patterns):
    """Forcing tiny lane groups (down to 1 fault/pass) changes nothing."""
    netlist, faults, patterns = data
    strings = _pattern_strings(netlist, patterns)
    reference = simulate_patterns(netlist, strings, faults, engine="interpreted")
    # budget of N pattern-sets-worth of bits => at most N faults per pass
    with _lane_budget(max(1, len(strings)) * budget_patterns):
        grouped = simulate_patterns(netlist, strings, faults, engine="superposed")
    assert grouped == reference


@given(random_netlists(), st.data())
@settings(deadline=None)
def test_pack_patterns_round_trip(netlist, data):
    """Bit k of packed input i == pattern k's character for input i."""
    n_inputs = len(netlist.inputs)
    patterns = data.draw(
        st.lists(
            st.text(alphabet="01", min_size=n_inputs, max_size=n_inputs),
            min_size=0,
            max_size=12,
        )
    )
    packed, mask = pack_patterns(patterns, netlist.inputs)
    assert mask == (1 << len(patterns)) - 1 if patterns else mask == 0
    for position, pattern in enumerate(patterns):
        for name, ch in zip(netlist.inputs, pattern):
            assert (packed[name] >> position) & 1 == int(ch)
    # and nothing above the mask
    for name in netlist.inputs:
        assert packed[name] & ~mask == 0


@given(netlist_faults_patterns())
@settings(deadline=None)
def test_explicit_vs_default_universe_consistency(data):
    """An explicit fault list behaves exactly like the same default slice."""
    netlist, _faults, patterns = data
    strings = _pattern_strings(netlist, patterns)
    full = simulate_patterns(netlist, strings, engine="superposed")
    again = simulate_patterns(
        netlist, strings, faults=list(simulator.all_faults(netlist)),
        engine="superposed",
    )
    assert full == again
