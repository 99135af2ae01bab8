"""Unit helpers: cycles, seconds, bytes, and rate conversions.

All simulated time in this package is kept in integer *processor cycles*
of the machine being simulated.  Converting to wall-clock seconds (for
tables that report seconds or rates per second) requires the machine's
clock frequency, so the conversions live here as explicit functions
instead of being scattered through the models.
"""

from __future__ import annotations

MEGA = 1_000_000

KIB = 1024
MIB = 1024 * 1024

WORD_BYTES = 4
"""Machine word size used throughout (32-bit machines in the paper)."""


def cycles_to_seconds(cycles: float, clock_hz: float) -> float:
    """Convert a cycle count at ``clock_hz`` to seconds."""
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz}")
    return cycles / clock_hz


def seconds_to_cycles(seconds: float, clock_hz: float) -> int:
    """Convert seconds to a whole number of cycles at ``clock_hz``.

    Rounds up so that a positive duration never becomes zero cycles.
    """
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz}")
    if seconds < 0:
        raise ValueError(f"seconds must be non-negative, got {seconds}")
    cycles = seconds * clock_hz
    whole = int(cycles)
    if whole < cycles:
        whole += 1
    return whole


def bytes_to_words(nbytes: int) -> int:
    """Number of whole words needed to hold ``nbytes`` (rounds up)."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    return (nbytes + WORD_BYTES - 1) // WORD_BYTES


def transfer_cycles(nbytes: int, bandwidth_bytes_per_sec: float,
                    clock_hz: float) -> int:
    """Cycles to push ``nbytes`` through a link of the given bandwidth."""
    if bandwidth_bytes_per_sec <= 0:
        raise ValueError("bandwidth must be positive")
    return seconds_to_cycles(nbytes / bandwidth_bytes_per_sec, clock_hz)


def per_second(count: float, cycles: float, clock_hz: float) -> float:
    """Rate of ``count`` events over ``cycles`` of simulated time."""
    if cycles <= 0:
        return 0.0
    return count / cycles_to_seconds(cycles, clock_hz)


def mbits_per_sec(bits_per_sec: float) -> float:
    """Express a bit rate in Mbit/s (for reporting)."""
    return bits_per_sec / MEGA


def bandwidth_from_mbits(mbits: float) -> float:
    """Bytes/second for a link quoted in Mbit/s."""
    if mbits <= 0:
        raise ValueError(f"mbits must be positive, got {mbits}")
    return mbits * MEGA / 8
