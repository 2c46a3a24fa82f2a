"""RS002 true positives: poking a sketch's counter state from outside."""

import numpy as np

from repro.core.countsketch import CountSketch


def tamper(sketch: CountSketch) -> None:
    sketch._counters[0, 0] += 5  # RS002: direct counter mutation
    sketch._total_weight = 99  # RS002: direct state mutation
    sketch._counters = np.zeros((2, 4), dtype=np.int64)  # RS002: rebind


def tamper_public_view(sketch: CountSketch) -> None:
    sketch.counters[0, 0] = 1  # RS002: mutation through the public view


def tamper_flat_view(sketch: CountSketch) -> None:
    sketch._cells[0] += 5  # RS002: mutation through the flat counter view
