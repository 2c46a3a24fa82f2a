"""repro — Count Sketch and the frequent-items-in-data-streams toolkit.

A from-scratch reproduction of *Finding frequent items in data streams*
(Charikar, Chen & Farach-Colton): the Count Sketch data structure, the
one-pass APPROXTOP / CANDIDATETOP algorithms built on it, the two-pass
max-change algorithm, every baseline the paper compares against or surveys
(SAMPLING, concise/counting samples, KPS/Misra–Gries, lossy counting,
sticky sampling, plus SpaceSaving and Count-Min as extensions), synthetic
Zipfian / query / packet-flow workloads, and an experiment harness that
regenerates the paper's Table 1 and the quantitative content of its lemmas.

Quickstart::

    from repro import CountSketch, TopKTracker
    from repro.streams import ZipfStreamGenerator

    stream = ZipfStreamGenerator(m=10_000, z=1.0, seed=7).generate(100_000)
    tracker = TopKTracker(k=10, depth=5, width=256, seed=7)
    for item in stream:
        tracker.update(item)
    print(tracker.top())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every experiment.
"""

from repro.baselines import (
    ConciseSamples,
    CountingSamples,
    CountMinSketch,
    ExactCounter,
    KPSFrequent,
    LossyCounting,
    MultiHashIceberg,
    SamplingSummary,
    SpaceSaving,
    StickySampling,
)
from repro.core import (
    CandidateTopTracker,
    ChangeReport,
    CountSketch,
    GroupTestingSketch,
    HierarchicalCountSketch,
    IndexedMinHeap,
    JumpingWindowSketch,
    MaxChangeFinder,
    RelativeChangeFinder,
    RelativeChangeReport,
    SketchParameters,
    SparseCountSketch,
    TopKTracker,
    VectorizedCountSketch,
    gamma,
    suggest_depth,
    width_for_approxtop,
)
from repro.core.hierarchical import heavy_change_items
from repro.core.maxchange import find_max_change

__version__ = "1.0.0"

__all__ = [
    "CandidateTopTracker",
    "ChangeReport",
    "ConciseSamples",
    "CountMinSketch",
    "CountSketch",
    "CountingSamples",
    "ExactCounter",
    "GroupTestingSketch",
    "HierarchicalCountSketch",
    "IndexedMinHeap",
    "JumpingWindowSketch",
    "KPSFrequent",
    "LossyCounting",
    "MaxChangeFinder",
    "MultiHashIceberg",
    "RelativeChangeFinder",
    "RelativeChangeReport",
    "SamplingSummary",
    "SketchParameters",
    "SpaceSaving",
    "SparseCountSketch",
    "StickySampling",
    "TopKTracker",
    "VectorizedCountSketch",
    "find_max_change",
    "heavy_change_items",
    "gamma",
    "suggest_depth",
    "width_for_approxtop",
]
