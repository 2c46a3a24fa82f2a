"""Synthetic stream workloads and stream utilities.

The paper's motivating workloads are proprietary (Google query logs, router
packet traces), so this package provides synthetic equivalents that match
the *distributional model the paper's own analysis uses*: Zipfian item
frequencies (§4.1), heavy-tailed flow sizes (Crovella et al., the paper's
[3]), and paired drifting streams for the §4.2 max-change problem.

* :mod:`repro.streams.alias` — Walker alias-method sampler (the substrate
  that makes exact-Zipf stream generation O(1) per item).
* :mod:`repro.streams.zipf` — Zipfian streams with parameter ``z``.
* :mod:`repro.streams.generators` — uniform / planted-heavy-hitter /
  adversarial-boundary streams.
* :mod:`repro.streams.drift` — paired before/after streams with known
  rising and falling items.
* :mod:`repro.streams.queries` — synthetic search-engine query streams
  (the paper's first motivating application).
* :mod:`repro.streams.packets` — synthetic packet-flow streams (the
  paper's networking application).
* :mod:`repro.streams.io` — plain-text / JSON-lines stream persistence,
  and :func:`~repro.streams.io.iter_chunks` for bounded-memory batches.
* :mod:`repro.streams.model` — the :class:`~repro.streams.model.Stream`
  wrapper binding items to generation metadata.
"""

from repro.streams.alias import AliasSampler
from repro.streams.drift import DriftPair, make_drift_pair
from repro.streams.io import (
    StreamFormatError,
    TextStreamReader,
    iter_chunks,
    iter_stream_text,
    read_stream_jsonl,
    read_stream_text,
    write_stream_jsonl,
    write_stream_text,
)
from repro.streams.generators import (
    adversarial_boundary_stream,
    planted_heavy_hitter_stream,
    uniform_stream,
)
from repro.streams.markov import BurstyZipfStreamGenerator
from repro.streams.model import Stream
from repro.streams.packets import Flow, FlowStreamGenerator
from repro.streams.queries import QueryStreamGenerator
from repro.streams.zipf import ZipfStreamGenerator, zipf_weights

__all__ = [
    "AliasSampler",
    "BurstyZipfStreamGenerator",
    "DriftPair",
    "Flow",
    "FlowStreamGenerator",
    "QueryStreamGenerator",
    "Stream",
    "StreamFormatError",
    "TextStreamReader",
    "ZipfStreamGenerator",
    "adversarial_boundary_stream",
    "iter_chunks",
    "iter_stream_text",
    "make_drift_pair",
    "planted_heavy_hitter_stream",
    "read_stream_jsonl",
    "read_stream_text",
    "uniform_stream",
    "write_stream_jsonl",
    "write_stream_text",
    "zipf_weights",
]
