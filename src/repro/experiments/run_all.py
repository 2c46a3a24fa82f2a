"""Run every experiment at its default configuration and print all
reports — the one-command regeneration of the paper's evaluation.

``python -m repro.experiments.run_all`` (or ``repro experiment run_all``)
takes a few minutes; each section header names the experiment id from
DESIGN.md's index.  The benchmark suite does the same work under timing
(`pytest benchmarks/ --benchmark-only`) and persists the reports; this
driver is the interactive, dependency-free path.
"""

from __future__ import annotations

import importlib
import time

#: (experiment id, module name) in DESIGN.md index order.
EXPERIMENT_SEQUENCE: tuple[tuple[str, str], ...] = (
    ("E1", "table1"),
    ("E2", "error_vs_b"),
    ("E3", "failure_vs_t"),
    ("E4", "approxtop_quality"),
    ("E5", "zipf_space_scaling"),
    ("E6", "sampling_space"),
    ("E7", "maxchange_experiment"),
    ("E8", "space_accounting"),
    ("A1", "ablation_estimator"),
    ("A2", "ablation_sign_hash"),
    ("A3", "ablation_heap_counts"),
    ("A4", "ablation_hash_family"),
    ("X1", "hierarchical_maxchange"),
    ("X2", "autoconfig"),
    ("X3", "windowed_accuracy"),
    ("X4", "relative_change_floor"),
    ("T1", "throughput"),
)


def main() -> None:
    """Run the full experiment sequence, printing every report."""
    started = time.perf_counter()
    for experiment_id, module_name in EXPERIMENT_SEQUENCE:
        module = importlib.import_module(
            f"repro.experiments.{module_name}"
        )
        banner = f"[{experiment_id}] {module_name}"
        print("\n" + "#" * len(banner))
        print(banner)
        print("#" * len(banner))
        step_start = time.perf_counter()
        module.main()
        print(f"({time.perf_counter() - step_start:.1f}s)")
    total = time.perf_counter() - started
    print(f"\nall {len(EXPERIMENT_SEQUENCE)} experiments completed "
          f"in {total:.0f}s")


if __name__ == "__main__":
    main()
