#!/usr/bin/env python3
"""Diffs freshly collected BENCH_table*.json files against committed
baselines and fails on large regressions of the gated metrics.

Usage: check_bench_regression.py FRESH_DIR BASELINE_DIR [--factor 2.0]

Only grounding and unit-table wall times are gated (the paper's Table 2
hot paths); everything else is reported informationally. The factor is
deliberately generous — CI machines differ from the baseline machine —
so only order-of-magnitude regressions trip it. Absolute times below
MIN_GATED_SECONDS are ignored (pure noise).

The gate fails loudly — never vacuously — when its inputs are broken:
a missing baseline file, a gated metric whose baseline value is zero or
non-positive (a zero wall time means the timer or collector broke, and
every future ratio against it would pass), a gated metric present in
the fresh collection but absent from the baseline, or a table whose
fresh collection no longer emits a metric REQUIRED_GATED says it must
(removing a gated metric from both the bench and the baseline in one
change would otherwise pass silently).
"""

import json
import pathlib
import sys

GATED_METRICS = {"grounding_s", "unit_table_s",
                 "grounding_incremental_extend_s",
                 "grounding_graph_build_s"}
MIN_GATED_SECONDS = 0.05
TABLES = ["BENCH_table1.json", "BENCH_table2.json", "BENCH_table3.json",
          "BENCH_serve.json"]

# Metrics each table's fresh collection MUST contain, checked against the
# fresh output unconditionally — independent of the baseline's contents.
# The vanished-metric check above only compares fresh against baseline, so
# deleting a gated metric from the bench AND the committed baseline in the
# same PR would slip through; this map pins what "gated" means per table.
REQUIRED_GATED = {
    # The guard_* / fault_injected counters come from bench_table2's
    # deliberately stopped passes: presence proves every guard stop path
    # still accounts its events (values are informational, not ratio-gated).
    # grounding_graph_build_s and its enumerate/merge split: presence
    # proves the grounding phase breakdown stayed wired.
    # unit_table_allocs counts operator new calls in one warm unit-table
    # build; bench_table2 aborts when it reaches 512 at any size (no
    # per-row allocation, no per-chunk lists), so its presence proves the
    # allocation-free one-pass Algorithm 1 still holds. unit_table_nodes_expanded counts the nodes
    # the same build's peer search expands; bench_table2 aborts when it
    # exceeds 4 per row on MIMIC, so its presence proves the search stayed
    # lifted to the treatment's reach.
    # grounding_incremental_extend_heap_bytes is the median heap bytes of
    # a single-admission extend; bench_table2 aborts above 256 KiB, so its
    # presence proves the extend stayed delta-sized.
    # unit_table_rows_{resolved,embedded,summed} are the exact rows an
    # answer through a QuerySession resolves, embeds and sums after a
    # one-admission extend on MIMIC; bench_table2 aborts unless each is 1
    # there and 0 on a repeat answer, so their presence proves answers
    # stay delta-sized end to end.
    # query_session_repeat_ground_hits and query_session_extend_{ground_
    # extends,unit_rows_resumes} are the same answers' query_session.*
    # deltas; bench_table2 aborts unless the repeat is a grounding and
    # unit-row hit with no miss, and the answer after the admission is one
    # miss, one extend, no full ground and one unit-row resume.
    # criterion_allocs counts operator new calls in one adjustment-
    # criterion check over every unit of the warm table; bench_table2
    # aborts when it reaches 64 at any size, and when the criterion fails
    # on some unit, so its presence proves the check still covers every
    # unit in one pass with no per-unit allocation.
    # grounding_allocs counts operator new calls in one warm grounding
    # pass; bench_table2 aborts when it reaches 1,024 at any size (no
    # per-binding or per-node owned Tuple, no per-node queue block), so
    # its presence proves grounding still allocates per pass, not per
    # grounding.
    "BENCH_table2.json": {"grounding_s", "grounding_allocs",
                          "unit_table_s", "unit_table_allocs",
                          "unit_table_nodes_expanded", "criterion_allocs",
                          "grounding_incremental_extend_s",
                          "grounding_incremental_extend_heap_bytes",
                          "unit_table_rows_resolved",
                          "unit_table_rows_embedded",
                          "unit_table_rows_summed",
                          "query_session_repeat_ground_hits",
                          "query_session_extend_ground_extends",
                          "query_session_extend_unit_rows_resumes",
                          "grounding_graph_build_s",
                          "grounding_enumerate_s", "grounding_merge_s",
                          "guard_cancelled", "guard_deadline_exceeded",
                          "guard_budget_exceeded", "fault_injected"},
    # The serving layer's load metrics. Not ratio-gated: QPS regresses
    # DOWNWARD (a ratio gate on it would reward regressions) and the
    # latency quantiles are machine-noisy — but their presence proves
    # bench_serve still drives the concurrent service, checks served
    # answers bit-identical to direct engine calls, and asserts the
    # grounds-once contract: identical requests racing for a cold shard
    # ground it once (the bench CHECKs abort it otherwise, which empties
    # the collection and trips this).
    "BENCH_serve.json": {"serve_qps", "serve_p99_ms"},
}


def load(path):
    metrics = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        key = (entry["bench"], entry.get("label", ""), entry["metric"])
        metrics[key] = entry["value"]
    return metrics


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    fresh_dir, baseline_dir = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    factor = 2.0
    if "--factor" in argv:
        factor = float(argv[argv.index("--factor") + 1])

    failures = []
    for name in TABLES:
        fresh_path, base_path = fresh_dir / name, baseline_dir / name
        if not base_path.exists():
            # A vanished baseline would make every future run pass
            # vacuously; refuse instead of skipping.
            failures.append(f"{name}: baseline missing ({base_path})")
            continue
        if not fresh_path.exists():
            failures.append(f"{name}: fresh collection missing ({fresh_path})")
            continue
        fresh, base = load(fresh_path), load(base_path)
        if not base:
            failures.append(f"{name}: baseline is empty ({base_path})")
            continue
        for key, base_value in sorted(base.items()):
            bench, label, metric = key
            fresh_value = fresh.get(key)
            if fresh_value is None:
                failures.append(f"{name}: metric vanished: {key}")
                continue
            if metric in GATED_METRICS and base_value <= 0:
                failures.append(
                    f"{bench}/{label}/{metric}: baseline value is "
                    f"{base_value!r} — timer or collector broke; "
                    f"re-collect the baseline"
                )
                continue
            gated = (
                metric in GATED_METRICS and base_value >= MIN_GATED_SECONDS
            )
            ratio = fresh_value / base_value if base_value > 0 else float("inf")
            flag = " <-- REGRESSION" if gated and ratio > factor else ""
            print(
                f"{'[gate]' if gated else '[info]'} {bench}/{label}/{metric}: "
                f"baseline {base_value:.4g} fresh {fresh_value:.4g} "
                f"(x{ratio:.2f}){flag}"
            )
            if flag:
                failures.append(
                    f"{bench}/{label}/{metric}: {base_value:.4g} -> "
                    f"{fresh_value:.4g} (>{factor}x)"
                )
        # A gated metric present fresh but unknown to the baseline means
        # the baseline predates the bench change — refresh it in the same
        # PR so the new metric is gated from day one.
        for key in sorted(fresh):
            if key[2] in GATED_METRICS and key not in base:
                failures.append(
                    f"{name}: gated metric {key} has no baseline; refresh "
                    f"the committed BENCH files"
                )
        # Presence check against the fresh output alone: every metric
        # REQUIRED_GATED lists for this table must still be emitted by at
        # least one workload, or the gate has silently lost coverage.
        fresh_metrics = {key[2] for key in fresh}
        for metric in sorted(REQUIRED_GATED.get(name, set())):
            if metric not in fresh_metrics:
                failures.append(
                    f"{name}: required gated metric '{metric}' is missing "
                    f"from the fresh collection — the bench stopped "
                    f"emitting it"
                )

    if failures:
        print("\nFAIL: bench regression gate")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nOK: no gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
