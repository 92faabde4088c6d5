#!/usr/bin/env python3
"""Validate gigascale memory footprint against the committed budget.

The gigascale bench (bench/bench_gigascale.cpp) runs the paper's
full-scale 4GB/128GB-PCM point with the paged state backend and
streams accord.telemetry/1 heartbeats.  Each stream carries:

  state_bytes   canonical gauge: host bytes backing per-set cache
                state (tag/flag columns, DCP overrides, predictor
                tables)
  host.peak_rss_kb
                volatile: process peak RSS at the heartbeat

This tool is the budget gate: for every stream it computes the
dense-equivalent footprint from the header's canonical spec
(cache_bytes / 64 lines x 9 bytes of tag+flag state, +8 for the LRU
ablation) and fails when

  * the final state_bytes exceeds ``max_state_fraction`` of the
    dense-equivalent bytes (the paged backend must actually pay only
    for touched pages), or
  * the final peak RSS exceeds ``max_peak_rss_kb`` (absolute cap on
    the whole process, catching leaks outside the state tables).

The budget lives in tests/baselines/BUDGET_gigascale.json; bumping it
is a reviewed change, like any baseline refresh (docs/PERFORMANCE.md).

Usage:
    tools/check_memory_footprint.py [--budget FILE] STREAM...
    tools/check_memory_footprint.py --self-test

Exit status: 0 when every stream fits the budget, 1 on any violation
or unusable stream.  Stdlib only.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

BUDGET_SCHEMA = "accord.footprint_budget/1"
STREAM_SCHEMA = "accord.telemetry/1"
DEFAULT_BUDGET = (Path(__file__).resolve().parent.parent
                  / "tests" / "baselines" / "BUDGET_gigascale.json")
LINE_BYTES = 64


class FootprintError(Exception):
    """One budget violation or unusable input."""


def load_budget(path):
    with open(path, encoding="utf-8") as fh:
        budget = json.load(fh)
    if budget.get("schema") != BUDGET_SCHEMA:
        raise FootprintError(
            f"{path}: not a {BUDGET_SCHEMA} document "
            f"(schema={budget.get('schema')!r})")
    fraction = budget.get("max_state_fraction")
    if not isinstance(fraction, (int, float)) or not 0 < fraction <= 1:
        raise FootprintError(
            f"{path}: max_state_fraction must be in (0, 1], "
            f"got {fraction!r}")
    return budget


def parse_stream(path):
    """Return (spec, final_record) from an accord.telemetry/1 stream.

    The final record is the last hb/end record; a truncated trailing
    line is dropped (the recorder's kill-survivability contract), but
    a stream without a header or without any sample record is
    unusable for budget checking.
    """
    lines = Path(path).read_text().splitlines()
    spec = None
    final = None
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                break
            raise FootprintError(
                f"{path}: line {number}: unparseable JSON in the "
                "middle of the stream")
        kind = record.get("t")
        if kind == "hdr":
            if record.get("schema") != STREAM_SCHEMA:
                raise FootprintError(
                    f"{path}: not a {STREAM_SCHEMA} stream")
            spec = record.get("spec", "")
        elif kind in ("hb", "end"):
            final = record
    if spec is None:
        raise FootprintError(f"{path}: no header record")
    if final is None:
        raise FootprintError(f"{path}: no heartbeat or end record")
    return spec, final


def spec_tokens(spec):
    tokens = {}
    for token in spec.split(" "):
        if "=" in token:
            key, value = token.split("=", 1)
            tokens[key] = value
    return tokens


def dense_equivalent_bytes(spec):
    """Dense-backend bytes for the spec's per-line state: 8B tag + 1B
    flags per line, +8B LRU stamps for the LRU ablation.  Mirrors
    bench_gigascale's denseEquivalentBytes()."""
    tokens = spec_tokens(spec)
    if "cache_bytes" not in tokens:
        raise FootprintError(
            f"spec carries no cache_bytes= token: {spec!r}")
    lines = int(tokens["cache_bytes"]) // LINE_BYTES
    per_line = 8 + 1
    if tokens.get("repl") == "lru":
        per_line += 8
    return lines * per_line


def check_stream(path, budget):
    """Raise FootprintError on any budget violation; return a summary
    line on success."""
    spec, final = parse_stream(path)
    if "state_bytes" not in final:
        raise FootprintError(
            f"{path}: final record has no state_bytes gauge — "
            "stream predates the storage layer, cannot validate")
    state = int(final["state_bytes"])
    dense = dense_equivalent_bytes(spec)
    fraction = state / dense if dense else 0.0
    max_fraction = budget["max_state_fraction"]
    if fraction > max_fraction:
        raise FootprintError(
            f"{path}: resident state {state} bytes is "
            f"{fraction:.1%} of the dense-equivalent {dense} bytes "
            f"(budget: {max_fraction:.0%})")

    peak_rss_kb = final.get("host", {}).get("peak_rss_kb")
    max_rss = budget.get("max_peak_rss_kb")
    if max_rss is not None and peak_rss_kb is not None \
            and peak_rss_kb > max_rss:
        raise FootprintError(
            f"{path}: peak RSS {peak_rss_kb} kB exceeds the "
            f"{max_rss} kB budget")
    return (f"{path}: state {state} B = {fraction:.2%} of dense "
            f"{dense} B (budget {max_fraction:.0%}), "
            f"peak RSS {peak_rss_kb} kB")


# --- self-test -------------------------------------------------------

GOOD_BUDGET = {"schema": BUDGET_SCHEMA, "max_state_fraction": 0.25,
               "max_peak_rss_kb": 2 * 1024 * 1024}
# 1/16 scale spec: 256MB cache -> 4M lines -> 36MB dense equivalent.
TEST_SPEC = ("workload=libq cores=2 scale=16 cache_bytes=268435456 "
             "ways=2 repl=rand seed=1")


def synth_stream(path, state_bytes, peak_rss_kb):
    header = {"t": "hdr", "schema": STREAM_SCHEMA, "units": "accesses",
              "interval": 1000, "total_units": 2000, "spec": TEST_SPEC,
              "volatile": ["wall_s", "rss_kb", "peak_rss_kb",
                           "events_per_sec", "eta_s"],
              "volatile_container": "host"}
    end = {"t": "end", "seq": 1, "phase": "end", "position": 2000,
           "cycles": 0, "reads": 2000, "read_hits": 700,
           "hit_rate": 0.35, "eq_pending": 0, "eq_executed": 0,
           "eq_occupancy_peak": 0, "eq_overflow_spills": 0,
           "pool_live": 0, "pool_block_bytes": 0,
           "state_bytes": state_bytes,
           "host": {"wall_s": 0.5, "rss_kb": peak_rss_kb,
                    "peak_rss_kb": peak_rss_kb,
                    "events_per_sec": 0.0, "eta_s": 0.0}}
    path.write_text(json.dumps(header) + "\n" + json.dumps(end) + "\n")


def self_test():
    failures = []

    def expect(name, condition):
        print(f"{'ok' if condition else 'FAIL'}   {name}")
        if not condition:
            failures.append(name)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        budget_path = tmp / "budget.json"
        budget_path.write_text(json.dumps(GOOD_BUDGET))
        budget = load_budget(budget_path)
        dense = dense_equivalent_bytes(TEST_SPEC)

        lean = tmp / "lean.jsonl"
        synth_stream(lean, int(dense * 0.05), 300_000)
        try:
            check_stream(lean, budget)
            expect("lean stream passes", True)
        except FootprintError as err:
            print(f"  unexpected: {err}")
            expect("lean stream passes", False)

        # Injected bloat: resident state way past the fraction budget
        # (a dense backend sneaking through, or a page leak).
        bloated = tmp / "bloated.jsonl"
        synth_stream(bloated, int(dense * 0.80), 300_000)
        try:
            check_stream(bloated, budget)
            expect("bloated stream rejected", False)
        except FootprintError:
            expect("bloated stream rejected", True)

        fat_rss = tmp / "fat_rss.jsonl"
        synth_stream(fat_rss, int(dense * 0.05),
                     GOOD_BUDGET["max_peak_rss_kb"] + 1)
        try:
            check_stream(fat_rss, budget)
            expect("oversized RSS rejected", False)
        except FootprintError:
            expect("oversized RSS rejected", True)

        # A pre-storage-layer stream has no state_bytes gauge; the
        # gate must refuse to silently pass it.
        legacy = tmp / "legacy.jsonl"
        synth_stream(legacy, 0, 300_000)
        text = legacy.read_text().replace('"state_bytes": 0, ', "")
        legacy.write_text(text)
        try:
            check_stream(legacy, budget)
            expect("legacy stream (no state_bytes) rejected", False)
        except FootprintError:
            expect("legacy stream (no state_bytes) rejected", True)

        bad_budget = tmp / "bad_budget.json"
        bad_budget.write_text(json.dumps(
            {"schema": BUDGET_SCHEMA, "max_state_fraction": 1.5}))
        try:
            load_budget(bad_budget)
            expect("out-of-range budget rejected", False)
        except FootprintError:
            expect("out-of-range budget rejected", True)

        if DEFAULT_BUDGET.exists():
            try:
                load_budget(DEFAULT_BUDGET)
                expect("committed budget parses", True)
            except FootprintError as err:
                print(f"  unexpected: {err}")
                expect("committed budget parses", False)

    if failures:
        print(f"check_memory_footprint: self-test FAILED "
              f"({len(failures)} case(s))")
        return 1
    print("check_memory_footprint: self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="validate gigascale telemetry streams against the "
                    "committed memory-footprint budget")
    parser.add_argument("streams", nargs="*", metavar="STREAM",
                        help="accord.telemetry/1 JSONL stream(s)")
    parser.add_argument("--budget", default=str(DEFAULT_BUDGET),
                        help="footprint budget JSON "
                             "(default: %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture checks")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.streams:
        parser.error("no telemetry streams given (or --self-test)")

    try:
        budget = load_budget(args.budget)
    except (OSError, json.JSONDecodeError, FootprintError) as err:
        print(f"check_memory_footprint: {err}")
        return 1

    status = 0
    for stream in args.streams:
        try:
            print(check_stream(stream, budget))
        except (OSError, FootprintError) as err:
            print(f"check_memory_footprint: {err}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
