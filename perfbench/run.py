#!/usr/bin/env python3
"""The repository benchmark: builds accord_perf and runs one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload libq-pwsgws2-timed --seed 1 \\
        --seconds 40 --trace 0

prints each metric by name with its unit and, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  A digest mismatch or an
aborted repetition makes the run fail: correct is false and the exit
code is 1.

    python3 perfbench/run.py --workload all --rounds 3 --out r.json
        runs every workload, interleaved round by round, and reports
        median, quartiles, tail percentile and n per metric.
    python3 perfbench/run.py --compare old.json new.json
        compares two --out files; differing host fingerprints report a
        host mismatch (exit 3), never a regression.
    python3 perfbench/run.py --self-test
        checks the benchmark's own checks.

METHOD.md describes the method.  Everything the benchmark builds or
writes stays under .bench_build/ in the current directory.
"""

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build")
BINARY = BUILD / "perfbench" / "accord_perf"
SCRATCH = BUILD / "scratch"

WORKLOADS = ["libq-pwsgws2-timed", "mcf-swsgws8-replay", "lbm-dm-timed"]

# Fields of the fingerprint that identify the host and toolchain.  The
# commit and source hash are recorded too but are what a comparison
# compares, so they never make a host mismatch.
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")

# Per-child limit; a run must end within 180 s of host time.
CHILD_SLACK_S = 120


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def source_tree_ok():
    return (Path("src/CMakeLists.txt").is_file()
            and Path("perfbench/CMakeLists.txt").is_file())


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = BUILD / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)


# ---------------------------------------------------------- fingerprint

@functools.lru_cache(maxsize=None)
def source_hash():
    """sha256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                h.update(str(path).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(doc):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "commit": git_commit(),
        "source_hash": source_hash(),
    }


# ----------------------------------------------------------- statistics

# Candidate tail percentiles, in tenths of a percent.
TAIL_TENTHS = (999, 990, 950, 900, 750, 500)


def summarize(values, better="lower"):
    """Median, quartiles, n, and the tail on the worse side: the
    highest percentile (lowest, for higher-is-better metrics) that
    still has at least ten samples beyond it; None below n = 20."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values),
           "q1": values[0], "q3": values[0],
           "tail_pct": None, "tail": None}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    for tenths in TAIL_TENTHS:
        if n * (1000 - tenths) >= 10 * 1000:
            if better == "higher":
                tenths = 1000 - tenths
            cuts = statistics.quantiles(values, n=1000,
                                        method="inclusive")
            out["tail_pct"] = tenths / 10
            out["tail"] = cuts[tenths - 1]
            break
    return out


# ----------------------------------------------------------------- runs

def load_digests():
    with open(HERE / "digests.json") as f:
        return json.load(f)


def expected_digest(workload, seed):
    """The committed digest for the default seed, else the one this
    source tree already produced for the seed, else None."""
    committed = load_digests()
    if seed == committed["seed"] and workload in committed["digests"]:
        return committed["digests"][workload], "committed"
    cached = BUILD / "digests" / source_hash() / f"{workload}-{seed}"
    if cached.is_file():
        return cached.read_text().strip(), "earlier run"
    return None, None


def remember_digest(workload, seed, digest):
    path = BUILD / "digests" / source_hash() / f"{workload}-{seed}"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n")


def run_child(workload, seed, mode, seconds=0):
    """Run accord_perf; returns (its JSON document or None, exit code)."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"workload={workload}", f"seed={seed}",
           f"mode={mode}", f"seconds={seconds}", f"dir={SCRATCH}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired as exc:
        log(f"accord_perf timed out: {exc}")
        return None, -1
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        return json.loads(proc.stdout), proc.returncode
    except ValueError:
        return None, proc.returncode


def judge(doc, returncode, expected):
    """Count attempted and failed repetitions.

    Every repetition's digest must equal `expected` (or, with none
    known, the first repetition's).  A child that aborted counts one
    more attempted and failed repetition."""
    reps = doc["reps"] if doc else []
    reference = expected or (reps[0]["digest"] if reps else None)
    failed = sum(1 for r in reps if r["digest"] != reference)
    attempted = len(reps)
    if returncode != 0 or doc is None:
        attempted += 1
        failed += 1
    return attempted, failed, reference


def median(values):
    return statistics.median(values) if values else 0.0


# Reported percentile of per-window throughput.  This host class
# alternates between two speed states roughly 1.4-1.7x apart for
# seconds to minutes; a median flips with the mix of states in a run, while the
# 10th percentile tracks the slower state (METHOD.md, "Steadiness").
THROUGHPUT_PCT = 10


def low_percentile(values):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[THROUGHPUT_PCT - 1]


def fill_windows(rep):
    """Leading warm windows of a repetition that fill its cold cache.

    Each pull installs at most one line, so the cache cannot be full
    before cache_lines pulls.  These windows run slower (METHOD.md,
    "Cold fill") and are left out of warm_accesses_per_s."""
    return -(-rep["cache_lines"] // rep["window_pulls"])


def window_rates(reps):
    """Per-window warm accesses/s after the cold fill, and measured
    demand reads/s."""
    warm = [r["window_pulls"] / (ns * 1e-9)
            for r in reps for ns in r["warm_windows_ns"][fill_windows(r):]]
    measure = [d / (ns * 1e-9)
               for r in reps for d, ns in r["measure_windows"]]
    return warm, measure


def end_to_end(doc):
    """(reported value, samples) of every end-to-end metric."""
    reps = [r for r in doc["reps"] if not r["traced"]]
    warm, measure = window_rates(reps)
    samples = {
        "setup_s": [r["setup_s"] for r in reps],
        "warm_accesses_per_s": warm,
        "measure_reads_per_s": measure,
        "peak_rss_mb": [doc["peak_rss_bytes"] / 2**20],
    }
    values = {
        "setup_s": median(samples["setup_s"]),
        "warm_accesses_per_s": low_percentile(warm),
        "measure_reads_per_s": low_percentile(measure),
        "peak_rss_mb": samples["peak_rss_mb"][0],
    }
    return values, samples


def per_layer(doc):
    """Per-layer metrics from a traced child's repetitions: host times
    are medians over traced repetitions, counts come from the first
    (they repeat exactly; the digest checks it)."""
    traced = [r for r in doc["reps"] if r["traced"]]
    untraced = [r for r in doc["reps"] if not r["traced"]]
    if not traced or not untraced:
        raise BenchError("traced run produced no traced/untraced pair")
    c = traced[0]
    timed = c["events"] > 0

    def med(fn):
        return median([fn(r) for r in traced])

    def functional_ns(r):
        if timed:
            return (r["warm_s"] * 1e9 - r["next_ns_warm"]) / r["warm_accesses"]
        return ((r["warm_s"] + r["measure_s"]) * 1e9 - r["next_ns_warm"]
                - r["next_ns_measure"]) / r["requests"]

    def timed_self_ns(r):
        return r["measure_s"] * 1e9 - r["next_ns_measure"]

    def residual(r):
        covered = (r["setup_s"] + r["warm_s"] + r["measure_s"]
                   + r["dram_probe_s"] + r["nvm_probe_s"])
        return 1.0 - covered / r["traced_wall_s"]

    chunks = [x for r in traced for x in r["chunk_ns"]]
    if len(chunks) < 2:
        raise BenchError("traced run measured fewer than two chunks")
    pct = statistics.quantiles(chunks, n=100, method="inclusive")
    reads_per_s = lambda reps: low_percentile(window_rates(reps)[1])
    reads = c["measure_reads"]
    return {
        "trace.next_ns": med(lambda r: (r["next_ns_warm"]
                                        + r["next_ns_measure"])
                             / r["requests"]),
        "trace.requests": c["requests"],
        "trace.writeback_frac": c["writebacks"] / c["requests"],
        "dramcache.functional_ns": med(functional_ns),
        "dramcache.hit_rate": c["hit_rate"],
        "dramcache.wp_accuracy": c["wp_accuracy"],
        "dramcache.transfers_per_read": c["transfers_per_read"],
        "dramcache.state_bytes": c["state_bytes"],
        "sim.timed_ns_per_read":
            med(lambda r: timed_self_ns(r) / reads) if timed else 0.0,
        "sim.event_ns":
            med(lambda r: timed_self_ns(r) / r["events"]) if timed else 0.0,
        "sim.events_per_read": c["events"] / reads,
        "sim.eq_occupancy_peak": c["eq_occupancy_peak"],
        "sim.eq_overflow_spills": c["eq_overflow_spills"],
        "sim.cycles": c["cycles"],
        "sim.ipc_mean": c["ipc_mean"],
        "sim.chunk_ns_p50": pct[49],
        "sim.chunk_ns_p99": pct[98],
        "sim.chunk_samples": len(chunks),
        "dram.reads": c["dram_reads"],
        "dram.writes": c["dram_writes"],
        "dram.row_hit_rate": c["dram_row_hit_rate"],
        "dram.read_latency_cyc": c["dram_read_latency_cyc"],
        "dram.probe_ns_per_op":
            med(lambda r: r["dram_probe_s"] * 1e9 / r["dram_probe_ops"]),
        "dram.probe_events_per_op":
            c["dram_probe_events"] / c["dram_probe_ops"],
        "nvm.reads": c["nvm_reads"],
        "nvm.writes": c["nvm_writes"],
        "nvm.read_latency_cyc": c["nvm_read_latency_cyc"],
        "nvm.probe_ns_per_op":
            med(lambda r: r["nvm_probe_s"] * 1e9 / r["nvm_probe_ops"]),
        "bench.trace_overhead_frac":
            1.0 - reads_per_s(traced) / reads_per_s(untraced),
        "bench.span_residual_frac": med(residual),
    }


def metric_specs():
    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def run_workload(workload, seed, seconds, trace):
    """One benchmark run: returns the contract's result (plus the
    digest), the samples behind each end-to-end metric, and the host
    fingerprint (None when the run failed)."""
    expected, origin = expected_digest(workload, seed)
    doc, code = run_child(workload, seed,
                          "traced" if trace else "untraced", seconds)
    attempted, failed, reference = judge(doc, code, expected)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    samples = {}
    if failed:
        got = sorted({r["digest"] for r in (doc or {}).get("reps", [])})
        log(f"{workload} seed {seed}: {failed} of {attempted} "
            f"repetitions failed (exit {code}; digests {got}, "
            f"expected {reference} from {origin or 'first repetition'})")
        return result, samples, None
    remember_digest(workload, seed, reference)
    e2e_specs, layer_specs = metric_specs()
    if trace:
        values = per_layer(doc)
        for spec in layer_specs:
            result["metrics"][spec["name"]] = {
                "value": values[spec["name"]], "unit": spec["unit"]}
    else:
        values, samples = end_to_end(doc)
        for spec in e2e_specs:
            result["metrics"][spec["name"]] = {
                "value": values[spec["name"]], "unit": spec["unit"]}
    result["digest"] = reference
    return result, samples, fingerprint(doc)


def print_metrics(workload, result, samples, specs):
    better = {s["name"]: s["better"] for s in specs}
    for name, m in result["metrics"].items():
        line = f"{workload:20s} {name:28s} {m['value']:.6g} {m['unit']}"
        if len(samples.get(name, [])) > 1:
            s = summarize(samples[name], better[name])
            line += (f"  (samples n={s['n']}: median {s['median']:.6g}, "
                     f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}")
            if s["tail_pct"] is not None:
                line += f", p{s['tail_pct']:g} {s['tail']:.6g}"
            line += ")"
        print(line)


def cmd_single(args):
    result, samples, fp = run_workload(args.workload, args.seed,
                                       args.seconds, args.trace)
    e2e, layers = metric_specs()
    print_metrics(args.workload, result, samples,
                  layers if args.trace else e2e)
    if fp:
        print("fingerprint " + json.dumps(fp, sort_keys=True))
    out = {k: result[k] for k in ("correct", "attempted", "failed",
                                  "metrics")}
    print(json.dumps(out))
    return 0 if result["correct"] else 1


def cmd_all(args):
    """Every workload, interleaved A, B, C, A, B, C, ... so host drift
    spreads over all of them; then one traced run each."""
    e2e, layers = metric_specs()
    runs = {w: [] for w in WORKLOADS}
    pooled = {w: {} for w in WORKLOADS}
    attempted = failed = 0
    fp = None
    for rnd in range(args.rounds):
        for w in WORKLOADS:
            log(f"round {rnd + 1}/{args.rounds}: {w}")
            result, samples, run_fp = run_workload(w, args.seed,
                                                   args.seconds, False)
            attempted += result["attempted"]
            failed += result["failed"]
            fp = fp or run_fp
            runs[w].append(result)
            for name, vals in samples.items():
                pooled[w].setdefault(name, []).extend(vals)
    traced = {}
    if args.trace:
        for w in WORKLOADS:
            log(f"traced: {w}")
            result, _, _ = run_workload(w, args.seed, args.seconds, True)
            attempted += result["attempted"]
            failed += result["failed"]
            traced[w] = result
    report = {"fingerprint": fp, "seed": args.seed,
              "seconds": args.seconds, "rounds": args.rounds,
              "workloads": {}}
    better = {s["name"]: s["better"] for s in e2e}
    for w in WORKLOADS:
        ok = [r for r in runs[w] if r["correct"]]
        counted = runs[w] + ([traced[w]] if w in traced else [])
        wl_failed = sum(r["failed"] for r in counted)
        wl_attempted = sum(r["attempted"] for r in counted)
        entry = {"failed_frac": wl_failed / max(1, wl_attempted),
                 "digests": sorted({r["digest"] for r in ok}),
                 "metrics": {}}
        for spec in e2e:
            name = spec["name"]
            per_run = [r["metrics"][name]["value"] for r in ok]
            if not per_run:
                continue
            entry["metrics"][name] = {
                "unit": spec["unit"],
                "runs": summarize(per_run, better[name]),
                "pooled": summarize(pooled[w][name], better[name]),
            }
        if w in traced:
            entry["per_layer"] = traced[w]["metrics"]
            print_metrics(w, traced[w], {}, layers)
        report["workloads"][w] = entry
        for name, m in entry["metrics"].items():
            s, p = m["runs"], m["pooled"]
            tail = (f", pooled p{p['tail_pct']:g} {p['tail']:.6g}"
                    if p["tail_pct"] is not None else "")
            print(f"{w:20s} {name:22s} {s['median']:.6g} {m['unit']}  "
                  f"(runs n={s['n']}: q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; "
                  f"pooled n={p['n']}{tail})")
        print(f"{w:20s} {'failed_frac':22s} {entry['failed_frac']:.6g} "
              f"fraction  digests {entry['digests']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------- compare

def compare(old, new, e2e_specs):
    """Compare two --workload all reports.

    Returns ("host-mismatch", [differing keys]) when the fingerprints
    name different hosts or toolchains, else ("regression", [...]) or
    ("ok", [])."""
    fo, fn = old.get("fingerprint") or {}, new.get("fingerprint") or {}
    differ = [k for k in HOST_KEYS if fo.get(k) != fn.get(k)]
    if differ:
        return "host-mismatch", [
            f"{k}: {fo.get(k)!r} vs {fn.get(k)!r}" for k in differ]
    findings = []
    for w, entry in new["workloads"].items():
        base = old["workloads"].get(w)
        if base is None:
            continue
        for spec in e2e_specs:
            name = spec["name"]
            if name not in entry["metrics"] or name not in base["metrics"]:
                continue
            a = base["metrics"][name]["runs"]["median"]
            b = entry["metrics"][name]["runs"]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            if worse > spec["bound"]:
                findings.append(f"{w} {name}: {a:.6g} -> {b:.6g} "
                                f"({worse:+.1%} worse, bound "
                                f"{spec['bound']:.0%})")
        if entry.get("digests") and base.get("digests") \
                and entry["digests"] != base["digests"] \
                and new.get("seed") == old.get("seed"):
            findings.append(f"{w}: digest {base['digests']} -> "
                            f"{entry['digests']}")
    return ("regression" if findings else "ok"), findings


def cmd_compare(args):
    old = json.loads(Path(args.compare[0]).read_text())
    new = json.loads(Path(args.compare[1]).read_text())
    status, findings = compare(old, new, metric_specs()[0])
    for f in findings:
        print(f"{status}: {f}")
    print(status)
    return {"ok": 0, "regression": 1, "host-mismatch": 3}[status]


# ----------------------------------------------------------- self-test

def self_test():
    """Checks of the benchmark's own checks; exits non-zero on failure."""
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def doc(*digests):
        return {"reps": [{"digest": d} for d in digests]}

    check(judge(doc("aa", "aa", "aa"), 0, "aa")[:2] == (3, 0),
          "matching digests: no failed repetition")
    check(judge(doc("aa", "ab", "aa"), 0, None)[:2] == (3, 1),
          "injected digest mismatch within a run counts as failed")
    check(judge(doc("aa", "aa", "aa"), 0, "ff")[:2] == (3, 3),
          "mismatch against the expected digest fails every repetition")
    check(judge(None, 134, None)[:2] == (1, 1),
          "aborted child counts as an attempted, failed repetition")

    host = {"cpu_model": "A", "nproc": 4, "compiler": "GNU 12",
            "build_type": "RelWithDebInfo", "commit": "x",
            "source_hash": "y"}
    specs = [{"name": "measure_reads_per_s", "better": "higher",
              "bound": 0.25}]

    def report(fp, value):
        return {"fingerprint": fp, "seed": 1, "workloads": {"w": {
            "digests": ["aa"], "metrics": {"measure_reads_per_s": {
                "runs": {"median": value}}}}}}

    status, _ = compare(report(host, 100.0),
                        report(dict(host, cpu_model="B"), 50.0), specs)
    check(status == "host-mismatch",
          "fingerprint mismatch takes the host-mismatch path")
    status, _ = compare(report(host, 100.0),
                        report(dict(host, commit="z"), 50.0), specs)
    check(status == "regression",
          "same host, halved throughput: regression")
    status, _ = compare(report(host, 100.0),
                        report(dict(host, commit="z"), 95.0), specs)
    check(status == "ok", "same host, within bound: ok")

    s = summarize(list(range(1, 101)))
    check(s["n"] == 100 and s["median"] == 50.5 and s["tail_pct"] == 90,
          "summary: median, n and the p90 tail for n=100")
    check(summarize([1.0] * 19)["tail_pct"] is None,
          "summary: no tail percentile below n=20")

    build()
    # End to end: a wrong digest on record for a seed fails the run.
    w, seed = WORKLOADS[-1], 999
    planted = BUILD / "digests" / source_hash() / f"{w}-{seed}"
    planted.parent.mkdir(parents=True, exist_ok=True)
    planted.write_text("0000000000000000\n")
    try:
        result, _, _ = run_workload(w, seed, 0, False)
    finally:
        planted.unlink()
    check(not result["correct"] and result["failed"] > 0,
          "injected digest mismatch fails a real run")

    # The wrapper source must leave the simulated counts unchanged.
    for w in WORKLOADS:
        digests = {}
        for mode in ("plain", "untraced", "traced"):
            out, code = run_child(w, 1, mode)
            digests[mode] = ({r["digest"] for r in out["reps"]}
                             if code == 0 and out else {"abort"})
        check(len(set().union(*digests.values())) == 1,
              f"{w}: plain spec, wrapper and traced wrapper share one "
              f"digest {sorted(set().union(*digests.values()))}")
        committed = load_digests()["digests"].get(w)
        check(digests["plain"] == {committed},
              f"{w}: seed-1 digest matches digests.json")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=3,
                    help="--workload all: interleaved rounds")
    ap.add_argument("--out", help="--workload all: write the report here")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.compare:
        return cmd_compare(args)
    if not source_tree_ok():
        log("perfbench: run from the root of a source tree "
            "(src/CMakeLists.txt and perfbench/CMakeLists.txt not found)")
        return 2
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.workload == "all":
            return cmd_all(args)
        return cmd_single(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        log(f"perfbench: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
