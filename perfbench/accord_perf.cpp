/**
 * @file
 * accord_perf: one process of the repository benchmark.
 *
 * Runs one benchmark workload repeatedly for a host-time budget and
 * prints one JSON document: every repetition's spans and counts, and
 * the process's peak resident set.  run.py builds this program, starts
 * it once per benchmark run and turns its output into the reported
 * metrics; METHOD.md gives the method.
 *
 * It drives the simulator only through public entry points: sim::System
 * and the SystemMetrics it returns, trace::trafficSourceRegistry(),
 * dram::DramSystem, nvm::NvmSystem and dramcache::CacheLayout.
 *
 * Modes (mode=):
 *   untraced  end-to-end timing.  The benchmark's wrapper source only
 *             counts pulls and times windows of them.
 *   traced    alternates untraced and traced repetitions.  A traced
 *             repetition times every TrafficSource::next() and is
 *             followed by the standalone DRAM and NVM layer probes.
 *   plain     the built-in source spec with no wrapper, for the check
 *             that the wrapper leaves the simulated counts unchanged.
 *
 * Usage:
 *   accord_perf workload=<name> seed=<n> mode=<mode> dir=<scratch>
 *               [seconds=<s>]
 *
 * The replay workload records its trace into dir= and removes it.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "core/way_policy.hpp"
#include "dram/dram_system.hpp"
#include "dramcache/layout.hpp"
#include "nvm/nvm_system.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "trace/bintrace.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

using namespace accord;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::uint64_t
nanos(Clock::duration d)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/** One benchmark workload; METHOD.md says why each was chosen. */
struct Workload
{
    const char *name;
    const char *model;
    const char *config;
    /** Functional replay of a recorded accord.trace/1 file; the other
     *  workloads run a timed phase on the synthetic source. */
    bool replay;
    /** Functional warm accesses per core; 0 = the source's own
     *  default quota, as every paper bench runs it. */
    std::uint64_t warmPerCore;
    /** Timed demand reads per core; for a replay, records per core
     *  after the warm prefix (measured to exhaustion). */
    std::uint64_t measurePerCore;
};

constexpr unsigned kCores = 4;
constexpr unsigned kMlp = 8;
constexpr std::uint64_t kScale = 128;

constexpr Workload kWorkloads[] = {
    {"libq-pwsgws2-timed", "libq", "2way-pws+gws", false, 0, 150'000},
    {"mcf-swsgws8-replay", "mcf", "8way-sws+gws", true, 250'000,
     200'000},
    {"lbm-dm-timed", "lbm", "dm", false, 0, 150'000},
};

/** Pulls per sim.chunk_ns sample in the measured phase. */
constexpr std::uint64_t kChunk = 1024;

/** Pulls per throughput window, in the warm and measured phases. */
constexpr std::uint64_t kWindow = 16384;

/** Lines replayed by each layer probe. */
constexpr std::uint64_t kProbeOps = 200'000;

/** Repetitions a run makes even past its time budget. */
constexpr std::uint64_t kMinReps = 3;

/** Host time of kWindow consecutive pulls within one phase. */
struct Window
{
    std::uint64_t demands = 0;
    std::uint64_t ns = 0;
};

/**
 * Shared state of one run's wrapper sources (one per core).  Counts
 * every pull, stamps the warm/measure boundary, times each window of
 * kWindow pulls and, when traced, times every inner next().
 */
struct Tap
{
    bool timeNext = false;
    /** Pulls the warm phase makes: warm quota x cores. */
    std::uint64_t warmRequests = 0;

    std::uint64_t served = 0;
    Clock::time_point warmEnd{};
    bool warmEnded = false;

    /** Complete windows of the warm [0] and measured [1] phases. */
    std::vector<Window> windows[2];
    Window open;
    Clock::time_point windowStart{};

    // Traced runs only.
    std::uint64_t writebacks = 0;
    /** next() host ns in the warm [0] and measured [1] phases. */
    std::uint64_t nextNs[2] = {0, 0};
    Clock::time_point chunkStart{};
    std::vector<double> chunkNs;
};

/** Benchmark-owned TrafficSource: delegates to a built-in spec. */
class TapSource final : public trace::TrafficSource
{
  public:
    TapSource(std::unique_ptr<trace::TrafficSource> inner, Tap &tap)
        : inner_(std::move(inner)), tap_(tap)
    {
    }

    trace::Request
    next() override
    {
        Tap &t = tap_;
        const bool measuring = t.served >= t.warmRequests;
        const std::uint64_t in_phase =
            measuring ? t.served - t.warmRequests : t.served;
        if (in_phase % kWindow == 0) {
            const auto now = Clock::now();
            if (in_phase > 0) {
                t.open.ns = nanos(now - t.windowStart);
                t.windows[measuring].push_back(t.open);
            } else if (measuring) {
                t.warmEnd = now;
                t.warmEnded = true;
            }
            t.open = {};
            t.windowStart = now;
        }
        ++t.served;
        if (!t.timeNext) {
            trace::Request req = inner_->next();
            t.open.demands += req.kind == core::RequestKind::Demand;
            return req;
        }

        const auto t0 = Clock::now();
        trace::Request req = inner_->next();
        const auto t1 = Clock::now();
        t.nextNs[measuring] += nanos(t1 - t0);
        t.writebacks += req.kind == core::RequestKind::Writeback;
        t.open.demands += req.kind == core::RequestKind::Demand;
        if (measuring) {
            const std::uint64_t m = t.served - t.warmRequests;
            if (m == 1) {
                t.chunkStart = t0;
            } else if ((m - 1) % kChunk == 0) {
                t.chunkNs.push_back(static_cast<double>(
                    nanos(t0 - t.chunkStart)) / kChunk);
                t.chunkStart = t0;
            }
        }
        return req;
    }

    bool exhausted() const override { return inner_->exhausted(); }
    bool bounded() const override { return inner_->bounded(); }
    std::uint64_t size() const override { return inner_->size(); }
    bool rewind() override { return inner_->rewind(); }
    std::uint64_t defaultWarmQuota() const override
        { return inner_->defaultWarmQuota(); }
    std::string describe() const override
        { return "perfbench tap of " + inner_->describe(); }

  private:
    std::unique_ptr<trace::TrafficSource> inner_;
    Tap &tap_;
};

/** What the registered "perfbench_tap" source wraps, per run. */
struct TapWiring
{
    std::string innerSpec;
    Tap *tap = nullptr;
};

TapWiring &
wiring()
{
    static TapWiring w;
    return w;
}

constexpr const char *kTapSpec = "perfbench_tap";

void
registerTapSource()
{
    trace::registerBuiltinTrafficSources();
    trace::SourceFactory factory;
    factory.make = [](const trace::SourceSpecParts &parts,
                      const trace::SourceContext &ctx)
        -> std::unique_ptr<trace::TrafficSource> {
        parts.requireKnown({});
        TapWiring &w = wiring();
        if (w.tap == nullptr)
            fatal("perfbench_tap: no run is wired");
        return std::make_unique<TapSource>(
            trace::makeTrafficSource(w.innerSpec, ctx), *w.tap);
    };
    factory.canonical = [](const trace::SourceSpecParts &) {
        return "perfbench_tap(" + trace::canonicalTrafficSpec(
            wiring().innerSpec) + ")";
    };
    trace::trafficSourceRegistry().add(kTapSpec, std::move(factory));
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    fatal("unknown workload '%s'", name.c_str());
}

/** The built-in source spec a workload runs (before wrapping). */
std::string
innerSpec(const Workload &w, const std::string &trace_path)
{
    return w.replay ? "trace(file=" + trace_path + ",loop=0,stripe=1)"
                    : std::string(trace::kDefaultTrafficSpec);
}

/** Source context of one core, as sim::System builds it. */
trace::SourceContext
coreContext(const sim::SystemConfig &config, unsigned core)
{
    trace::SourceContext ctx;
    ctx.spec =
        trace::coreAssignment(config.workload, config.numCores)[core];
    ctx.core = core;
    ctx.numCores = config.numCores;
    ctx.scale = config.scale;
    ctx.seed = config.seed;
    ctx.wbLag = config.wbLag;
    return ctx;
}

sim::SystemConfig
makeConfig(const Workload &w, std::uint64_t seed,
           const std::string &source_spec)
{
    sim::SystemConfig config = sim::namedConfig(w.model, w.config);
    config.numCores = kCores;
    config.scale = kScale;
    config.mlp = kMlp;
    config.seed = seed;
    config.jobs = 1;
    // An explicit quota, so the wrapper source knows where warm ends.
    config.warmPerCore = w.warmPerCore > 0
        ? w.warmPerCore
        : trace::makeTrafficSource(source_spec, coreContext(config, 0))
              ->defaultWarmQuota();
    config.runTimed = !w.replay;
    if (w.replay) {
        // measure=0 on a bounded source runs it to exhaustion.
        config.measurePerCore = 0;
    } else {
        config.timedPerCore = w.measurePerCore;
    }
    config.trafficSpec = source_spec;
    return config;
}

/**
 * Record the replay workload's trace: the workload model of core 0
 * with writebacks mixed in, from the run's seed, sized for every
 * core's warm prefix and measured records.
 */
void
recordTrace(const Workload &w, std::uint64_t seed,
            const std::string &path)
{
    sim::SystemConfig config = makeConfig(w, seed, "synthetic");
    config.numCores = 1;
    auto source =
        trace::makeTrafficSource("synthetic", coreContext(config, 0));
    trace::BinTraceWriter writer(path);
    const std::uint64_t records =
        (w.warmPerCore + w.measurePerCore) * kCores;
    for (std::uint64_t i = 0; i < records; ++i)
        writer.append(source->next());
    writer.close();
}

/** FNV-1a over the simulated counts a speed change must not move. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
addDevice(Digest &d, const dram::DeviceStats &s)
{
    d.add(s.readsServed);
    d.add(s.writesServed);
    d.add(s.rowHits);
    d.add(s.rowConflicts);
}

std::string
digestOf(const sim::SystemMetrics &m)
{
    const dramcache::DramCacheStats &c = m.cacheStats;
    Digest d;
    d.add(c.readHits.hits());
    d.add(c.readHits.misses());
    d.add(c.wayPrediction.hits());
    d.add(c.wayPrediction.misses());
    d.add(c.cacheReadTransfers.value());
    d.add(c.cacheWriteTransfers.value());
    d.add(c.nvmReads.value());
    d.add(c.nvmWrites.value());
    d.add(c.writebacksToCache.value());
    d.add(c.writebacksToNvm.value());
    d.add(c.writebackProbeTransfers.value());
    d.add(c.dcpStaleWritebacks.value());
    d.add(static_cast<std::uint64_t>(m.coreIpc.size()));
    for (double ipc : m.coreIpc)
        d.add(ipc);
    d.add(static_cast<std::uint64_t>(m.cycles));
    addDevice(d, m.hbmStats);
    addDevice(d, m.nvmStats);
    d.add(m.eventsExecuted);
    d.add(m.accessesExecuted);
    return d.hex();
}

/** Host-time spans and counts of one repetition. */
struct Rep
{
    bool traced = false;
    double setupS = 0.0;
    double warmS = 0.0;
    double measureS = 0.0;
    std::uint64_t warmAccesses = 0;
    std::uint64_t measureReads = 0;
    sim::SystemMetrics metrics;
    Tap tap;
    std::string digest;
    /** The run's cache geometry and fitted HBM timing, for the probe. */
    core::CacheGeometry geometry;
    dram::TimingParams hbmTiming;
};

/** Build, run and tear down one System; the spans are benchmark code. */
Rep
runOnce(const Workload &w, std::uint64_t seed, const std::string &inner,
        bool wrap, bool traced)
{
    Rep rep;
    rep.traced = traced;
    rep.tap.timeNext = traced;
    const sim::SystemConfig config = makeConfig(w, seed, inner);
    rep.tap.warmRequests = config.warmPerCore * kCores;
    rep.tap.windows[0].reserve(1 << 12);
    rep.tap.windows[1].reserve(1 << 12);
    if (traced)
        rep.tap.chunkNs.reserve(1 << 14);
    wiring() = {inner, &rep.tap};
    sim::SystemConfig run_config = config;
    if (wrap)
        run_config.trafficSpec = kTapSpec;
    const auto t_setup = Clock::now();
    auto system = std::make_unique<sim::System>(run_config);
    const auto t_run = Clock::now();
    rep.metrics = system->run();
    const auto t_end = Clock::now();
    rep.geometry = system->cache().geometry();
    rep.hbmTiming = system->cache().hbm().params();
    system.reset();
    wiring() = {};

    const auto warm_end = rep.tap.warmEnded ? rep.tap.warmEnd : t_end;
    rep.setupS = seconds(t_run - t_setup);
    rep.warmS = seconds(warm_end - t_run);
    rep.measureS = seconds(t_end - warm_end);
    rep.warmAccesses = std::min(rep.tap.served, rep.tap.warmRequests);
    rep.measureReads = rep.metrics.cacheStats.readHits.total();
    rep.digest = digestOf(rep.metrics);
    return rep;
}

/** One probe request: a line and whether it is a write. */
struct ProbeOp
{
    LineAddr line;
    bool write;
};

/** The workload's own L4 stream, round-robin over the cores. */
std::vector<ProbeOp>
probeStream(const Workload &w, std::uint64_t seed,
            const std::string &inner)
{
    const sim::SystemConfig config = makeConfig(w, seed, inner);
    std::vector<std::unique_ptr<trace::TrafficSource>> sources;
    for (unsigned core = 0; core < kCores; ++core) {
        sources.push_back(
            trace::makeTrafficSource(inner, coreContext(config, core)));
    }
    std::vector<ProbeOp> ops;
    ops.reserve(kProbeOps);
    while (ops.size() < kProbeOps) {
        bool any = false;
        for (auto &source : sources) {
            if (source->exhausted() || ops.size() == kProbeOps)
                continue;
            const trace::Request req = source->next();
            ops.push_back({req.line,
                           req.kind == core::RequestKind::Writeback});
            any = true;
        }
        if (!any)
            break;
    }
    return ops;
}

struct ProbeResult
{
    double seconds = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
};

/**
 * Closed-loop replay through one device: keeps cores x mlp ops
 * outstanding and submits the next op from each completion.
 */
template <typename Submit>
ProbeResult
closedLoop(EventQueue &eq, std::size_t total, Submit submit)
{
    std::size_t next = 0;
    std::size_t done = 0;
    std::function<void()> one;
    one = [&] {
        if (next == total)
            return;
        submit(next++, [&](Cycle) {
            ++done;
            one();
        });
    };
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kCores * kMlp; ++i)
        one();
    eq.runUntil([&] { return done == total; });
    const auto t1 = Clock::now();
    if (done != total)
        fatal("layer probe stalled at %zu of %zu ops", done, total);
    return {seconds(t1 - t0), total, eq.executed()};
}

/** The HBM array of `rep`'s run, with lines placed as the cache does. */
ProbeResult
probeDram(const Rep &rep, const std::vector<ProbeOp> &ops)
{
    const core::CacheGeometry &geom = rep.geometry;
    EventQueue eq;
    dram::DramSystem hbm(rep.hbmTiming, eq);
    const dramcache::CacheLayout layout(geom, hbm.params());
    return closedLoop(eq, ops.size(), [&](std::size_t i, auto done) {
        dram::MemOp op;
        op.loc = layout.locate(core::LineRef::make(ops[i].line, geom).set);
        op.isWrite = ops[i].write;
        op.onComplete = done;
        hbm.enqueue(std::move(op));
    });
}

ProbeResult
probeNvm(const std::vector<ProbeOp> &ops)
{
    EventQueue eq;
    nvm::NvmSystem pcm(dram::pcmMainMemoryTiming(), eq);
    return closedLoop(eq, ops.size(), [&](std::size_t i, auto done) {
        if (ops[i].write)
            pcm.writeLine(ops[i].line, done);
        else
            pcm.readLine(ops[i].line, done);
    });
}

/** Peak resident set of this process in bytes (VmHWM). */
std::uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    }
    return 0;
}

/** One repetition as a JSON object (probes only on traced ones). */
void
writeRep(JsonWriter &j, const Rep &r, const ProbeResult &hbm,
         const ProbeResult &pcm, double wall_s)
{
    j.beginObject()
        .key("traced").value(r.traced)
        .key("digest").value(r.digest)
        .key("setup_s").value(r.setupS)
        .key("warm_s").value(r.warmS)
        .key("measure_s").value(r.measureS)
        .key("warm_accesses").value(r.warmAccesses)
        .key("measure_reads").value(r.measureReads)
        .key("window_pulls").value(kWindow)
        .key("cache_lines").value(r.geometry.lines())
        .key("warm_windows_ns").beginArray();
    for (const Window &win : r.tap.windows[0])
        j.value(win.ns);
    j.endArray().key("measure_windows").beginArray();
    for (const Window &win : r.tap.windows[1])
        j.beginArray().value(win.demands).value(win.ns).endArray();
    j.endArray();
    if (!r.traced) {
        j.endObject();
        return;
    }

    const Tap &t = r.tap;
    const sim::SystemMetrics &m = r.metrics;
    double ipc_sum = 0.0;
    for (double ipc : m.coreIpc)
        ipc_sum += ipc;
    j.key("requests").value(t.served)
        .key("writebacks").value(t.writebacks)
        .key("next_ns_warm").value(t.nextNs[0])
        .key("next_ns_measure").value(t.nextNs[1])
        .key("chunk_ns").beginArray();
    for (double ns : t.chunkNs)
        j.value(ns);
    j.endArray()
        .key("hit_rate").value(m.hitRate)
        .key("wp_accuracy").value(m.wpAccuracy)
        .key("transfers_per_read").value(m.transfersPerRead)
        .key("state_bytes").value(m.residentStateBytes)
        .key("events").value(m.eventsExecuted)
        .key("eq_occupancy_peak").value(m.eqOccupancyPeak)
        .key("eq_overflow_spills").value(m.eqOverflowSpills)
        .key("cycles").value(std::uint64_t{m.cycles})
        .key("ipc_mean").value(
            m.coreIpc.empty() ? 0.0 : ipc_sum / m.coreIpc.size())
        .key("dram_reads").value(m.hbmStats.readsServed)
        .key("dram_writes").value(m.hbmStats.writesServed)
        .key("dram_row_hit_rate").value(m.hbmStats.rowHitRate())
        .key("dram_read_latency_cyc").value(m.hbmStats.avgReadLatency)
        .key("nvm_reads").value(m.nvmStats.readsServed)
        .key("nvm_writes").value(m.nvmStats.writesServed)
        .key("nvm_read_latency_cyc").value(m.nvmStats.avgReadLatency)
        .key("dram_probe_s").value(hbm.seconds)
        .key("dram_probe_ops").value(hbm.ops)
        .key("dram_probe_events").value(hbm.events)
        .key("nvm_probe_s").value(pcm.seconds)
        .key("nvm_probe_ops").value(pcm.ops)
        .key("traced_wall_s").value(wall_s)
        .endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const Workload &w = findWorkload(cli.getString("workload", ""));
    const std::uint64_t seed = cli.getUint("seed", 1);
    const std::string mode = cli.getString("mode", "untraced");
    const std::string dir = cli.getString("dir", ".");
    const double budget = cli.getDouble("seconds", 10.0);
    cli.checkConsumed();
    if (mode != "untraced" && mode != "traced" && mode != "plain")
        fatal("unknown mode '%s'", mode.c_str());

    registerTapSource();
    const std::string trace_path = dir + "/" + w.name + "-"
        + std::to_string(seed) + ".trc";
    if (w.replay)
        recordTrace(w, seed, trace_path);
    const std::string inner = innerSpec(w, trace_path);

    std::vector<ProbeOp> probe_ops;
    if (mode == "traced")
        probe_ops = probeStream(w, seed, inner);

    // Start a repetition only if it should end within the budget,
    // judged by the longest one so far.
    JsonWriter out;
    out.beginObject().key("reps").beginArray();
    const auto start = Clock::now();
    double longest = 0.0;
    for (std::uint64_t i = 0;; ++i) {
        if (i >= kMinReps
            && seconds(Clock::now() - start) + longest > budget)
            break;
        const bool traced = mode == "traced" && i % 2 == 1;
        const auto t_wall = Clock::now();
        const Rep rep = runOnce(w, seed, inner, mode != "plain", traced);
        ProbeResult hbm;
        ProbeResult pcm;
        if (traced) {
            hbm = probeDram(rep, probe_ops);
            pcm = probeNvm(probe_ops);
        }
        const double wall_s = seconds(Clock::now() - t_wall);
        longest = std::max(longest, wall_s);
        writeRep(out, rep, hbm, pcm, wall_s);
    }
    if (w.replay)
        std::remove(trace_path.c_str());
    out.endArray()
        .key("peak_rss_bytes").value(peakRssBytes())
        .key("compiler").value(ACCORD_PERF_COMPILER)
        .key("build_type").value(ACCORD_PERF_BUILD_TYPE)
        .endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}
