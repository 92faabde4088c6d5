#include "trace/source.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "trace/bintrace.hpp"
#include "trace/generator.hpp"
#include "trace/workloads.hpp"

namespace accord::trace
{

namespace
{

/** Parse an unsigned with the CLI's k/M/G/T suffixes; fatal if bad. */
std::uint64_t
parseScaledUint(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const double base = std::strtod(text.c_str(), &end);
    std::uint64_t multiplier = 1;
    if (end != text.c_str() && *end != '\0') {
        switch (std::tolower(static_cast<unsigned char>(*end))) {
          case 'k': multiplier = 1ULL << 10; ++end; break;
          case 'm': multiplier = 1ULL << 20; ++end; break;
          case 'g': multiplier = 1ULL << 30; ++end; break;
          case 't': multiplier = 1ULL << 40; ++end; break;
          default: break;
        }
    }
    if (end == text.c_str() || *end != '\0' || base < 0)
        fatal("source spec: bad value '%s' for option '%s'",
              text.c_str(), key.c_str());
    return static_cast<std::uint64_t>(base)
        * multiplier;
}

/** Path tail after the last '/' (report-embedded file names). */
std::string
basenameOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/**
 * The synthetic workload model behind the "synthetic" registry entry:
 * a WorkloadGen stream, optionally mixed with writeback traffic,
 * optionally bounded to `limit` requests so the sampler can take two
 * passes over it.
 */
class SyntheticSource final : public TrafficSource
{
  public:
    SyntheticSource(const WorkloadGenParams &gen_params, double wb_frac,
                    unsigned lag, std::uint64_t mixer_seed,
                    bool mix_writebacks, std::uint64_t limit)
        : gen_(gen_params), limit_(limit), left_(limit)
    {
        if (mix_writebacks)
            mixer_.emplace(gen_, wb_frac, lag, mixer_seed);
    }

    Request
    next() override
    {
        ACCORD_ASSERT(!exhausted(),
                      "next() on an exhausted synthetic source");
        const Request req = mixer_ ? mixer_->next() : gen_.next();
        if (limit_ > 0)
            --left_;
        return req;
    }

    bool
    exhausted() const override
    {
        return limit_ > 0 && left_ == 0;
    }

    bool bounded() const override { return limit_ > 0; }
    std::uint64_t size() const override { return limit_; }

    bool
    rewind() override
    {
        if (mixer_)
            mixer_->rewind();
        else
            gen_.rewind();
        left_ = limit_;
        return true;
    }

    std::uint64_t
    defaultWarmQuota() const override
    {
        // Bounded streams get no automatic warmup: it would consume
        // the records the measurement phase is there to replay.
        return limit_ > 0 ? 0 : gen_.defaultWarmQuota();
    }

    std::string
    describe() const override
    {
        return (mixer_ ? mixer_->describe() : gen_.describe())
            + (limit_ > 0 ? " limit " + std::to_string(limit_) : "");
    }

  private:
    WorkloadGen gen_;
    std::optional<WritebackMixer> mixer_;
    std::uint64_t limit_;
    std::uint64_t left_;
};

void
registerSynthetic(core::NamedRegistry<SourceFactory> &registry)
{
    SourceFactory factory;
    factory.make = [](const SourceSpecParts &parts,
                      const SourceContext &ctx)
        -> std::unique_ptr<TrafficSource> {
        parts.requireKnown({"limit"});
        if (ctx.spec == nullptr)
            fatal("source=synthetic needs a workload spec");
        const WorkloadGenParams gen_params = generatorParams(
            *ctx.spec, ctx.core, ctx.numCores, ctx.scale, ctx.seed);
        return std::make_unique<SyntheticSource>(
            gen_params, ctx.spec->wbFrac, ctx.wbLag,
            mix64(ctx.seed * 977 + ctx.core), ctx.mixWritebacks,
            parts.optionUint("limit", 0));
    };
    factory.canonical = [](const SourceSpecParts &parts) {
        parts.requireKnown({"limit"});
        const std::uint64_t limit = parts.optionUint("limit", 0);
        if (limit == 0)
            return std::string("synthetic");
        return "synthetic(limit=" + std::to_string(limit) + ")";
    };
    registry.add("synthetic", std::move(factory));
}

void
registerCyclic(core::NamedRegistry<SourceFactory> &registry)
{
    SourceFactory factory;
    factory.make = [](const SourceSpecParts &parts,
                      const SourceContext &ctx)
        -> std::unique_ptr<TrafficSource> {
        parts.requireKnown({"sets", "iters"});
        return std::make_unique<CyclicPairGen>(
            parts.optionUint("sets", 1024),
            static_cast<unsigned>(parts.optionUint("iters", 100)),
            mix64(ctx.seed * 613 + ctx.core));
    };
    factory.canonical = [](const SourceSpecParts &parts) {
        parts.requireKnown({"sets", "iters"});
        return "cyclic(sets="
            + std::to_string(parts.optionUint("sets", 1024)) + ",iters="
            + std::to_string(parts.optionUint("iters", 100)) + ")";
    };
    registry.add("cyclic", std::move(factory));
}

void
registerTrace(core::NamedRegistry<SourceFactory> &registry)
{
    SourceFactory factory;
    factory.make = [](const SourceSpecParts &parts,
                      const SourceContext &ctx)
        -> std::unique_ptr<TrafficSource> {
        parts.requireKnown({"file", "loop", "stripe"});
        const std::string file = parts.option("file", "");
        if (file.empty())
            fatal("source=trace needs file=<path.trc>");
        const bool loop = parts.optionUint("loop", 0) != 0;
        const bool stripe = parts.optionUint("stripe", 1) != 0;
        return std::make_unique<TraceSource>(
            file, loop, stripe ? ctx.numCores : 1,
            stripe ? ctx.core : 0);
    };
    factory.canonical = [](const SourceSpecParts &parts) {
        parts.requireKnown({"file", "loop", "stripe"});
        // Basename only: reports must not embed host-specific paths.
        return "trace(file=" + basenameOf(parts.option("file", ""))
            + ",loop=" + std::to_string(parts.optionUint("loop", 0))
            + ",stripe="
            + std::to_string(parts.optionUint("stripe", 1)) + ")";
    };
    registry.add("trace", std::move(factory));
}

} // namespace

std::string
SourceSpecParts::option(const std::string &key,
                        const std::string &fallback) const
{
    for (const auto &[k, v] : options) {
        if (k == key)
            return v;
    }
    return fallback;
}

std::uint64_t
SourceSpecParts::optionUint(const std::string &key,
                            std::uint64_t fallback) const
{
    const std::string text = option(key, "");
    if (text.empty())
        return fallback;
    return parseScaledUint(key, text);
}

void
SourceSpecParts::requireKnown(
    const std::vector<std::string> &known) const
{
    for (const auto &[k, v] : options) {
        (void)v;
        bool found = false;
        for (const std::string &candidate : known)
            found = found || candidate == k;
        if (!found)
            fatal("source '%s': unknown option '%s'", name.c_str(),
                  k.c_str());
    }
}

SourceSpecParts
parseSourceSpec(const std::string &spec)
{
    SourceSpecParts parts;
    const auto open = spec.find('(');
    if (open == std::string::npos) {
        parts.name = spec;
    } else {
        if (spec.empty() || spec.back() != ')')
            fatal("malformed source spec '%s'", spec.c_str());
        parts.name = spec.substr(0, open);
        std::string inner =
            spec.substr(open + 1, spec.size() - open - 2);
        while (!inner.empty()) {
            const auto comma = inner.find(',');
            const std::string item = inner.substr(0, comma);
            inner = comma == std::string::npos
                ? std::string()
                : inner.substr(comma + 1);
            const auto eq = item.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("malformed source option '%s' in '%s'",
                      item.c_str(), spec.c_str());
            parts.options.emplace_back(item.substr(0, eq),
                                       item.substr(eq + 1));
        }
    }
    if (parts.name.empty())
        fatal("empty source name in spec '%s'", spec.c_str());
    return parts;
}

core::NamedRegistry<SourceFactory> &
trafficSourceRegistry()
{
    static core::NamedRegistry<SourceFactory> registry;
    return registry;
}

void
registerBuiltinTrafficSources()
{
    // Runs once; concurrent first callers wait for it to finish.
    static const bool registered = [] {
        auto &registry = trafficSourceRegistry();
        registerSynthetic(registry);
        registerCyclic(registry);
        registerTrace(registry);
        return true;
    }();
    (void)registered;
}

std::unique_ptr<TrafficSource>
makeTrafficSource(const std::string &spec, const SourceContext &ctx)
{
    registerBuiltinTrafficSources();
    const SourceSpecParts parts = parseSourceSpec(spec);
    const SourceFactory *factory =
        trafficSourceRegistry().find(parts.name);
    if (factory == nullptr)
        fatal("unknown traffic source '%s' (spec '%s')",
              parts.name.c_str(), spec.c_str());
    return factory->make(parts, ctx);
}

std::string
canonicalTrafficSpec(const std::string &spec)
{
    registerBuiltinTrafficSources();
    const SourceSpecParts parts = parseSourceSpec(spec);
    const SourceFactory *factory =
        trafficSourceRegistry().find(parts.name);
    if (factory == nullptr)
        fatal("unknown traffic source '%s' (spec '%s')",
              parts.name.c_str(), spec.c_str());
    return factory->canonical(parts);
}

} // namespace accord::trace
