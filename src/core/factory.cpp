#include "core/factory.hpp"

#include <cstdlib>

#include "common/json.hpp"
#include "common/log.hpp"
#include "core/ganged.hpp"
#include "core/predictors.hpp"
#include "core/steer.hpp"

namespace accord::core
{

std::string
PolicyOptions::toString() const
{
    std::string out;
    out += "pip=" + canonicalNumber(pip);
    out += ",k=" + std::to_string(swsK);
    out += ",gws=" + std::to_string(gwsEntries);
    out += ",ptag=" + std::to_string(partialTagBits);
    out += ",seed=" + std::to_string(seed);
    return out;
}

namespace
{

/** Apply "key=value,..." onto existing options; fatal() on errors. */
void
applyOptions(PolicyOptions &options, const std::string &text)
{
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string item = text.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("bad policy option '%s' (want key=value)",
                  item.c_str());
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        char *rest = nullptr;
        if (key == "pip") {
            options.pip = std::strtod(value.c_str(), &rest);
        } else if (key == "k") {
            options.swsK = static_cast<unsigned>(
                std::strtoul(value.c_str(), &rest, 10));
        } else if (key == "gws") {
            options.gwsEntries = static_cast<unsigned>(
                std::strtoul(value.c_str(), &rest, 10));
        } else if (key == "ptag") {
            options.partialTagBits = static_cast<unsigned>(
                std::strtoul(value.c_str(), &rest, 10));
        } else if (key == "seed") {
            options.seed = std::strtoull(value.c_str(), &rest, 10);
        } else {
            fatal("unknown policy option '%s'", key.c_str());
        }
        if (value.empty() || rest == nullptr || *rest != '\0')
            fatal("bad value '%s' for policy option '%s'",
                  value.c_str(), key.c_str());
    }
}

} // namespace

PolicyOptions
PolicyOptions::fromString(const std::string &text)
{
    PolicyOptions options;
    applyOptions(options, text);
    return options;
}

std::pair<std::string, PolicyOptions>
parseSpec(const std::string &spec, const PolicyOptions &base)
{
    const std::size_t open = spec.find('(');
    if (open == std::string::npos)
        return {spec, base};
    if (spec.back() != ')' || open + 1 >= spec.size())
        fatal("bad policy spec '%s' (unbalanced parentheses)",
              spec.c_str());
    PolicyOptions options = base;
    applyOptions(options,
                 spec.substr(open + 1, spec.size() - open - 2));
    return {spec.substr(0, open), options};
}

std::string
canonicalSpec(const std::string &spec, const PolicyOptions &options)
{
    const auto [name, merged] = parseSpec(spec, options);
    return name + "(" + merged.toString() + ")";
}

std::unique_ptr<WayPolicy>
makePolicy(const std::string &full_spec, const CacheGeometry &geom,
           const PolicyOptions &base_options)
{
    const auto [spec, options] = parseSpec(full_spec, base_options);

    GangedParams ganged;
    ganged.ritEntries = options.gwsEntries;
    ganged.rltEntries = options.gwsEntries;

    if (spec == "rand")
        return std::make_unique<UnbiasedPolicy>(geom, options.seed);
    if (spec == "pws")
        return std::make_unique<PwsPolicy>(geom, options.pip,
                                           options.seed);
    if (spec == "gws") {
        auto base = std::make_unique<UnbiasedPolicy>(geom, options.seed);
        return std::make_unique<GangedPolicy>(std::move(base), ganged);
    }
    if (spec == "pws+gws") {
        auto base = std::make_unique<PwsPolicy>(geom, options.pip,
                                                options.seed);
        return std::make_unique<GangedPolicy>(std::move(base), ganged);
    }
    if (spec == "sws")
        return std::make_unique<SwsPolicy>(geom, options.swsK,
                                           options.pip, options.seed);
    if (spec == "sws+gws") {
        auto base = std::make_unique<SwsPolicy>(geom, options.swsK,
                                                options.pip, options.seed);
        return std::make_unique<GangedPolicy>(std::move(base), ganged);
    }
    if (spec == "mru")
        return std::make_unique<MruPolicy>(geom, options.seed,
                                           options.storage);
    if (spec == "ptag")
        return std::make_unique<PartialTagPolicy>(
            geom, options.partialTagBits, options.seed,
            options.storage);
    if (spec == "perfect")
        return std::make_unique<PerfectPolicy>(geom, options.seed);

    fatal("unknown way policy spec '%s'", spec.c_str());
}

} // namespace accord::core
