/**
 * @file
 * Policy factory used by benches, examples, and tests.
 *
 * Builds any of the paper's way-steering / way-prediction
 * configurations from a short spec string.
 */

#ifndef ACCORD_CORE_FACTORY_HPP
#define ACCORD_CORE_FACTORY_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/paged_table.hpp"
#include "core/way_policy.hpp"

namespace accord::core
{

/**
 * A name-keyed registry of factories, the generic half of the
 * registry-backed construction pattern: components (cache
 * organizations, future lookup strategies, ...) register a factory
 * under a string key, and configs select one by name — so adding a
 * variant never edits the code that constructs it.
 *
 * Deliberately ordered (std::map) so names() is deterministic, and
 * duplicate registration is fatal so two translation units cannot
 * silently fight over a name.
 */
template <typename Factory> class NamedRegistry
{
  public:
    /** Register `factory` under `name`; fatal() on a duplicate. */
    void
    add(const std::string &name, Factory factory)
    {
        const auto [it, inserted] =
            entries_.emplace(name, std::move(factory));
        (void)it;
        if (!inserted)
            fatal("registry: duplicate entry '%s'", name.c_str());
    }

    /** Factory registered under `name`, or nullptr. */
    const Factory *
    find(const std::string &name) const
    {
        const auto it = entries_.find(name);
        return it == entries_.end() ? nullptr : &it->second;
    }

    /** All registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &entry : entries_)
            out.push_back(entry.first);
        return out;
    }

  private:
    std::map<std::string, Factory> entries_;
};

/** Knobs shared by the policy constructors. */
struct PolicyOptions
{
    /** Preferred-way install probability for PWS/SWS (Section IV-B). */
    double pip = 0.85;

    /** Allowed locations per line for SWS(N,k). */
    unsigned swsK = 2;

    /** RIT/RLT entries for GWS. */
    unsigned gwsEntries = 64;

    /** Partial tag width for the partial-tag predictor. */
    unsigned partialTagBits = 4;

    /** RNG seed for the policy's private stream. */
    std::uint64_t seed = 42;

    /**
     * Table backend for the per-set predictor tables (MRU, partial
     * tags): an explicit mode forces it, nullopt resolves per table by
     * size.
     * Deliberately NOT part of toString()/fromString() — the backend
     * never changes simulation results, only the host footprint, so
     * canonical policy specs (and every committed baseline embedding
     * them) stay byte-identical across backends.
     */
    std::optional<StorageMode> storage;

    /**
     * Canonical one-line rendering, e.g.
     * "pip=0.85,k=2,gws=64,ptag=4,seed=42".  Every knob always
     * appears, in this fixed order, so equal options produce equal
     * strings and reports fully identify their configuration.
     */
    std::string toString() const;

    /**
     * Inverse of toString().  Accepts any subset of the knobs in any
     * order ("pip=0.9,seed=3"); unset knobs keep their defaults.
     * fatal() on unknown keys or malformed values.
     */
    static PolicyOptions fromString(const std::string &text);
};

/**
 * Build a policy from a spec string.
 *
 * Recognized specs: "rand", "pws", "gws", "pws+gws" (2-way ACCORD),
 * "sws", "sws+gws" (high-associativity ACCORD), "mru", "ptag",
 * "perfect".  A spec may embed options in parentheses —
 * "pws+gws(pip=0.9,gws=128)" — which override `options`.
 */
std::unique_ptr<WayPolicy>
makePolicy(const std::string &spec, const CacheGeometry &geom,
           const PolicyOptions &options = {});

/**
 * Canonical "name(options)" spec: the bare policy name plus the full
 * PolicyOptions::toString() rendering, e.g.
 * "pws+gws(pip=0.85,k=2,gws=64,ptag=4,seed=42)".  Round-trips through
 * parseSpec()/makePolicy() and is what RunReport embeds.
 */
std::string canonicalSpec(const std::string &spec,
                          const PolicyOptions &options = {});

/**
 * Split a spec into its bare name and options: "pws+gws(pip=0.9)"
 * applies pip=0.9 on top of `base`; a bare "pws+gws" returns `base`
 * unchanged.
 */
std::pair<std::string, PolicyOptions>
parseSpec(const std::string &spec, const PolicyOptions &base = {});

} // namespace accord::core

#endif // ACCORD_CORE_FACTORY_HPP
