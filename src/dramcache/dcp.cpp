#include "dramcache/dcp.hpp"

#include <algorithm>

namespace accord::dramcache
{

std::vector<std::pair<LineAddr, unsigned>>
DcpDirectory::entries() const
{
    std::vector<std::pair<LineAddr, unsigned>> out;
    if (tags_ != nullptr) {
        const core::CacheGeometry &geom = tags_->geometry();
        for (std::uint64_t set = 0; set < geom.sets; ++set) {
            if (!tags_->setPossiblyOccupied(set))
                continue;
            for (unsigned way = 0; way < geom.ways; ++way) {
                if (!tags_->valid(set, way))
                    continue;
                const LineAddr line = pair_mask_ != 0
                    ? tags_->tag(set, way)
                    : tags_->lineAt(set, way);
                if (!overrides_.contains(line))
                    out.emplace_back(line, derive(line));
            }
        }
    }
    for (const auto &[line, way] : overrides_) {
        if (way != kAbsent)
            out.emplace_back(line, way);
    }
    // A column-associative line held in both of its slots was listed
    // twice, with the same derived selector.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace accord::dramcache
