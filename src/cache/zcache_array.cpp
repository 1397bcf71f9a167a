#include "cache/zcache_array.h"

#include <algorithm>
#include <limits>

#include "common/log.h"

namespace ubik {

std::uint64_t
ZCacheArray::checkedGeometry(std::uint64_t num_lines, std::uint32_t ways,
                             std::uint32_t candidates)
{
    if (ways == 0 || num_lines == 0 || num_lines % ways != 0)
        fatal("ZCacheArray: %lu lines not divisible into %u ways",
              static_cast<unsigned long>(num_lines), ways);
    if (candidates < ways)
        fatal("ZCacheArray: candidates (%u) < ways (%u)", candidates, ways);
    if (num_lines >= std::numeric_limits<std::uint32_t>::max())
        fatal("ZCacheArray: %llu lines overflow the 32-bit way-slot "
              "bank cache",
              static_cast<unsigned long long>(num_lines));
    return num_lines;
}

ZCacheArray::ZCacheArray(std::uint64_t num_lines, std::uint32_t ways,
                         std::uint32_t candidates, std::uint64_t hash_salt)
    : CacheArray(checkedGeometry(num_lines, ways, candidates)),
      ways_(ways), candidates_(candidates), bankLines_(num_lines / ways),
      salt_(hash_salt)
{
    probeSlots_.assign(ways, 0);
    tagFp_.assign(num_lines, tagFingerprint(kInvalidAddr));
}

std::uint64_t *
ZCacheArray::walkBitmap(std::size_t words)
{
    static thread_local std::vector<std::uint64_t> bits;
    if (bits.size() < words)
        bits.resize(words, 0);
    return bits.data();
}

void
ZCacheArray::victimCandidates(Addr addr, std::vector<Candidate> &out) const
{
    victimCandidatesVisit(addr, out,
                          [](std::size_t, const LineMeta &) {});
}

std::uint64_t
ZCacheArray::install(Addr addr, const std::vector<Candidate> &cands,
                     std::size_t victim_idx)
{
    ubik_assert(victim_idx < cands.size());

    // Collect the path victim -> root via parent links.
    std::vector<std::size_t> &path = pathScratch_;
    path.clear();
    std::int32_t node = static_cast<std::int32_t>(victim_idx);
    while (node >= 0) {
        path.push_back(static_cast<std::size_t>(node));
        node = cands[static_cast<std::size_t>(node)].parent;
    }
    // path = [victim, ..., root]; relocate each parent's line into its
    // child's slot, freeing the root slot for the new line. Moving
    // line(parent) -> slot(child) is legal by construction: child was
    // generated as an alternative position of the line at parent. The
    // record's bank cache travels with the line.
    for (std::size_t i = 0; i + 1 < path.size(); i++) {
        std::uint64_t child_slot = cands[path[i]].slot;
        std::uint64_t parent_slot = cands[path[i + 1]].slot;
        tags_[child_slot] = tags_[parent_slot];
        tagFp_[child_slot] = tagFp_[parent_slot];
        meta_[child_slot] = meta_[parent_slot];
        tags_[parent_slot] = kInvalidAddr;
        tagFp_[parent_slot] = tagFingerprint(kInvalidAddr);
        meta_[parent_slot].clear();
    }

    std::uint64_t root_slot = cands[path.back()].slot;
    tags_[root_slot] = addr;
    tagFp_[root_slot] = tagFingerprint(addr);
    LineMeta &r = meta_[root_slot];
    r.clear();
    r.valid = 1;
    // Record the incoming line's way banks for future walks; the
    // lookup that preceded this install usually hashed them already.
    if (ways_ <= kAuxWays) {
        if (probeAddr_ == addr) {
            for (std::uint32_t w = 0; w < ways_; w++)
                r.aux[w] = static_cast<std::uint32_t>(
                    probeSlots_[w] -
                    static_cast<std::uint64_t>(w) * bankLines_);
        } else {
            for (std::uint32_t w = 0; w < ways_; w++)
                r.aux[w] = static_cast<std::uint32_t>(
                    waySlot(addr, w) -
                    static_cast<std::uint64_t>(w) * bankLines_);
        }
    }
    return root_slot;
}

void
ZCacheArray::flush()
{
    CacheArray::flush();
    std::fill(tagFp_.begin(), tagFp_.end(),
              tagFingerprint(kInvalidAddr));
}

} // namespace ubik
