/**
 * @file
 * Partition scheme interface: replacement policy + partition-size
 * enforcement layered over a CacheArray.
 *
 * Schemes expose a uniform line-granularity interface (setTargetSize
 * in lines) even when the underlying enforcement is coarser
 * (way-partitioning quantizes to ways), so partitioning policies (UCP,
 * StaticLC, OnOff, Ubik) are scheme-agnostic, as in the paper (§7.3
 * evaluates Ubik over multiple schemes).
 *
 * Dispatch: the per-access path (lookup, victim walk, install) is the
 * simulator's hot loop, so it does not go through CacheArray's
 * vtable. The scheme notes the concrete array type at construction
 * and switches on it in the inline helpers below; both concrete
 * arrays are `final` with inline probe paths, so the compiler
 * resolves the calls statically and inlines the tag scans into every
 * missInstall. The virtual CacheArray interface remains for tests and
 * cold paths.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/array.h"
#include "cache/set_assoc_array.h"
#include "cache/zcache_array.h"
#include "common/types.h"

namespace ubik {

/**
 * `c ? a : b` through a mask instead of a branch. Victim selection
 * folds ~52 candidates per miss, and which one wins is data the host
 * cannot predict; written as plain ternaries, GCC emits branches.
 */
template <typename T>
inline T
pick(bool c, T a, T b)
{
    const T m = static_cast<T>(0) - static_cast<T>(c);
    return (a & m) | (b & ~m);
}

/** Per-access inputs from the accessing core. */
struct AccessContext
{
    /** Partition the access belongs to (1-based; 0 is unmanaged). */
    PartId part = 0;

    /** Accessing app/core. */
    AppId app = 0;

    /** The app's current request id (0 outside any request / batch). */
    ReqId reqId = 0;
};

/** Per-access results for the caller's timing model and statistics. */
struct AccessOutcome
{
    bool hit = false;

    /**
     * A line was evicted from a partition that was at or under its
     * target size (Vantage guarantee violation; frequent under SA16,
     * negligible under Z4/52 — the Fig 13 effect).
     */
    bool forcedEviction = false;

    /** On a hit: the line's lastReqId before this access. */
    ReqId hitPrevReqId = 0;

    /** On a hit: the line's owner before this access. */
    AppId hitPrevOwner = 0;

    /** On a miss with eviction: the displaced line's address. */
    Addr victimAddr = kInvalidAddr;

    /** On a miss with eviction: the displaced line's partition. */
    PartId victimPart = 0;
};

/** Abstract partitioned replacement scheme over a cache array. */
class PartitionScheme
{
  public:
    PartitionScheme(std::unique_ptr<CacheArray> array,
                    std::uint32_t num_partitions);
    virtual ~PartitionScheme() = default;

    /** Perform one access; on a miss, the line is always allocated. */
    AccessOutcome access(Addr addr, const AccessContext &ctx);

    /** Set a partition's target size, in lines. Takes effect lazily. */
    virtual void setTargetSize(PartId p, std::uint64_t lines);

    std::uint64_t targetSize(PartId p) const { return targets_.at(p); }

    /** Lines currently held by partition p. */
    std::uint64_t actualSize(PartId p) const { return actual_.at(p); }

    /** Lines currently owned (inserted/last touched) by app a. */
    std::uint64_t ownerLines(AppId a) const { return ownerCount_.at(a); }

    std::uint32_t numPartitions() const { return numParts_; }
    CacheArray &array() { return *array_; }
    const CacheArray &array() const { return *array_; }

    std::uint64_t accesses(PartId p) const { return accCount_.at(p); }
    std::uint64_t misses(PartId p) const { return missCount_.at(p); }
    std::uint64_t forcedEvictions() const { return forcedEvictions_; }

    /** Drop all cached lines and reset statistics. */
    void reset();

  protected:
    /**
     * Handle a miss: choose a victim among the array's candidates,
     * perform scheme-specific bookkeeping (demotions etc.), install
     * the line, and fill the outcome's eviction fields.
     * @return slot where the new line was installed
     */
    virtual std::uint64_t missInstall(Addr addr, const AccessContext &ctx,
                                      AccessOutcome &out) = 0;

    /** Scheme-specific hit bookkeeping (e.g., Vantage promotion). */
    virtual void onHit(std::uint64_t slot, const AccessContext &ctx);

    /** Shared victim bookkeeping: sizes, counters, outcome fields.
     *  Reads the victim's tag + metadata still resident in `slot`. */
    void noteEviction(std::uint64_t slot, AccessOutcome &out);

    /** Shared install bookkeeping for the newly resident line. */
    void noteInstall(std::uint64_t slot, const AccessContext &ctx);

    // --- Devirtualized array dispatch (the per-access hot path) ----

    /** Concrete type of array_, noted once at construction. */
    enum class ArrayImpl : std::uint8_t
    {
        Generic, ///< unknown subclass: fall back to the vtable
        SetAssoc,
        ZCache,
    };

    std::int64_t
    arrayLookup(Addr addr) const
    {
        switch (impl_) {
          case ArrayImpl::SetAssoc:
            return saImpl_->lookup(addr);
          case ArrayImpl::ZCache:
            return zcImpl_->lookup(addr);
          default:
            return array_->lookup(addr);
        }
    }

    void
    arrayVictims(Addr addr, std::vector<Candidate> &out) const
    {
        switch (impl_) {
          case ArrayImpl::SetAssoc:
            saImpl_->victimCandidates(addr, out);
            return;
          case ArrayImpl::ZCache:
            zcImpl_->victimCandidates(addr, out);
            return;
          default:
            array_->victimCandidates(addr, out);
            return;
        }
    }

    /**
     * Victim walk with the scheme's selection scan fused in:
     * visit(index, record) fires once per candidate in ascending
     * order, while the walk still has the record in hand (zcache) or
     * over the freshly filled candidate list (other arrays). The
     * visitor must only read array state.
     */
    template <typename Visit>
    void
    arrayVictimsVisit(Addr addr, std::vector<Candidate> &out,
                      Visit &&visit) const
    {
        if (impl_ == ArrayImpl::ZCache) {
            zcImpl_->victimCandidatesVisit(addr, out,
                                           std::forward<Visit>(visit));
            return;
        }
        arrayVictims(addr, out);
        const LineMeta *meta = array_->metaData();
        for (std::size_t i = 0; i < out.size(); i++)
            visit(i, meta[out[i].slot]);
    }

    /** "No such candidate" in the schemes' victim-selection scans. */
    static constexpr std::size_t kNoCandidate = ~std::size_t(0);

    std::uint64_t
    arrayInstall(Addr addr, const std::vector<Candidate> &cands,
                 std::size_t victim_idx)
    {
        switch (impl_) {
          case ArrayImpl::SetAssoc:
            return saImpl_->install(addr, cands, victim_idx);
          case ArrayImpl::ZCache:
            return zcImpl_->install(addr, cands, victim_idx);
          default:
            return array_->install(addr, cands, victim_idx);
        }
    }

    std::unique_ptr<CacheArray> array_;
    ArrayImpl impl_ = ArrayImpl::Generic;
    SetAssocArray *saImpl_ = nullptr; ///< set iff impl_ == SetAssoc
    ZCacheArray *zcImpl_ = nullptr;   ///< set iff impl_ == ZCache

    std::uint32_t numParts_;
    std::uint64_t now_ = 0; ///< global access counter (LRU clock)
    std::vector<std::uint64_t> targets_;
    std::vector<std::uint64_t> actual_;
    std::vector<std::uint64_t> ownerCount_;
    std::vector<std::uint64_t> accCount_;
    std::vector<std::uint64_t> missCount_;
    std::uint64_t forcedEvictions_ = 0;
    std::vector<Candidate> candScratch_; ///< reused across misses
};

/**
 * Unpartitioned shared cache: global LRU over the candidate set.
 * This is the paper's "LRU" baseline scheme.
 */
class SharedLru : public PartitionScheme
{
  public:
    SharedLru(std::unique_ptr<CacheArray> array,
              std::uint32_t num_partitions);

  protected:
    std::uint64_t missInstall(Addr addr, const AccessContext &ctx,
                              AccessOutcome &out) override;
};

} // namespace ubik
