/**
 * @file
 * Vantage fine-grained partitioning (Sanchez & Kozyrakis, ISCA-38
 * 2011), the enforcement scheme Ubik builds on.
 *
 * Vantage divides the cache into a managed region (the partitions,
 * sized at line granularity) and a small unmanaged region. Evictions
 * are taken from the unmanaged region; partitions over their target
 * feed it by *demoting* lines (two-stage demotion-eviction). The
 * property Ubik's transient analysis requires (§5.1) emerges directly:
 * a partition below its target is essentially never evicted from, so
 * every miss grows it by exactly one line until it reaches the target.
 *
 * When the candidate set is small (set-associative arrays), the walk
 * sometimes finds neither an unmanaged line nor an over-target donor,
 * forcing an eviction from an at-or-under-target partition. We count
 * these: they are the mechanism behind Fig 13's SA16 degradation.
 */

#pragma once

#include "cache/scheme.h"

namespace ubik {

/** Vantage partitioning over any CacheArray. */
class Vantage : public PartitionScheme
{
  public:
    /**
     * @param array backing array (zcache for full guarantees; SA for
     *        the Fig 13 sensitivity study)
     * @param num_partitions includes the unmanaged region (PartId 0)
     * @param unmanaged_frac fraction of capacity reserved for the
     *        unmanaged region (paper uses ~5%)
     */
    Vantage(std::unique_ptr<CacheArray> array,
            std::uint32_t num_partitions, double unmanaged_frac = 0.05);

    /**
     * Targets are interpreted over the full capacity and scaled
     * internally by (1 - unmanaged_frac); callers may allocate the
     * whole cache across partitions.
     */
    void setTargetSize(PartId p, std::uint64_t lines) override;

    /** Internally scaled target actually enforced for p. */
    std::uint64_t effectiveTarget(PartId p) const { return effTargets_[p]; }

    /** Current size of the unmanaged region, lines. */
    std::uint64_t unmanagedSize() const { return actual_[0]; }

    /** Demotions performed so far. */
    std::uint64_t demotions() const { return demotions_; }

    /**
     * Evictions that removed a line from a partition at or below its
     * effective target — violations of the no-eviction-while-growing
     * guarantee.
     */
    std::uint64_t
    underTargetEvictions() const
    {
        return underTargetEvictions_;
    }

  protected:
    std::uint64_t missInstall(Addr addr, const AccessContext &ctx,
                              AccessOutcome &out) override;
    void onHit(std::uint64_t slot, const AccessContext &ctx) override;

  private:
    /**
     * One demotion round over the current candidate set and state:
     * demote the best (most over-target, then oldest) eligible line
     * into the unmanaged region.
     * @return index (into candScratch_) of the demoted candidate, or
     *         candScratch_.size() if nothing was demotable.
     */
    std::size_t demoteRound();

    /** Move a candidate's line into the unmanaged region, keeping
     *  the sizes and the per-miss excess table current. */
    void demote(LineMeta &line);

    /**
     * Walk addr's victim candidates into candScratch_ and fold each
     * one, as the walk reaches it, into per-partition accumulators:
     * afterwards oldestIdx_[p] is the first candidate of partition p
     * with the least lastTouch (kNoCandidate if p has none) and
     * oldestTouch_[p] its lastTouch. Returns the least index of an
     * empty candidate, or kNoCandidate; when one exists the tables
     * are not meaningful (empty lines have no partition) and the
     * miss installs there.
     *
     * Both selection rules of a miss — the oldest unmanaged line,
     * and the most-over-target-then-oldest demotion — are
     * lexicographic choices over (partition, lastTouch, index), so
     * they can be taken over the few per-partition winners after the
     * walk and come out exactly as a scan over all candidates would.
     * Folding per partition keeps the per-candidate work one short
     * conditional-move update, with no running (excess, touch)
     * comparison chained from one candidate to the next.
     */
    std::size_t walkOldestPerPartition(Addr addr);

    double unmanagedFrac_;
    std::uint64_t unmanagedTarget_;
    std::vector<std::uint64_t> effTargets_;

    /**
     * Per-partition excess over effective target (actual minus
     * target), tabulated at the start of each miss and updated by
     * demote(); the demotion choice and the rescans read it instead
     * of recomputing the difference per candidate.
     */
    std::vector<std::int64_t> excess_;

    /** walkOldestPerPartition() results, one entry per partition. */
    std::vector<std::uint64_t> oldestTouch_;
    std::vector<std::size_t> oldestIdx_;
    std::uint64_t demotions_ = 0;
    std::uint64_t underTargetEvictions_ = 0;
};

} // namespace ubik
