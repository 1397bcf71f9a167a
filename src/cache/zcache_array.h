/**
 * @file
 * ZCache array (Sanchez & Kozyrakis, MICRO-43 2010): a W-way
 * skew-associative cache whose replacement process walks the graph of
 * alternative locations to collect R >> W victim candidates, then
 * relocates lines along the chosen path so the incoming line always
 * lands in one of its own W positions.
 *
 * The paper's default LLC is a 4-way, 52-candidate zcache (Table 2).
 * Vantage's analytical guarantees rely on this many candidates; Fig 13
 * shows what happens with fewer (SA16/SA64).
 *
 * This is the hottest code in the simulator: every access probes W
 * slots and every miss walks ~52. The class is final with the probe
 * path defined inline here so the schemes' devirtualized dispatch
 * (scheme.h) inlines it; the walk touches exactly one 32-byte hot
 * record per candidate (validity and the way-bank cache live in
 * LineMeta, so neither tags nor hashing are needed to expand a
 * node); and the W way hashes of the accessed address are computed
 * once per access — lookup() memoizes its probe slots and the victim
 * walk of the same address reuses them. The memo is keyed on the
 * address and way slots are pure functions of (addr, salt), so a
 * stale entry can never yield wrong slots.
 *
 * At the scales the benchmarks and sweeps run (a few thousand lines,
 * every record resident in the host's L2) the walk is bound by
 * branches and instruction count, not memory, so its inner loop is
 * written to take no data-dependent branch per child: each candidate
 * carries its bank, so a node's children are visited in ascending
 * way order with the node's own bank skipped by index arithmetic
 * rather than a slot compare; duplicates are rejected by a
 * per-thread visited bitmap (one bit per slot, cleared after each
 * walk by revisiting the pushed slots) whose bit is folded into the
 * push count; and candidates are written into a reused buffer. The
 * candidate list and its order must equal those of the reference
 * walk in tests/cache/zcache_test.cpp (breadth-first, hash-set
 * dedup, children by re-hashing), which the tests check.
 */

#pragma once

#include <vector>

#include "cache/array.h"
#include "common/hash.h"

namespace ubik {

/** Skew-associative zcache with replacement-walk candidate expansion. */
class ZCacheArray final : public CacheArray
{
  public:
    /**
     * @param num_lines total capacity in lines (multiple of ways)
     * @param ways number of hash functions / banks (paper: 4)
     * @param candidates replacement candidates per eviction (paper: 52)
     * @param hash_salt perturbs all way hashes
     */
    ZCacheArray(std::uint64_t num_lines, std::uint32_t ways = 4,
                std::uint32_t candidates = 52, std::uint64_t hash_salt = 0);

    std::int64_t
    lookup(Addr addr) const override
    {
        const std::uint32_t *fp = tagFp_.data();
        std::uint64_t *probe = probeSlots_.data();
        const std::uint32_t f = tagFingerprint(addr);
        // Hash all ways up front so the W fingerprint loads issue in
        // parallel (they are independent; interleaving hash -> load
        // -> compare serializes them on the load latency). The probe
        // stream reads the 4-byte fingerprint array — a quarter of
        // the full tag array, so it stays L2-resident under record
        // traffic — and touches a full tag only on a fingerprint
        // match, which the full compare then confirms: the result is
        // exactly the full-tag scan's. No record lines are pulled
        // here; the walk prefetches the slots that actually become
        // candidates.
        for (std::uint32_t w = 0; w < ways_; w++) {
            probe[w] = waySlot(addr, w);
            __builtin_prefetch(&fp[probe[w]], 0, 3);
        }
        probeAddr_ = addr; // memo valid for the walk on a miss
        for (std::uint32_t w = 0; w < ways_; w++) {
            if (fp[probe[w]] == f && tags_[probe[w]] == addr)
                return static_cast<std::int64_t>(probe[w]);
        }
        // Miss: these W slots are level 0 of the replacement walk
        // that follows immediately; start their record loads now so
        // the walk's first expansions don't eat the full memory
        // latency. Issued only on the miss path — pulling W record
        // lines per *hit* measurably hurt.
        for (std::uint32_t w = 0; w < ways_; w++)
            __builtin_prefetch(&meta_[probe[w]], 0, 3);
        return -1;
    }

    void victimCandidates(Addr addr,
                          std::vector<Candidate> &out) const override;

    /**
     * victimCandidates() plus a fused per-candidate visitor:
     * visit(index, record) is called exactly once per candidate, in
     * ascending candidate order, at the first moment the walk has
     * the record in hand (expansion for walked nodes, a tail sweep
     * for the final level). Schemes fold their victim-selection
     * scans into the walk this way instead of re-traversing the
     * candidate list after it — ascending order makes every
     * first-strictly-better accumulator behave exactly as it did
     * over the separate scan. The visitor must only read.
     */
    template <typename Visit>
    void
    victimCandidatesVisit(Addr addr, std::vector<Candidate> &out,
                          Visit &&visit) const
    {
        // Breadth-first walk: level 0 is the incoming address's own W
        // positions; deeper levels are the alternative positions of
        // the lines occupying earlier candidates, and `out` itself is
        // the FIFO. The walk reads one record per candidate and
        // nothing else: validity and the ways<=4 bank cache live in
        // LineMeta.
        //
        // The loop body takes no data-dependent branch per child. A
        // child is always written to c[n] and counted only when it is
        // fresh (not yet visited) and the walk is below its cap, so
        // `out` keeps one spare entry for the uncounted write. Sizing
        // it is a no-op on the steady-state full walk.
        const std::uint32_t cap = candidates_;
        out.resize(cap + 1);
        Candidate *c = out.data();
        const LineMeta *meta = meta_.data();
        std::uint64_t *visited = walkBitmap((numLines() + 63) / 64);
        const std::uint64_t bank_lines = bankLines_;
        std::uint32_t n = 0;

        // Level 0: the W own positions lie in distinct banks, so they
        // are distinct and fit (candidates >= ways).
        auto root = [&](std::uint64_t slot, std::uint32_t w) {
            c[n++] = {slot, -1, w};
            visited[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            __builtin_prefetch(&meta[slot], 0, 3);
        };
        if (probeAddr_ == addr) {
            // The lookup that preceded this miss already hashed the
            // address's own positions; reuse them.
            for (std::uint32_t w = 0; w < ways_; w++)
                root(probeSlots_[w], w);
        } else {
            for (std::uint32_t w = 0; w < ways_; w++)
                root(waySlot(addr, w), w);
        }

        auto child = [&](std::uint64_t alt, std::uint32_t w,
                         std::uint32_t parent) {
            std::uint64_t &word = visited[alt >> 6];
            const std::uint32_t bit = alt & 63;
            const std::uint32_t fresh =
                static_cast<std::uint32_t>(~word >> bit & 1u) &
                (n < cap ? 1u : 0u);
            c[n] = {alt, static_cast<std::int32_t>(parent), w};
            word |= static_cast<std::uint64_t>(fresh) << bit;
            // The FIFO expansion reads this slot's record several
            // iterations from now; start the load while the walk
            // still has work to hide it behind.
            __builtin_prefetch(&meta[alt], 0, 3);
            n += fresh;
        };

        // A node's children are its line's other W-1 positions, in
        // ascending way order. A resident line sits at its own
        // position in its slot's bank, so w == bank is exactly the
        // alternative equal to the node itself: skipping that bank by
        // index (w = k + (k >= bank)) replaces a slot compare.
        std::uint32_t head = 0;
        // Children come from the bank cache written at install time,
        // not from re-hashing the resident line — at 52 candidates
        // that removes ~150 mix64 evaluations and ~50 tag-array
        // touches per miss.
        auto expand_cached = [&](std::uint32_t kids) {
            for (; head < n && n < cap; head++) {
                const LineMeta &r = meta[c[head].slot];
                const std::uint32_t bank = c[head].bank;
                visit(head, r);
                if (!r.valid)
                    continue; // empty slot: nothing to relocate
                for (std::uint32_t k = 0; k < kids; k++) {
                    const std::uint32_t w = k + (k >= bank ? 1u : 0u);
                    child(static_cast<std::uint64_t>(w) * bank_lines +
                              r.aux[w],
                          w, head);
                }
            }
        };
        const std::uint32_t kids = ways_ - 1;
        if (ways_ == kAuxWays) {
            // The paper's geometry: a constant child count lets the
            // compiler unroll the child loop.
            expand_cached(kAuxWays - 1);
        } else if (ways_ < kAuxWays) {
            expand_cached(kids);
        } else {
            // Wide geometries (> kAuxWays, tests only): re-hash.
            for (; head < n && n < cap; head++) {
                const std::uint64_t own = c[head].slot;
                const std::uint32_t bank = c[head].bank;
                visit(head, meta[own]);
                if (!meta[own].valid)
                    continue;
                const Addr resident = tags_[own];
                for (std::uint32_t k = 0; k < kids; k++) {
                    const std::uint32_t w = k + (k >= bank ? 1u : 0u);
                    child(waySlot(resident, w), w, head);
                }
            }
        }
        // Tail sweep: candidates the size cap kept un-expanded.
        for (; head < n; head++)
            visit(head, meta[c[head].slot]);

        // Every set bit belongs to a counted candidate, so zeroing
        // their words leaves the bitmap clear for the next walk.
        for (std::uint32_t i = 0; i < n; i++)
            visited[c[i].slot >> 6] = 0;
        out.resize(n);
    }
    std::uint64_t install(Addr addr, const std::vector<Candidate> &cands,
                          std::size_t victim_idx) override;
    std::uint32_t associativity() const override { return candidates_; }

    std::uint32_t ways() const { return ways_; }

    /** Invalidate every line, fingerprints included. */
    void flush() override;

    /** Slot index of addr in the given way (bank-local hash + offset). */
    std::uint64_t
    waySlot(Addr addr, std::uint32_t way) const
    {
        // Each way is an independent bank with its own hash (skewed
        // associativity); fold the way id into the hash input. The
        // bank index uses Lemire's multiplicative range reduction
        // instead of a modulo: this is the simulator's hottest
        // operation (4 per lookup, ~200 per replacement walk).
        std::uint64_t h = mix64(addr ^ salt_ ^
                                (0x9e3779b97f4a7c15ull * (way + 1)));
        std::uint64_t bank_idx = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(h) * bankLines_) >> 64);
        return static_cast<std::uint64_t>(way) * bankLines_ + bank_idx;
    }

  private:
    /**
     * LineMeta::aux capacity: geometries up to this many ways (the
     * paper's default is 4) cache the resident line's per-way bank
     * indices in the hot record at install time, so the replacement
     * walk expands children without re-hashing the line or touching
     * the tag array. Wider test-only geometries fall back to
     * re-hashing.
     */
    static constexpr std::uint32_t kAuxWays = 4;

    /**
     * Refuse an impossible geometry (fatal) and return num_lines.
     * Runs in the member-initializer list, ahead of the base class's
     * per-line allocations.
     */
    static std::uint64_t checkedGeometry(std::uint64_t num_lines,
                                         std::uint32_t ways,
                                         std::uint32_t candidates);

    /**
     * 32-bit fold of a tag for the probe fast path. Equal addresses
     * always have equal fingerprints, so gating the full-tag compare
     * on a fingerprint match cannot change any lookup result — a
     * rare collision just costs one extra 64-bit compare.
     */
    static std::uint32_t
    tagFingerprint(Addr addr)
    {
        return static_cast<std::uint32_t>(addr ^ (addr >> 32));
    }

    std::uint32_t ways_;
    std::uint32_t candidates_;
    std::uint64_t bankLines_;
    std::uint64_t salt_;

    /** tagFingerprint(tags_[slot]) per slot (hugepage-backed). */
    std::vector<std::uint32_t, HugePageAllocator<std::uint32_t>> tagFp_;

    /**
     * Replacement-walk dedup: the calling thread's visited bitmap,
     * grown to at least `words` 64-bit words (one bit per slot) and
     * all zero between walks — a walk sets the bits of the slots it
     * pushes and clears them after by revisiting those slots, so no
     * per-walk fill is needed. 64-bit words keep its stores from
     * aliasing the walk's other state the way byte stores would. A
     * bit test is one load, usually already in the host cache, and
     * no data-dependent probe loop.
     *
     * One bitmap per thread, shared by every array the thread walks,
     * rather than one per array: a per-array bitmap is a small heap
     * block allocated between each array's large ones, and with
     * arrays built and freed per simulated mix those small blocks
     * pinned the heap apart — a moses mix's peak RSS rose from 4.9
     * to 6.0 MB.
     */
    static std::uint64_t *walkBitmap(std::size_t words);

    /** lookup() memo: the accessed address's own way slots. */
    mutable std::vector<std::uint64_t> probeSlots_;
    mutable Addr probeAddr_ = kInvalidAddr;

    /** install() relocation-path scratch (no per-miss allocation). */
    std::vector<std::size_t> pathScratch_;
};

} // namespace ubik
