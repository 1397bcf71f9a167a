/**
 * @file
 * Tests for the zcache array: candidate expansion via replacement
 * walks, relocation chains, and the residency invariants Vantage's
 * analysis depends on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "cache/zcache_array.h"
#include "common/log.h"
#include "common/rng.h"

// Allocation guard for this test binary: every operator new is
// counted while gCountAllocs is set, and any single request above
// 1 GiB is refused with bad_alloc before it reaches the allocator —
// so a geometry check that runs after the array allocates fails the
// oversized-geometry test below instead of touching tens of GB.
namespace {
std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocBytes{0};
constexpr std::size_t kRefuseAbove = std::size_t(1) << 30;

void *
guardedAlloc(std::size_t n, std::size_t align)
{
    if (gCountAllocs)
        gAllocBytes += n;
    if (n > kRefuseAbove)
        throw std::bad_alloc();
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(n ? n : 1);
    else if (::posix_memalign(&p, align, n ? n : 1) != 0)
        p = nullptr;
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t n)
{
    return guardedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return guardedAlloc(n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ubik {
namespace {

TEST(ZCacheArray, Geometry)
{
    ZCacheArray a(4096, 4, 52);
    EXPECT_EQ(a.numLines(), 4096u);
    EXPECT_EQ(a.ways(), 4u);
    EXPECT_EQ(a.associativity(), 52u);
}

TEST(ZCacheArray, InstallThenLookup)
{
    ZCacheArray a(4096, 4, 52);
    std::vector<Candidate> cands;
    a.victimCandidates(0x77, cands);
    ASSERT_FALSE(cands.empty());
    std::uint64_t slot = a.install(0x77, cands, 0);
    EXPECT_EQ(a.lookup(0x77), static_cast<std::int64_t>(slot));
}

TEST(ZCacheArray, CandidateCountNearTarget)
{
    // Walk expansion needs resident lines to relocate, so fill the
    // array first (an empty slot is a terminal candidate anyway).
    ZCacheArray a(8192, 4, 52);
    std::vector<Candidate> cands;
    for (Addr x = 0; x < 16384; x++) {
        if (a.lookup(x) >= 0)
            continue;
        a.victimCandidates(x, cands);
        a.install(x, cands, x % cands.size());
    }
    a.victimCandidates(0x40000, cands);
    // First level yields `ways` candidates; walks expand to ~52.
    EXPECT_GE(cands.size(), 40u);
    EXPECT_LE(cands.size(), 52u);
}

TEST(ZCacheArray, CandidateSlotsDistinct)
{
    ZCacheArray a(8192, 4, 52);
    std::vector<Candidate> cands;
    a.victimCandidates(0xdef, cands);
    std::set<std::uint64_t> slots;
    for (const auto &c : cands)
        slots.insert(c.slot);
    EXPECT_EQ(slots.size(), cands.size());
}

TEST(ZCacheArray, FirstLevelParentsAreRoots)
{
    ZCacheArray a(8192, 4, 52);
    std::vector<Candidate> cands;
    a.victimCandidates(0x123, cands);
    for (std::size_t i = 0; i < 4 && i < cands.size(); i++)
        EXPECT_EQ(cands[i].parent, -1);
    for (std::size_t i = 4; i < cands.size(); i++) {
        ASSERT_GE(cands[i].parent, 0);
        ASSERT_LT(static_cast<std::size_t>(cands[i].parent), i);
    }
}

/**
 * The defining zcache property: installing into a deep candidate
 * relocates lines along the chain, and every previously resident
 * line except the victim remains findable afterwards.
 */
TEST(ZCacheArray, RelocationsPreserveResidency)
{
    ZCacheArray a(1024, 4, 16, 99);
    std::vector<Candidate> cands;
    std::set<Addr> resident;
    std::uint64_t x = 777;
    for (int i = 0; i < 5000; i++) {
        x = x * 2862933555777941757ull + 3037000493ull;
        Addr addr = (x >> 16) % 4096;
        if (a.lookup(addr) >= 0)
            continue;
        a.victimCandidates(addr, cands);
        ASSERT_FALSE(cands.empty());
        // Deliberately choose the *deepest* candidate to exercise the
        // longest relocation chains.
        std::size_t victim_idx = cands.size() - 1;
        Addr victim = a.addrAt(cands[victim_idx].slot);
        a.install(addr, cands, victim_idx);
        if (victim != kInvalidAddr)
            resident.erase(victim);
        resident.insert(addr);
        // Spot-check every 97 installs to keep the test fast.
        if (i % 97 == 0) {
            for (Addr r : resident)
                ASSERT_GE(a.lookup(r), 0)
                    << "lost line after relocation chain";
        }
    }
    for (Addr r : resident)
        EXPECT_GE(a.lookup(r), 0);
}

TEST(ZCacheArray, NoDuplicateResidentAddresses)
{
    ZCacheArray a(512, 4, 16, 5);
    std::vector<Candidate> cands;
    std::uint64_t x = 31337;
    for (int i = 0; i < 3000; i++) {
        x = x * 6364136223846793005ull + 1;
        Addr addr = (x >> 24) % 600; // heavy conflict pressure
        if (a.lookup(addr) >= 0)
            continue;
        a.victimCandidates(addr, cands);
        a.install(addr, cands, x % cands.size());
    }
    std::map<Addr, int> seen;
    for (std::uint64_t s = 0; s < a.numLines(); s++)
        if (a.validAt(s))
            seen[a.addrAt(s)]++;
    for (const auto &[addr, n] : seen)
        EXPECT_EQ(n, 1) << "address " << addr << " resident twice";
}

TEST(ZCacheArray, WaySlotConsistentWithCandidates)
{
    ZCacheArray a(4096, 4, 52, 11);
    std::vector<Candidate> cands;
    a.victimCandidates(0x5555, cands);
    // First-level candidates must be the address's own way slots.
    std::set<std::uint64_t> own;
    for (std::uint32_t w = 0; w < 4; w++)
        own.insert(a.waySlot(0x5555, w));
    for (std::size_t i = 0; i < 4 && i < cands.size(); i++)
        EXPECT_TRUE(own.count(cands[i].slot));
}

TEST(ZCacheArray, FlushEmptiesEverything)
{
    ZCacheArray a(512, 4, 16);
    std::vector<Candidate> cands;
    for (Addr x = 0; x < 100; x++) {
        if (a.lookup(x) >= 0)
            continue;
        a.victimCandidates(x, cands);
        a.install(x, cands, 0);
    }
    a.flush();
    for (std::uint64_t s = 0; s < a.numLines(); s++)
        EXPECT_FALSE(a.validAt(s));
}

TEST(ZCacheArray, RefusesBadGeometryBeforeAllocating)
{
    FatalTrap trap;
    gAllocBytes = 0;
    gCountAllocs = true;
    // 2^32 lines overflow the 32-bit bank cache; the array would
    // otherwise allocate ~300 GB of tags and records first.
    EXPECT_THROW(ZCacheArray(std::uint64_t(1) << 32, 4, 52), FatalError);
    EXPECT_THROW(ZCacheArray(4097, 4, 52), FatalError); // not divisible
    EXPECT_THROW(ZCacheArray(4096, 4, 3), FatalError);  // candidates < ways
    gCountAllocs = false;
    // Only the fatal messages themselves may allocate.
    EXPECT_LT(gAllocBytes.load(), 4096u);
}

using Visits = std::vector<std::pair<std::size_t, const LineMeta *>>;

/**
 * Reference replacement walk, kept as the oracle for the array's
 * branch-light one: breadth-first, children of a node in ascending
 * way order skipping the node's own slot, duplicates rejected by an
 * open-addressed slot set cleared per walk, and children found by
 * re-hashing the resident line through the public waySlot() (so the
 * array's install-time bank cache is checked too). Records visits in
 * the order the fused visitor contract promises.
 */
void
referenceWalk(const ZCacheArray &a, Addr addr, std::vector<Candidate> &out,
              Visits &visits)
{
    constexpr std::uint32_t kEmpty = ~0u;
    const std::uint32_t cap = a.associativity();
    std::uint32_t dedup_cap = 64;
    while (dedup_cap < 4 * cap)
        dedup_cap *= 2;
    std::vector<std::uint32_t> dedup(dedup_cap, kEmpty);
    const std::uint32_t mask = dedup_cap - 1;
    out.clear();
    visits.clear();
    auto push = [&](std::uint64_t slot, std::int32_t parent) {
        std::uint32_t s32 = static_cast<std::uint32_t>(slot);
        std::uint32_t h = static_cast<std::uint32_t>(
                              slot * 0x9e3779b97f4a7c15ull >> 32) &
                          mask;
        while (dedup[h] != kEmpty) {
            if (dedup[h] == s32)
                return;
            h = (h + 1) & mask;
        }
        dedup[h] = s32;
        out.push_back({slot, parent, 0});
    };
    for (std::uint32_t w = 0; w < a.ways() && out.size() < cap; w++)
        push(a.waySlot(addr, w), -1);
    std::size_t head = 0;
    for (; head < out.size() && out.size() < cap; head++) {
        std::uint64_t own = out[head].slot;
        visits.push_back({head, &a.meta(own)});
        if (!a.validAt(own))
            continue;
        Addr resident = a.addrAt(own);
        for (std::uint32_t w = 0; w < a.ways() && out.size() < cap; w++) {
            std::uint64_t alt = a.waySlot(resident, w);
            if (alt == own)
                continue;
            push(alt, static_cast<std::int32_t>(head));
        }
    }
    for (; head < out.size(); head++)
        visits.push_back({head, &a.meta(out[head].slot)});
}

struct WalkGeometry
{
    std::uint64_t lines;
    std::uint32_t ways;
    std::uint32_t candidates;
};

void
PrintTo(const WalkGeometry &g, std::ostream *os)
{
    *os << g.lines << " lines, " << g.ways << "-way/" << g.candidates;
}

class ZCacheWalkOracle : public ::testing::TestWithParam<WalkGeometry>
{
};

/**
 * The bitmap walk must produce the reference walk's (slot, parent)
 * list and visitor (index, record) sequence after every install of a
 * random fill, with and without the lookup memo, and walking the same
 * address twice must give the same list (the visited bits are
 * cleared after each walk).
 */
TEST_P(ZCacheWalkOracle, MatchesHashSetWalk)
{
    const WalkGeometry g = GetParam();
    ZCacheArray a(g.lines, g.ways, g.candidates, 0x5eed);
    const std::uint64_t bank_lines = g.lines / g.ways;
    Rng rng(g.lines * 131 + g.ways * 7 + g.candidates);
    std::vector<Candidate> got, again, want;
    Visits got_visits, want_visits;
    const int installs = static_cast<int>(std::min<std::uint64_t>(
        4000, 3 * g.lines));
    int walks = 0;
    for (int i = 0; i < installs; i++) {
        Addr addr = rng.uniformInt(3 * g.lines);
        if (i % 2 == 0) {
            if (a.lookup(addr) >= 0)
                continue; // memoized probe slots feed the walk
        } else {
            (void)a.lookup(addr + 1); // memo for another address
        }
        got_visits.clear();
        a.victimCandidatesVisit(addr, got,
                                [&](std::size_t idx, const LineMeta &r) {
                                    got_visits.push_back({idx, &r});
                                });
        referenceWalk(a, addr, want, want_visits);
        ASSERT_EQ(got.size(), want.size()) << "walk " << walks;
        for (std::size_t k = 0; k < want.size(); k++) {
            ASSERT_EQ(got[k].slot, want[k].slot)
                << "walk " << walks << " candidate " << k;
            ASSERT_EQ(got[k].parent, want[k].parent)
                << "walk " << walks << " candidate " << k;
            ASSERT_EQ(got[k].bank, got[k].slot / bank_lines);
        }
        ASSERT_EQ(got_visits, want_visits) << "walk " << walks;

        a.victimCandidates(addr, again);
        ASSERT_EQ(again.size(), got.size()) << "walk " << walks;
        for (std::size_t k = 0; k < got.size(); k++)
            ASSERT_EQ(again[k].slot, got[k].slot) << "walk " << walks;

        if (a.lookup(addr) < 0)
            a.install(addr, got, rng.uniformInt(got.size()));
        walks++;
    }
    EXPECT_GT(walks, installs / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZCacheWalkOracle,
    ::testing::Values(WalkGeometry{64, 4, 52}, WalkGeometry{256, 4, 52},
                      WalkGeometry{3072, 4, 52}, WalkGeometry{1024, 2, 16},
                      WalkGeometry{768, 3, 24}, WalkGeometry{2048, 8, 64},
                      WalkGeometry{1024, 4, 4}));

class ZCacheStress
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(ZCacheStress, LookupAlwaysFindsLastInstall)
{
    auto [ways, cand_target] = GetParam();
    ZCacheArray a(2048, ways, cand_target, 17);
    std::vector<Candidate> cands;
    std::uint64_t x = 9001;
    for (int i = 0; i < 4000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Addr addr = x % 10000;
        if (a.lookup(addr) >= 0)
            continue;
        a.victimCandidates(addr, cands);
        std::uint64_t slot = a.install(addr, cands, x % cands.size());
        ASSERT_EQ(a.lookup(addr), static_cast<std::int64_t>(slot));
        ASSERT_EQ(a.addrAt(slot), addr);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZCacheStress,
    ::testing::Values(std::make_pair(2u, 8u), std::make_pair(4u, 16u),
                      std::make_pair(4u, 52u),
                      std::make_pair(8u, 64u)));

} // namespace
} // namespace ubik
