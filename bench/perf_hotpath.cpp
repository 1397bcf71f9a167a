/**
 * @file
 * Hot-path throughput harness: raw simulated-LLC accesses/sec.
 *
 * Unlike the figure benches, this does not run the CMP event loop:
 * it drives PartitionScheme::access directly with a fixed-seed
 * synthetic address stream, so the number it reports is the per-access
 * simulation speed that bounds every sweep (the zcache walk, the
 * victim scans, the UMON probes). One row per scheme/array
 * configuration (Z4/52, SA16, SA64, way-partitioning) plus the UMON
 * front-end, written to BENCH_hotpath.json so CI can track the
 * throughput trajectory across PRs.
 *
 * The stream, seeds, and salts are fixed: the reported state_hash
 * (tags + metadata + counters after the run) must be identical across
 * hosts and across refactors of the access engine — only the
 * accesses/sec may change. `--expect label=hash` turns that into a
 * check (exit 1 on a mismatch); the ctest suite pins every config's
 * hash that way at two small geometries. `--trials N` repeats each
 * configuration on a fresh scheme and reports the median, minimum
 * and interquartile range of accesses/sec; a state hash that differs
 * between trials is an error. `UBIK_JOBS` / `UBIK_CACHE_DIR` do not
 * apply here (no sweep, no cacheable results); they compose with the
 * sweep benches this harness exists to speed up.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/scheme.h"
#include "cache/set_assoc_array.h"
#include "cache/vantage.h"
#include "cache/way_partitioning.h"
#include "cache/zcache_array.h"
#include "common/cli.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "mon/umon.h"
#include "sim/cmp.h"

namespace {

using namespace ubik;

constexpr std::uint32_t kApps = 6;

/** One measured configuration (one trial, or the trials' summary). */
struct Row
{
    std::string label;
    double elapsedSec = 0;
    double accPerSec = 0;    ///< median over trials
    double accPerSecMin = 0; ///< slowest trial
    double accPerSecIqr = 0; ///< interquartile range over trials
    double hitRate = 0;
    std::uint64_t stateHash = 0;
};

/** Linear-interpolated quantile of an ascending-sorted sample. */
double
quantile(const std::vector<double> &sorted, double q)
{
    double pos = q * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
}

/**
 * Run one configuration `trials` times and summarize: median elapsed
 * and accesses/sec, min and IQR of accesses/sec. Every trial must
 * reach the same state hash (the engine is deterministic); a
 * difference is fatal.
 */
template <typename RunOnce>
Row
runTrials(std::int64_t trials, RunOnce &&run_once)
{
    std::vector<double> rates, elapsed;
    Row first;
    for (std::int64_t t = 0; t < trials; t++) {
        Row r = run_once();
        if (t == 0)
            first = r;
        else if (r.stateHash != first.stateHash)
            fatal("%s: state hash %016" PRIx64 " in trial %lld differs "
                  "from trial 0's %016" PRIx64,
                  r.label.c_str(), r.stateHash,
                  static_cast<long long>(t), first.stateHash);
        rates.push_back(r.accPerSec);
        elapsed.push_back(r.elapsedSec);
    }
    std::sort(rates.begin(), rates.end());
    std::sort(elapsed.begin(), elapsed.end());
    first.accPerSec = quantile(rates, 0.5);
    first.accPerSecMin = rates.front();
    first.accPerSecIqr = quantile(rates, 0.75) - quantile(rates, 0.25);
    first.elapsedSec = quantile(elapsed, 0.5);
    return first;
}

/**
 * Deterministic address stream: apps round-robin, each app uniform
 * over its own working set. Working sets range from half a fair share
 * to 3x so the blend covers cache-resident apps (hit-dominated
 * lookups) and thrashing apps (miss walks + evictions), like a mix.
 */
std::vector<Addr>
buildStream(std::uint64_t n, std::uint64_t llc_lines, std::uint64_t seed)
{
    const double wsFactor[kApps] = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
    std::uint64_t share = llc_lines / kApps;
    Rng rng(seed);
    std::vector<Addr> stream;
    stream.reserve(n);
    for (std::uint64_t i = 0; i < n; i++) {
        std::uint32_t a = static_cast<std::uint32_t>(i % kApps);
        std::uint64_t ws = std::max<std::uint64_t>(
            64, static_cast<std::uint64_t>(
                    wsFactor[a] * static_cast<double>(share)));
        Addr base = static_cast<Addr>(a + 1) << 40;
        stream.push_back(base + rng.uniformInt(ws));
    }
    return stream;
}

std::unique_ptr<PartitionScheme>
buildScheme(SchemeKind scheme, ArrayKind array, std::uint64_t llc_lines,
            std::uint64_t salt)
{
    auto make_array = [&]() -> std::unique_ptr<CacheArray> {
        switch (array) {
          case ArrayKind::Z4_52:
            return std::make_unique<ZCacheArray>(llc_lines - llc_lines % 4,
                                                 4, 52, salt);
          case ArrayKind::SA16:
            return std::make_unique<SetAssocArray>(
                llc_lines - llc_lines % 16, 16, salt);
          case ArrayKind::SA64:
            return std::make_unique<SetAssocArray>(
                llc_lines - llc_lines % 64, 64, salt);
        }
        panic("bad ArrayKind");
    };

    std::uint32_t nparts = kApps + 1;
    switch (scheme) {
      case SchemeKind::SharedLru:
        return std::make_unique<SharedLru>(make_array(), nparts);
      case SchemeKind::Vantage:
        return std::make_unique<Vantage>(make_array(), nparts);
      case SchemeKind::WayPart: {
        std::uint32_t ways = array == ArrayKind::SA16 ? 16 : 64;
        return std::make_unique<WayPartitioning>(
            std::make_unique<SetAssocArray>(llc_lines - llc_lines % ways,
                                            ways, salt),
            nparts);
      }
    }
    panic("bad SchemeKind");
}

/** Post-run digest: resident lines + counters, order-sensitive. */
std::uint64_t
schemeStateHash(const PartitionScheme &s)
{
    std::uint64_t h = kFnvOffsetBasis;
    const CacheArray &a = s.array();
    for (std::uint64_t slot = 0; slot < a.numLines(); slot++) {
        if (!a.validAt(slot))
            continue;
        const LineMeta &m = a.meta(slot);
        h = fnv1a64(h, slot);
        h = fnv1a64(h, a.addrAt(slot));
        h = fnv1a64(h, m.part);
        h = fnv1a64(h, m.owner);
        h = fnv1a64(h, m.lastTouch);
        h = fnv1a64(h, m.lastReqId);
    }
    for (PartId p = 0; p < s.numPartitions(); p++) {
        h = fnv1a64(h, s.accesses(p));
        h = fnv1a64(h, s.misses(p));
        h = fnv1a64(h, s.actualSize(p));
    }
    h = fnv1a64(h, s.forcedEvictions());
    return h;
}

Row
runScheme(const char *label, SchemeKind scheme, ArrayKind array,
          const std::vector<Addr> &warm, const std::vector<Addr> &roi,
          std::uint64_t llc_lines)
{
    auto s = buildScheme(scheme, array, llc_lines, /*salt=*/12345);

    // Fair static split (Vantage cannot size the unmanaged region 0).
    std::uint64_t share = s->array().numLines() / kApps;
    for (std::uint32_t a = 0; a < kApps; a++)
        s->setTargetSize(a + 1, share);

    AccessContext ctx;
    auto drive = [&](const std::vector<Addr> &stream) -> std::uint64_t {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < stream.size(); i++) {
            std::uint32_t a = static_cast<std::uint32_t>(i % kApps);
            ctx.part = a + 1;
            ctx.app = a;
            ctx.reqId = static_cast<ReqId>(i / kApps);
            hits += s->access(stream[i], ctx).hit ? 1 : 0;
        }
        return hits;
    };

    drive(warm);
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t hits = drive(roi);
    auto t1 = std::chrono::steady_clock::now();

    Row r;
    r.label = label;
    r.elapsedSec = std::chrono::duration<double>(t1 - t0).count();
    r.accPerSec = r.elapsedSec > 0
                      ? static_cast<double>(roi.size()) / r.elapsedSec
                      : 0;
    r.hitRate = roi.empty()
                    ? 0
                    : static_cast<double>(hits) /
                          static_cast<double>(roi.size());
    r.stateHash = schemeStateHash(*s);
    return r;
}

Row
runUmon(const std::vector<Addr> &warm, const std::vector<Addr> &roi,
        std::uint64_t llc_lines)
{
    Umon umon(llc_lines, 32, 8, /*salt=*/0xabcdu);
    std::uint64_t sampled = 0;
    for (Addr a : warm)
        sampled += umon.access(a).sampled ? 1 : 0;
    auto t0 = std::chrono::steady_clock::now();
    for (Addr a : roi)
        sampled += umon.access(a).sampled ? 1 : 0;
    auto t1 = std::chrono::steady_clock::now();

    Row r;
    r.label = "umon/32x8";
    r.elapsedSec = std::chrono::duration<double>(t1 - t0).count();
    r.accPerSec = r.elapsedSec > 0
                      ? static_cast<double>(roi.size()) / r.elapsedSec
                      : 0;
    r.hitRate = (warm.size() + roi.size()) > 0
                    ? static_cast<double>(sampled) /
                          static_cast<double>(warm.size() + roi.size())
                    : 0;
    std::uint64_t h = fnv1a64(kFnvOffsetBasis, sampled);
    MissCurve curve = umon.missCurve();
    for (std::size_t i = 0; i < curve.points(); i++) {
        double v = curve.values()[i];
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "width");
        __builtin_memcpy(&bits, &v, sizeof(bits));
        h = fnv1a64(h, bits);
    }
    r.stateHash = h;
    return r;
}

void
writeJson(const std::string &path, const std::vector<Row> &rows,
          std::uint64_t accesses, std::uint64_t llc_lines,
          std::uint64_t seed, std::int64_t trials)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n  \"benchmark\": \"hotpath\",\n");
    std::fprintf(f, "  \"accesses\": %" PRIu64 ",\n", accesses);
    std::fprintf(f, "  \"llc_lines\": %" PRIu64 ",\n", llc_lines);
    std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", seed);
    std::fprintf(f, "  \"trials\": %lld,\n",
                 static_cast<long long>(trials));
    std::fprintf(f, "  \"configs\": [\n");
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"accesses_per_sec\": "
                     "%.1f, \"min_accesses_per_sec\": %.1f, "
                     "\"iqr_accesses_per_sec\": %.1f, "
                     "\"elapsed_sec\": %.6f, \"hit_rate\": %.6f, "
                     "\"state_hash\": \"%016" PRIx64 "\"}%s\n",
                     r.label.c_str(), r.accPerSec, r.accPerSecMin,
                     r.accPerSecIqr, r.elapsedSec, r.hitRate, r.stateHash,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("perf_hotpath",
            "Measure simulated-LLC accesses/sec per scheme (fixed-seed "
            "throughput harness; writes BENCH_hotpath.json)");
    auto &accesses =
        cli.flag("accesses", static_cast<std::int64_t>(2000000),
                 "timed accesses per configuration");
    auto &llcLines =
        cli.flag("llc-lines", static_cast<std::int64_t>(196608),
                 "LLC capacity in lines (paper scale: 196608 = 12MB)");
    auto &seed = cli.flag("seed", static_cast<std::int64_t>(1),
                          "address-stream seed");
    auto &out = cli.flag("out", "BENCH_hotpath.json",
                         "output JSON path");
    auto &trials = cli.flag("trials", static_cast<std::int64_t>(1),
                            "timed runs per configuration (median, "
                            "min and IQR reported)");
    auto &expect = cli.multiFlag(
        "expect", "label=hash: exit 1 unless that config's state hash "
                  "matches (repeatable)");
    cli.parse(argc, argv);

    if (accesses.value <= 0 || llcLines.value < 256)
        fatal("need --accesses > 0 and --llc-lines >= 256");
    if (trials.value < 1 || trials.value > 1000)
        fatal("need 1 <= --trials <= 1000");
    std::uint64_t n = static_cast<std::uint64_t>(accesses.value);
    std::uint64_t lines = static_cast<std::uint64_t>(llcLines.value);

    // One warmup pass fills the arrays to steady state before timing;
    // one shared ROI stream keeps every configuration comparable.
    std::uint64_t warmN = std::min<std::uint64_t>(2 * lines, n * 4);
    std::vector<Addr> stream = buildStream(
        warmN + n, lines, static_cast<std::uint64_t>(seed.value));
    std::vector<Addr> warm(stream.begin(), stream.begin() + warmN);
    std::vector<Addr> roi(stream.begin() + warmN, stream.end());

    struct Config
    {
        const char *label;
        SchemeKind scheme;
        ArrayKind array;
    };
    const std::vector<Config> configs = {
        {"lru/z4-52", SchemeKind::SharedLru, ArrayKind::Z4_52},
        {"vantage/z4-52", SchemeKind::Vantage, ArrayKind::Z4_52},
        {"vantage/sa16", SchemeKind::Vantage, ArrayKind::SA16},
        {"vantage/sa64", SchemeKind::Vantage, ArrayKind::SA64},
        {"waypart/sa16", SchemeKind::WayPart, ArrayKind::SA16},
    };

    std::printf("# perf_hotpath: %" PRIu64 " timed accesses, %" PRIu64
                " warmup, %" PRIu64 " LLC lines, %lld trial(s)\n",
                n, warmN, lines, static_cast<long long>(trials.value));
    std::printf("%-16s %14s %14s %12s %9s %18s\n", "config",
                "median acc/s", "min acc/s", "IQR acc/s", "hit rate",
                "state hash");
    auto print = [](const Row &r) {
        std::printf("%-16s %14.0f %14.0f %12.0f %9.4f   %016" PRIx64 "\n",
                    r.label.c_str(), r.accPerSec, r.accPerSecMin,
                    r.accPerSecIqr, r.hitRate, r.stateHash);
    };

    std::vector<Row> rows;
    for (const Config &c : configs) {
        rows.push_back(runTrials(trials.value, [&] {
            return runScheme(c.label, c.scheme, c.array, warm, roi, lines);
        }));
        print(rows.back());
    }
    rows.push_back(
        runTrials(trials.value, [&] { return runUmon(warm, roi, lines); }));
    print(rows.back());

    writeJson(out.value, rows, n, lines,
              static_cast<std::uint64_t>(seed.value), trials.value);
    std::printf("# wrote %s\n", out.value.c_str());

    int mismatches = 0;
    for (const std::string &e : expect.value) {
        std::size_t eq = e.find('=');
        if (eq == std::string::npos)
            fatal("--expect wants label=hash, got '%s'", e.c_str());
        std::string label = e.substr(0, eq);
        std::string want = e.substr(eq + 1);
        auto it = std::find_if(rows.begin(), rows.end(), [&](const Row &r) {
            return r.label == label;
        });
        if (it == rows.end())
            fatal("--expect: no config named '%s'", label.c_str());
        char got[17];
        std::snprintf(got, sizeof(got), "%016" PRIx64, it->stateHash);
        if (want != got) {
            std::fprintf(stderr, "state hash mismatch: %s is %s, expected %s\n",
                         label.c_str(), got, want.c_str());
            mismatches++;
        }
    }
    return mismatches == 0 ? 0 : 1;
}
