/**
 * @file
 * The three benchmark workloads, each driving the program through its
 * public functions and checking every op's output:
 *
 *   mix-moses   closed loop of cold MixRunner::runMix calls (moses +
 *               fts under Ubik, Vantage Z4/52, load 0.2), one thread,
 *               no result cache; set-up computes the baselines.
 *   sweep-cold  runSchemeSweep over the five paper schemes and ten
 *               seeded mixes on 2 engine workers, each op into a fresh
 *               copy of a baseline-only template cache.
 *   serve-warm  one client, closed loop of queries against an
 *               in-process ServeDaemon over its unix socket, after a
 *               cold pass that warmed the daemon's result cache.
 *
 * See perfbench/README.md for why each was chosen and what each
 * per-layer metric should move.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "sim/experiment.h"

namespace perfbench {

/** The seed whose outputs are pinned as digests (pins.h). */
constexpr std::uint64_t kDefaultSeed = 1;

/** Full: the measured configuration. Tiny: the same code paths at a
 *  toy scale, for the self-tests and for the traced run's probes of
 *  layers a workload does not itself exercise. */
enum class Size
{
    Full,
    Tiny,
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;    ///< op time to measure (serve-warm: sets its query count)
    bool traced = false;
    Size size = Size::Full;
    unsigned setupReps = 2; ///< set-ups per run; setup_s is their median
    bool corruptPins = false; ///< flip every pinned digest (gate check)
};

struct WorkloadResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; ///< first few failure reasons

    std::vector<double> setupSec; ///< one per set-up repetition
    std::vector<double> opSec;    ///< one per op, all ops
    std::vector<double> tracedOpSec;   ///< traced run: spans on
    std::vector<double> untracedOpSec; ///< traced run: spans off
    double work = 0;              ///< mixes / computed jobs / queries
    std::string workUnit;

    /** Layer calls the set-ups made (simulation, result cache). */
    std::uint64_t setupSimCalls = 0;
    std::uint64_t setupCacheCalls = 0;

    Metrics layer; ///< per-layer metrics (traced runs)
    std::vector<std::pair<std::string, std::string>> context;
    std::vector<std::pair<std::string, std::string>> digests;
};

const std::vector<std::string> &workloadNames();
bool isWorkload(const std::string &name);

/** The experiment environment a workload runs under. */
ubik::ExperimentConfig workloadConfig(const std::string &name, Size size);

/** Run one workload in the current directory, which it may fill with
 *  scratch files (caches, the daemon socket). */
WorkloadResult runWorkload(const RunOptions &opt, Tracer &tracer);

/**
 * Standalone layer probes every traced run adds: PartitionScheme
 * access replay (state hashes pinned), a fixed G/G/k QueueSim, and
 * JSON parse/dump throughput.
 */
void runLayerProbes(const RunOptions &opt, WorkloadResult &res);

} // namespace perfbench
