/**
 * @file
 * The benchmark's own tests, at the tiny size: every workload's
 * set-up must really call into the simulator or the result cache (a
 * set-up that times nothing makes setup_s meaningless), every op must
 * pass the correctness gate, and the gate must fire on a wrong pin.
 *
 * Run with `python3 perfbench/run.py --self-test`.
 */

#include <filesystem>
#include <gtest/gtest.h>

#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/** Runs each test in a fresh scratch directory. */
class PerfbenchTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        home_ = fs::current_path();
        dir_ = home_ / "selftest-work";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        fs::current_path(dir_);
    }
    void TearDown() override
    {
        fs::current_path(home_);
        fs::remove_all(dir_);
    }

    static RunOptions tiny(const std::string &workload)
    {
        RunOptions o;
        o.workload = workload;
        o.size = Size::Tiny;
        o.seconds = 0.01;
        o.setupReps = 1;
        return o;
    }

    fs::path home_, dir_;
};

TEST_F(PerfbenchTest, SetupDoesRealWorkAndOpsPass)
{
    for (const std::string &w : workloadNames()) {
        SCOPED_TRACE(w);
        Tracer tr;
        WorkloadResult r = runWorkload(tiny(w), tr);
        ASSERT_EQ(r.setupSec.size(), 1u);
        EXPECT_GT(r.setupSec[0], 0.0);
        EXPECT_GT(r.setupSimCalls + r.setupCacheCalls, 0u)
            << "set-up made no simulation or result-cache call";
        EXPECT_GT(r.attempted, 0u);
        EXPECT_EQ(r.failed, 0u) << (r.problems.empty() ? ""
                                                       : r.problems[0]);
    }
}

TEST_F(PerfbenchTest, RepeatsAgreeOnAnotherSeed)
{
    // No pins off the default seed: two runs must agree bit for bit.
    RunOptions o = tiny("mix-moses");
    o.seed = 7;
    Tracer t1, t2;
    WorkloadResult a = runWorkload(o, t1);
    WorkloadResult b = runWorkload(o, t2);
    EXPECT_EQ(a.failed + b.failed, 0u);
    ASSERT_FALSE(a.digests.empty());
    EXPECT_EQ(a.digests, b.digests);
}

TEST_F(PerfbenchTest, GateFiresOnWrongPin)
{
    for (const std::string &w : workloadNames()) {
        SCOPED_TRACE(w);
        RunOptions o = tiny(w);
        o.corruptPins = true;
        Tracer tr;
        WorkloadResult r = runWorkload(o, tr);
        EXPECT_GT(r.failed, 0u);
    }
}

TEST_F(PerfbenchTest, TracedRunReportsLayerMetrics)
{
    RunOptions o = tiny("sweep-cold");
    o.traced = true;
    Tracer tr(true);
    WorkloadResult r = runWorkload(o, tr);
    runLayerProbes(o, r);
    EXPECT_EQ(r.failed, 0u);
    for (const char *m :
         {"sim.sweep.wall_s", "sim.mix_runner.run_mix_s.moses",
          "sim.mix_runner.run_mix_s.Ubik", "sim.result_cache.store_us",
          "cache.vantage_z4_52.accesses_per_s",
          "queueing.queue_sim.requests_per_s",
          "common.json.parse_mb_per_s"})
        EXPECT_TRUE(r.layer.has(m)) << m;
    EXPECT_GT(tr.spanCount(), 0u);
}

} // namespace
} // namespace perfbench
