#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "cache/scheme.h"
#include "cache/vantage.h"
#include "cache/zcache_array.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "fleet/fleet_model.h"
#include "fleet/serve.h"
#include "pins.h"
#include "queueing/queue_sim.h"
#include "report/report.h"
#include "sim/job_pool.h"
#include "sim/mix_runner.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "workload/batch_app.h"
#include "workload/lc_app.h"
#include "workload/mix.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ubik;

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

/** Every MixRunResult field, bit for bit. */
std::uint64_t
mixDigest(const MixRunResult &r)
{
    std::uint64_t h = kFnvOffsetBasis;
    h = fnv1a64(h, bitsOf(r.lcTailMean));
    h = fnv1a64(h, bitsOf(r.tailDegradation));
    h = fnv1a64(h, bitsOf(r.meanDegradation));
    h = fnv1a64(h, bitsOf(r.weightedSpeedup));
    h = fnv1a64(h, r.batchSpeedups.size());
    for (double s : r.batchSpeedups)
        h = fnv1a64(h, bitsOf(s));
    h = fnv1a64(h, r.ubikDeboosts);
    h = fnv1a64(h, r.ubikDeadlineDeboosts);
    h = fnv1a64(h, r.ubikWatermarks);
    return h;
}

void
failOp(WorkloadResult &r, const std::string &why)
{
    r.failed++;
    if (r.problems.size() < 8)
        r.problems.push_back(why);
}

const char *
sizeName(Size s)
{
    return s == Size::Full ? "full" : "tiny";
}

/**
 * Check `digest` against its pin (default seed only; other seeds have
 * no pin and are checked for repeat agreement by the caller). Records
 * the digest for the run report the first time a key is seen.
 */
bool
pinOk(const RunOptions &opt, WorkloadResult &res, const std::string &what,
      std::uint64_t digest)
{
    std::string key = std::string(sizeName(opt.size)) + "/" + what;
    bool seen = false;
    for (const auto &d : res.digests)
        seen = seen || d.first == key;
    if (!seen)
        res.digests.emplace_back(key, hex64(digest));
    if (opt.seed != kDefaultSeed)
        return true;
    for (const Pin &p : kPins) {
        if (key != p.key)
            continue;
        std::uint64_t want = std::strtoull(p.digest, nullptr, 16);
        if (opt.corruptPins)
            want ^= 1;
        return digest == want;
    }
    return true; // unpinned output: repeat agreement only
}

/**
 * Closed loop: run `op` until at least `min_ops` ops ran, their timed
 * parts add up to opt.seconds, and the op count is a multiple of
 * `cycle` (so inputs that rotate with the op index are all equally
 * represented). `op` returns the seconds it timed (untimed work may
 * surround it). Traced runs alternate spans on/off per op so one run
 * also measures the tracing overhead.
 */
void
closedLoop(const RunOptions &opt, Tracer &tr, WorkloadResult &res,
           std::size_t min_ops, std::size_t cycle,
           const std::function<double(std::uint64_t)> &op)
{
    double acc = 0;
    for (std::uint64_t k = 0;
         k < min_ops || acc < opt.seconds || k % cycle != 0; k++) {
        bool spans = opt.traced && k % 2 == 0;
        tr.setTraced(spans);
        res.attempted++;
        double d = 0;
        try {
            FatalTrap trap;
            d = op(k);
        } catch (const std::exception &e) {
            failOp(res, std::string("op threw: ") + e.what());
            d = 0;
        }
        res.opSec.push_back(d);
        if (opt.traced)
            (spans ? res.tracedOpSec : res.untracedOpSec).push_back(d);
        acc += d;
    }
    tr.setTraced(opt.traced);
}

void
setMedian(WorkloadResult &res, const std::string &name,
          const std::vector<double> &v, double scale,
          const std::string &unit)
{
    if (!v.empty())
        res.layer.set(name, median(v) * scale, unit, v.size());
}

/** Baseline and mix-run span metrics (mix-moses, sweep-cold). */
void
mixRunnerMetrics(const Tracer &tr, WorkloadResult &res,
                 const std::vector<std::string> &apps,
                 const std::vector<std::string> &schemes)
{
    setMedian(res, "sim.mix_runner.lc_baseline_s",
              tr.durations("sim.mix_runner.lc_baseline"), 1, "s");
    setMedian(res, "sim.mix_runner.batch_baseline_s",
              tr.durations("sim.mix_runner.batch_baseline"), 1, "s");
    setMedian(res, "sim.mix_runner.run_mix_s",
              tr.durations("sim.mix_runner.run_mix"), 1, "s");
    for (const auto &a : apps)
        setMedian(res, "sim.mix_runner.run_mix_s." + a,
                  tr.durations("sim.mix_runner.run_mix", a), 1, "s");
    for (const auto &s : schemes)
        setMedian(res, "sim.mix_runner.run_mix_s." + s,
                  tr.durations("sim.mix_runner.run_mix", s), 1, "s");
}

const std::vector<std::string> kLcApps = {"xapian", "masstree", "moses",
                                          "shore", "specjbb"};

std::vector<std::string>
schemeLabels()
{
    std::vector<std::string> out;
    for (const auto &s : paperSchemes())
        out.push_back(s.label);
    return out;
}

void
addConfigContext(WorkloadResult &res, const ExperimentConfig &cfg)
{
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
    };
    res.context.emplace_back("scale", num(cfg.scale));
    res.context.emplace_back("requests", num(cfg.roiRequests));
    res.context.emplace_back("warmup", num(cfg.warmupRequests));
    res.context.emplace_back("jobs", num(cfg.jobs));
    res.context.emplace_back("mixes_per_lc", num(cfg.mixesPerLc));
    res.context.emplace_back("seeds", num(cfg.seeds));
}

// ---------------------------------------------------------------------------
// mix-moses
// ---------------------------------------------------------------------------

MixSpec
mosesFtsMix()
{
    MixSpec m;
    m.lc.app = lc_presets::moses();
    m.lc.load = 0.2;
    const BatchClass cls[3] = {BatchClass::Friendly, BatchClass::Fitting,
                               BatchClass::Streaming};
    for (std::uint32_t i = 0; i < 3; i++)
        m.batch.apps[i] = batch_presets::make(cls[i], i);
    m.batch.name = "fts";
    m.name = "moses-lo/fts";
    return m;
}

/** Simulation seeds a mix-moses run cycles through. The workload seed
 *  picks the set. One seed's random arrivals move a mix's run time by
 *  up to a third, so a run's median spans several draws. */
constexpr std::uint64_t kMixSeeds = 8;

WorkloadResult
runMixMoses(const RunOptions &opt, Tracer &tr)
{
    WorkloadResult res;
    ExperimentConfig cfg = workloadConfig(opt.workload, opt.size);
    addConfigContext(res, cfg);
    res.workUnit = "mixes";
    const MixSpec mix = mosesFtsMix();
    const SchemeUnderTest sut = paperSchemes().back(); // Ubik
    auto simSeed = [&](std::uint64_t k) {
        return opt.seed * kMixSeeds + k % kMixSeeds;
    };

    // Set-up: per simulation seed, the LC baseline (calibration +
    // open-loop run) and the three batch alone-IPC runs every op then
    // reuses from memory.
    std::unique_ptr<MixRunner> runner;
    for (unsigned rep = 0; rep < opt.setupReps; rep++) {
        std::uint64_t before = tr.callsWithPrefix("sim.");
        auto t0 = Clock::now();
        runner = std::make_unique<MixRunner>(cfg);
        for (std::uint64_t k = 0; k < kMixSeeds; k++) {
            {
                Scope s(tr, "sim.mix_runner.lc_baseline", 0, "moses");
                runner->lcBaseline(mix.lc.app, mix.lc.load, simSeed(k));
            }
            for (const auto &app : mix.batch.apps) {
                Scope s(tr, "sim.mix_runner.batch_baseline", 0, app.name);
                runner->batchAloneIpc(app, simSeed(k));
            }
        }
        res.setupSec.push_back(secondsSince(t0));
        res.setupSimCalls += tr.callsWithPrefix("sim.") - before;
    }

    std::vector<std::uint64_t> first(kMixSeeds);
    closedLoop(opt, tr, res, kMixSeeds, kMixSeeds, [&](std::uint64_t k) {
        auto t0 = Clock::now();
        MixRunResult r;
        {
            Scope s(tr, "sim.mix_runner.run_mix", k, "moses|Ubik");
            r = runner->runMix(mix, sut, simSeed(k));
        }
        double d = secondsSince(t0);
        std::uint64_t dig = mixDigest(r);
        std::uint64_t slot = k % kMixSeeds;
        if (k < kMixSeeds)
            first[slot] = dig;
        if (!pinOk(opt, res, "mix-moses.run_mix." + std::to_string(slot),
                   dig) ||
            dig != first[slot])
            failOp(res, "mix " + std::to_string(k) + " digest " +
                            hex64(dig) + " differs from the pinned or "
                            "first result of its seed");
        res.work += 1;
        return d;
    });

    if (opt.traced)
        mixRunnerMetrics(tr, res, {"moses"}, {"Ubik"});
    return res;
}

// ---------------------------------------------------------------------------
// sweep-cold
// ---------------------------------------------------------------------------

/**
 * Every LC app at 20% and 60% load, each with one friendly, one
 * fitting and one streaming batch app. The seed picks each app's
 * variation (batch_presets::make) and the slot order, so the inputs
 * change with the seed while the sweep's total work stays close.
 */
std::vector<MixSpec>
sweepMixes(std::uint64_t seed)
{
    Rng rng(mix64(seed) ^ 0x5eedba7c4ull);
    std::vector<MixSpec> out;
    for (const auto &app : kLcApps) {
        for (double load : {0.2, 0.6}) {
            MixSpec m;
            m.lc.app = lc_presets::byName(app);
            m.lc.load = load;
            BatchClass cls[3] = {BatchClass::Friendly, BatchClass::Fitting,
                                 BatchClass::Streaming};
            for (std::size_t i = 3; i > 1; i--)
                std::swap(cls[i - 1], cls[rng.uniformInt(i)]);
            std::string codes;
            for (std::size_t i = 0; i < 3; i++) {
                m.batch.apps[i] = batch_presets::make(
                    cls[i], static_cast<std::uint32_t>(rng.uniformInt(20)));
                codes += batchClassCode(cls[i]);
            }
            m.batch.name = codes + "-" + std::to_string(out.size());
            m.name = app + (isLowLoad(load) ? "-lo/" : "-hi/") +
                     m.batch.name;
            out.push_back(std::move(m));
        }
    }
    return out;
}

/** Compute every baseline `jobs` needs through `runner` on `workers`
 *  threads, one span per baseline. */
void
computeBaselines(MixRunner &runner, const std::vector<SweepJob> &jobs,
                 unsigned workers, Tracer &tr)
{
    struct Task
    {
        const MixSpec *mix;
        int batch; ///< -1 = the LC baseline
        std::uint64_t seed;
    };
    std::vector<Task> tasks;
    std::set<std::string> seen;
    for (const SweepJob &j : jobs) {
        if (seen.insert(runner.lcKey(j.mix.lc.app, j.mix.lc.load, j.seed))
                .second)
            tasks.push_back({&j.mix, -1, j.seed});
        for (int b = 0; b < 3; b++)
            if (seen.insert(runner.batchKey(j.mix.batch.apps[b], j.seed))
                    .second)
                tasks.push_back({&j.mix, b, j.seed});
    }
    JobPool pool(workers);
    pool.run(tasks.size(), [&](std::size_t i) {
        const Task &t = tasks[i];
        if (t.batch < 0) {
            Scope s(tr, "sim.mix_runner.lc_baseline", 0,
                    t.mix->lc.app.name);
            runner.lcBaseline(t.mix->lc.app, t.mix->lc.load, t.seed);
        } else {
            const BatchAppParams &b = t.mix->batch.apps[t.batch];
            Scope s(tr, "sim.mix_runner.batch_baseline", 0, b.name);
            runner.batchAloneIpc(b, t.seed);
        }
    });
}

WorkloadResult
runSweepCold(const RunOptions &opt, Tracer &tr)
{
    WorkloadResult res;
    ExperimentConfig cfg = workloadConfig(opt.workload, opt.size);
    addConfigContext(res, cfg);
    res.workUnit = "computed jobs";
    const std::vector<SchemeUnderTest> schemes = paperSchemes();
    const std::vector<MixSpec> mixes = sweepMixes(opt.seed);
    const std::vector<SweepJob> jobs =
        buildSweepJobs(schemes, mixes, cfg.seeds);
    res.context.emplace_back("sweep_jobs", std::to_string(jobs.size()));
    const std::string tmpl = "sweep-template";
    const std::string opDir = "sweep-op";

    // Set-up: the sweep's LC and batch baselines, computed once into a
    // template cache every op starts from.
    for (unsigned rep = 0; rep < opt.setupReps; rep++) {
        fs::remove_all(tmpl);
        std::uint64_t before = tr.callsWithPrefix("sim.");
        auto t0 = Clock::now();
        CacheStats st;
        {
            auto cache = ResultCache::open(tmpl);
            if (!cache)
                fatal("cannot create %s", tmpl.c_str());
            MixRunner runner(cfg);
            runner.attachCache(cache.get());
            computeBaselines(runner, jobs, cfg.jobs, tr);
            st = cache->stats();
        }
        res.setupSec.push_back(secondsSince(t0));
        res.setupSimCalls += tr.callsWithPrefix("sim.") - before;
        res.setupCacheCalls += st.hits + st.misses + st.stores;
    }

    std::uint64_t first = 0;
    std::vector<SweepResult> firstSweeps;
    std::vector<double> computedPerOp, storesPerOp;
    std::uint64_t degraded = 0;
    closedLoop(opt, tr, res, 1, 1, [&](std::uint64_t k) {
        fs::remove_all(opDir);
        fs::copy(tmpl, opDir, fs::copy_options::recursive);
        SweepAccounting acct;
        std::vector<SweepResult> sweeps;
        CacheStats st;
        auto t0 = Clock::now();
        {
            Scope s(tr, "sim.sweep", k);
            std::unique_ptr<ResultCache> cache;
            {
                Scope o(tr, "sim.result_cache.open", k);
                cache = ResultCache::open(opDir);
            }
            if (!cache)
                fatal("cannot open %s", opDir.c_str());
            sweeps = runSchemeSweep(cfg, schemes, mixes, true,
                                    cache.get(), &acct);
            st = cache->stats();
        }
        double d = secondsSince(t0);
        std::uint64_t dig =
            digestBytes(resultsToJson(sweeps, "sweep-cold").dump());
        if (k == 0) {
            first = dig;
            firstSweeps = sweeps;
        }
        if (!pinOk(opt, res, "sweep-cold.results", dig) || dig != first)
            failOp(res, "sweep " + std::to_string(k) + " results digest " +
                            hex64(dig) +
                            " differs from the pinned or first result");
        else if (acct.hits != 0 || acct.computed != jobs.size())
            failOp(res, "sweep " + std::to_string(k) + ": " +
                            std::to_string(acct.hits) + " hits, " +
                            std::to_string(acct.computed) +
                            " computed (want every job computed)");
        computedPerOp.push_back(static_cast<double>(acct.computed));
        storesPerOp.push_back(static_cast<double>(st.stores));
        degraded += st.degraded();
        res.work += static_cast<double>(acct.computed);
        return d;
    });
    fs::remove_all(opDir);

    if (opt.traced && !firstSweeps.empty()) {
        // Result-cache write and read paths on the sweep's own results.
        const std::string storeDir = "sweep-store";
        fs::remove_all(storeDir);
        auto resultOf = [&](std::size_t j) -> const MixRunResult & {
            return firstSweeps[j / mixes.size()].runs[j % mixes.size()];
        };
        std::vector<std::string> keys;
        for (const SweepJob &j : jobs)
            keys.push_back(mixResultKey(cfg, j.mix, j.sut, j.seed, true));
        {
            std::unique_ptr<ResultCache> cache;
            {
                Scope o(tr, "sim.result_cache.open");
                cache = ResultCache::open(storeDir);
            }
            for (std::size_t j = 0; j < jobs.size(); j++) {
                Scope s(tr, "sim.result_cache.store");
                cache->storeMix(keys[j], resultOf(j));
            }
        }
        CacheStats st;
        {
            std::unique_ptr<ResultCache> cache;
            {
                Scope o(tr, "sim.result_cache.open");
                cache = ResultCache::open(storeDir);
            }
            for (std::size_t j = 0; j < jobs.size(); j++) {
                std::optional<MixRunResult> got;
                res.attempted++;
                {
                    Scope s(tr, "sim.result_cache.load");
                    got = cache->loadMix(keys[j]);
                }
                if (!got || mixDigest(*got) != mixDigest(resultOf(j)))
                    failOp(res, "result cache round trip changed job " +
                                    std::to_string(j));
            }
            st = cache->stats();
        }
        fs::remove_all(storeDir);

        // Replay every job alone, so each mix's cost is visible per LC
        // app and per scheme; each must equal its sweep result.
        {
            auto cache = ResultCache::open(tmpl);
            MixRunner runner(cfg);
            runner.attachCache(cache.get());
            for (std::size_t j = 0; j < jobs.size(); j++) {
                MixRunResult r;
                res.attempted++;
                {
                    Scope s(tr, "sim.mix_runner.run_mix", 0,
                            jobs[j].mix.lc.app.name + "|" +
                                jobs[j].sut.label);
                    r = runner.runMix(jobs[j].mix, jobs[j].sut,
                                      jobs[j].seed);
                }
                if (mixDigest(r) != mixDigest(resultOf(j)))
                    failOp(res, "replayed job " + std::to_string(j) +
                                    " differs from its sweep result");
            }
        }

        std::vector<double> walls = tr.durations("sim.sweep");
        double jobSec = sum(tr.durations("sim.mix_runner.run_mix"));
        setMedian(res, "sim.sweep.wall_s", walls, 1, "s");
        if (jobSec > 0 && !walls.empty())
            res.layer.set("sim.sweep.straggler_ratio",
                          median(walls) / (jobSec / cfg.jobs), "ratio",
                          walls.size());
        setMedian(res, "sim.sweep.jobs_computed", computedPerOp, 1,
                  "count");
        setMedian(res, "sim.result_cache.store_us",
                  tr.durations("sim.result_cache.store"), 1e6, "us");
        setMedian(res, "sim.result_cache.stores", storesPerOp, 1, "count");
        res.layer.set("sim.result_cache.degraded",
                      static_cast<double>(degraded), "count",
                      computedPerOp.size());
        setMedian(res, "sim.result_cache.open_ms",
                  tr.durations("sim.result_cache.open"), 1e3, "ms");
        setMedian(res, "sim.result_cache.load_us",
                  tr.durations("sim.result_cache.load"), 1e6, "us");
        res.layer.set("sim.result_cache.hits",
                      static_cast<double>(st.hits), "count", jobs.size());
        res.layer.set("sim.result_cache.misses",
                      static_cast<double>(st.misses), "count",
                      jobs.size());
        mixRunnerMetrics(tr, res, kLcApps, schemeLabels());
    }
    fs::remove_all(tmpl);
    return res;
}

// ---------------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------------

const char *const kSocket = "serve.sock";

/** serve-warm queries per --seconds second: about what the daemon
 *  answers on a 4-vCPU host, so a run measures roughly --seconds. */
constexpr double kServeQueriesPerSecond = 250;
const std::vector<std::string> kFleetScenarios = {
    "fleet-utilization", "fleet-colocation", "fleet-bandwidth"};

/** One request/response over the daemon's socket. */
bool
roundTrip(const std::string &body, std::string &resp, std::string &err)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        err = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    std::size_t off = 0;
    while (off < body.size()) {
        ssize_t n = ::write(fd, body.data() + off, body.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            err = std::string("write: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    resp.clear();
    char buf[65536];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            err = std::string("read: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (!resp.empty() && resp.back() == '\n')
        resp.pop_back();
    return true;
}

/** The body the daemon answers a successful scenario query with. */
std::string
okBody(Json results)
{
    Json j = Json::object();
    j.set("ok", true);
    j.set("results", std::move(results));
    return j.dump(/*pretty=*/true);
}

bool
isOk(const std::string &resp)
{
    Json j;
    std::string err;
    if (!Json::parse(resp, j, err))
        return false;
    const Json *ok = j.find("ok");
    return ok && ok->isBool() && ok->boolean();
}

struct Query
{
    enum Kind
    {
        Read,
        Fleet,
        Repeat,
    } kind = Read;
    std::string body;
    std::string fleet; ///< fleet scenario name (Fleet only)
    std::size_t slot = 0; ///< recent-read slot it fills (Read) or repeats
};

/**
 * The seeded query stream. Read queries send a registered sweep
 * scenario inline, under a per-query name, with a seeded schemes= and
 * load= filter, so the daemon's response memo misses while every
 * result-cache lookup hits. One query in 33 is a fleet query (the
 * fleet scenarios in rotation at a seeded servers=), one in 50
 * re-sends one of the last kRecent read queries verbatim (a memo hit).
 */
class QueryStream
{
  public:
    static constexpr std::size_t kRecent = 64;

    explicit QueryStream(std::uint64_t seed)
        : rng_(mix64(seed) ^ 0x5e7e9ull), labels_(schemeLabels())
    {
    }

    Query next()
    {
        std::uint64_t i = n_++;
        const ScenarioRegistry &reg = ScenarioRegistry::instance();
        Query q;
        if (i % 33 == 16) {
            q.kind = Query::Fleet;
            q.fleet = kFleetScenarios[(i / 33) % kFleetScenarios.size()];
            ScenarioSpec spec = *reg.find(q.fleet);
            spec.name += "@q" + std::to_string(i);
            std::uint64_t servers = 100 + 25 * rng_.uniformInt(9);
            q.body = request(spec, {"servers=" + std::to_string(servers)});
            return q;
        }
        if (i % 50 == 41 && reads_ > 0) {
            q.kind = Query::Repeat;
            q.slot = rng_.uniformInt(std::min(reads_, kRecent));
            q.body = recent_[q.slot];
            return q;
        }
        ScenarioSpec spec = *reg.find(rng_.uniformInt(2) ? "fig10" : "fig9");
        spec.name += "@q" + std::to_string(i);
        std::uint64_t mask = 1 + rng_.uniformInt(31);
        std::string schemes;
        for (std::size_t b = 0; b < labels_.size(); b++)
            if (mask >> b & 1)
                schemes += (schemes.empty() ? "" : ",") + labels_[b];
        static const char *const bands[] = {"all", "low", "high"};
        q.body = request(spec, {"schemes=" + schemes,
                                std::string("load=") +
                                    bands[rng_.uniformInt(3)]});
        q.slot = reads_++ % kRecent;
        recent_[q.slot] = q.body;
        return q;
    }

  private:
    static std::string request(const ScenarioSpec &spec,
                               const std::vector<std::string> &sets)
    {
        Json j = Json::object();
        j.set("query", "scenario");
        j.set("spec", scenarioToJson(spec));
        Json s = Json::array();
        for (const auto &v : sets)
            s.push(v);
        j.set("set", std::move(s));
        return j.dump();
    }

    Rng rng_;
    std::vector<std::string> labels_;
    std::string recent_[kRecent]; ///< bodies of the latest read queries
    std::size_t reads_ = 0;
    std::uint64_t n_ = 0;
};

/** A daemon on its own thread. */
struct RunningDaemon
{
    std::unique_ptr<ServeDaemon> daemon;
    std::thread thread;

    explicit RunningDaemon(const ExperimentConfig &cfg)
    {
        ServeOptions so;
        so.socketPath = kSocket;
        so.threads = 2;
        daemon = std::make_unique<ServeDaemon>(so, cfg);
        std::string err;
        if (!daemon->start(&err))
            fatal("serve daemon: %s", err.c_str());
        thread = std::thread([this] { daemon->run(); });
    }

    ~RunningDaemon()
    {
        daemon->requestStop();
        thread.join();
    }

    RunningDaemon(const RunningDaemon &) = delete;
    RunningDaemon &operator=(const RunningDaemon &) = delete;
};

/** Handle time of the last request, from the daemon's own stats
 *  (its recorder keeps whole microseconds). */
double
handleUsBetween(const ServeStatsSnapshot &a, const ServeStatsSnapshot &b)
{
    return b.meanServiceUs * static_cast<double>(b.requests) -
           a.meanServiceUs * static_cast<double>(a.requests);
}

WorkloadResult
runServeWarm(const RunOptions &opt, Tracer &tr)
{
    WorkloadResult res;
    ExperimentConfig cfg = workloadConfig(opt.workload, opt.size);
    cfg.cacheDir = "serve-cache";
    addConfigContext(res, cfg);
    res.context.emplace_back("serve_threads", "2");
    res.workUnit = "queries";
    const std::vector<std::string> coldNames = {
        "fig9", "fleet-utilization", "fleet-colocation", "fleet-bandwidth"};

    // Set-up: a daemon on an empty cache answers one cold pass of the
    // base scenarios, computing and storing every result the timed
    // queries will read.
    std::unique_ptr<RunningDaemon> rd;
    for (unsigned rep = 0; rep < opt.setupReps; rep++) {
        rd.reset();
        fs::remove_all(cfg.cacheDir);
        auto t0 = Clock::now();
        rd = std::make_unique<RunningDaemon>(cfg);
        std::uint64_t dig = kFnvOffsetBasis;
        for (const auto &name : coldNames) {
            Json q = Json::object();
            q.set("query", "scenario");
            q.set("name", name);
            std::string resp, err;
            Scope s(tr, "fleet.serve.round_trip", 0, "cold");
            if (!roundTrip(q.dump(), resp, err) || !isOk(resp))
                fatal("cold %s query failed: %s", name.c_str(),
                      err.empty() ? resp.c_str() : err.c_str());
            dig = fnv1a64(dig, digestBytes(resp));
        }
        res.setupSec.push_back(secondsSince(t0));
        ServeStatsSnapshot st = rd->daemon->snapshot();
        res.setupSimCalls += st.cacheMisses; // each miss computes
        res.setupCacheCalls += st.cacheHits + st.cacheMisses;
        res.attempted++;
        if (!pinOk(opt, res, "serve-warm.cold_pass", dig))
            failOp(res, "cold pass digest " + hex64(dig) +
                            " differs from the pinned one");
    }

    // The timed loop: a fixed number of queries back to back, keeping
    // only each answer's digest (0 = no valid answer). The daemon's
    // response memo grows with every distinct query, so a count fixed
    // by --seconds (at a nominal rate) rather than a time budget keeps
    // peak_rss_mb comparable between runs on a faster or slower host.
    QueryStream stream(opt.seed);
    std::vector<std::uint64_t> answers;
    std::vector<double> handleUs, transportUs;
    ServeStatsSnapshot before = rd->daemon->snapshot();
    RunOptions counted = opt;
    counted.seconds = 0;
    closedLoop(counted, tr, res,
               std::max<std::size_t>(
                   100, static_cast<std::size_t>(kServeQueriesPerSecond *
                                                 opt.seconds)),
               1, [&](std::uint64_t k) {
        Query q = stream.next();
        std::string resp, err;
        ServeStatsSnapshot a;
        if (tr.traced())
            a = rd->daemon->snapshot();
        auto t0 = Clock::now();
        bool sent;
        {
            Scope s(tr, "fleet.serve.round_trip", k);
            sent = roundTrip(q.body, resp, err);
        }
        double d = secondsSince(t0);
        if (tr.traced()) {
            double h = handleUsBetween(a, rd->daemon->snapshot());
            handleUs.push_back(h);
            transportUs.push_back(d * 1e6 - h);
        }
        bool ok = sent && isOk(resp);
        answers.push_back(ok ? digestBytes(resp) : 0);
        if (!ok)
            failOp(res, "query " + std::to_string(k) + " failed: " +
                            (sent ? resp.substr(0, 200) : err));
        res.work += 1;
        return d;
    });
    ServeStatsSnapshot after = rd->daemon->snapshot();
    rd.reset(); // drain and stop the daemon

    // Correctness: replay the same query stream; every answer must be
    // byte-identical to the same spec run in-process against the
    // daemon's cache, and every repeat to its original.
    std::unique_ptr<ResultCache> cache;
    {
        Scope o(tr, "sim.result_cache.open");
        cache = ResultCache::open(cfg.cacheDir);
    }
    QueryStream replay(opt.seed);
    std::vector<std::uint64_t> recent(QueryStream::kRecent);
    for (std::size_t i = 0; i < answers.size(); i++) {
        Query q = replay.next();
        std::string id = "query " + std::to_string(i);
        if (q.kind == Query::Repeat) {
            if (answers[i] && answers[i] != recent[q.slot])
                failOp(res, id + ": repeat answered differently");
            continue;
        }
        if (q.kind == Query::Read)
            recent[q.slot] = answers[i];
        if (!answers[i])
            continue; // already counted
        try {
            FatalTrap trap;
            Json req = Json::parseOrDie(q.body, "query");
            ScenarioSpec spec;
            {
                Scope s(tr, "sim.scenario.from_json");
                spec = scenarioFromJson(*req.find("spec"));
            }
            for (const Json &v : req.find("set")->items())
                applyScenarioOverride(spec, v.str());
            ExperimentConfig scfg = scenarioConfig(spec, cfg);
            {
                Scope s(tr, "sim.scenario.build_mixes");
                buildScenarioMixes(spec, scfg);
            }
            ScenarioResult r = runScenario(spec, cfg, cache.get());
            Json doc;
            {
                Scope s(tr, "sim.scenario.results_json");
                doc = scenarioResultsJson(spec, r, false);
            }
            if (digestBytes(okBody(std::move(doc))) != answers[i])
                failOp(res, id + ": results differ from the in-process run");
            if (q.kind == Query::Fleet && tr.traced()) {
                FleetResult f;
                {
                    Scope s(tr, "fleet.run_fleet", 0, q.fleet);
                    f = runFleet(spec.fleet, spec.schemes, r.mixes,
                                 r.sweeps, scfg, spec.ooo, cache.get());
                }
                if (fleetToJson(f).dump() != fleetToJson(r.fleet).dump())
                    failOp(res, id + ": fleet recomposition differs");
            }
        } catch (const std::exception &e) {
            failOp(res, id + ": in-process check threw: " + e.what());
        }
    }

    if (opt.traced) {
        // Warm read path: every fig9 result straight from the cache.
        const ScenarioSpec &fig9 = *ScenarioRegistry::instance().find("fig9");
        for (const SweepJob &j :
             buildSweepJobs(fig9.schemes, buildScenarioMixes(fig9, cfg),
                            cfg.seeds)) {
            std::string key = mixResultKey(cfg, j.mix, j.sut, j.seed, true);
            Scope s(tr, "sim.result_cache.load");
            res.attempted++;
            if (!cache->loadMix(key))
                failOp(res, "warm cache lacks " + j.mix.name);
        }
        std::size_t n = handleUs.size();
        res.layer.set("fleet.serve.handle_request_ms.p50",
                      median(handleUs) / 1e3, "ms", n);
        res.layer.set("fleet.serve.handle_request_ms.p99",
                      percentile(handleUs, 99) / 1e3, "ms", n);
        res.layer.set("fleet.serve.transport_us", median(transportUs),
                      "us", n);
        res.layer.set("fleet.serve.memo_hits",
                      static_cast<double>(after.memoHits - before.memoHits),
                      "count", answers.size());
        res.layer.set("fleet.serve.errors",
                      static_cast<double>(after.errors - before.errors),
                      "count", answers.size());
        for (const auto &f : kFleetScenarios)
            setMedian(res, "fleet.run_fleet_ms." + f.substr(6),
                      tr.durations("fleet.run_fleet", f), 1e3, "ms");
        setMedian(res, "sim.scenario.from_json_us",
                  tr.durations("sim.scenario.from_json"), 1e6, "us");
        setMedian(res, "sim.scenario.build_mixes_us",
                  tr.durations("sim.scenario.build_mixes"), 1e6, "us");
        setMedian(res, "sim.scenario.results_json_us",
                  tr.durations("sim.scenario.results_json"), 1e6, "us");
        setMedian(res, "sim.result_cache.open_ms",
                  tr.durations("sim.result_cache.open"), 1e3, "ms");
        setMedian(res, "sim.result_cache.load_us",
                  tr.durations("sim.result_cache.load"), 1e6, "us");
        res.layer.set("sim.result_cache.hits",
                      static_cast<double>(after.cacheHits - before.cacheHits),
                      "count", answers.size());
        res.layer.set(
            "sim.result_cache.misses",
            static_cast<double>(after.cacheMisses - before.cacheMisses),
            "count", answers.size());
    }
    cache.reset();
    fs::remove_all(cfg.cacheDir);
    return res;
}

// ---------------------------------------------------------------------------
// Standalone layer probes
// ---------------------------------------------------------------------------

constexpr std::uint32_t kProbeApps = 6;

/** perf_hotpath's stream: apps round-robin, each uniform over a
 *  working set from half a fair share to 3x. */
std::vector<Addr>
probeStream(std::uint64_t n, std::uint64_t llc_lines, std::uint64_t seed)
{
    const double wsFactor[kProbeApps] = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
    std::uint64_t share = llc_lines / kProbeApps;
    Rng rng(seed);
    std::vector<Addr> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; i++) {
        std::uint32_t a = static_cast<std::uint32_t>(i % kProbeApps);
        std::uint64_t ws = std::max<std::uint64_t>(
            64, static_cast<std::uint64_t>(wsFactor[a] *
                                           static_cast<double>(share)));
        out.push_back((static_cast<Addr>(a + 1) << 40) + rng.uniformInt(ws));
    }
    return out;
}

/** Resident lines + counters after a replay, order-sensitive. */
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
    return fnv1a64(h, s.forcedEvictions());
}

/** Replay the stream through a fresh Z4/52 scheme; returns accesses
 *  per second over the timed part and the final state hash. */
std::pair<double, std::uint64_t>
replayScheme(bool vantage, const std::vector<Addr> &stream,
             std::size_t warm, std::uint64_t lines)
{
    auto array = std::make_unique<ZCacheArray>(lines - lines % 4, 4, 52,
                                               /*salt=*/12345);
    std::unique_ptr<PartitionScheme> s;
    if (vantage)
        s = std::make_unique<Vantage>(std::move(array), kProbeApps + 1);
    else
        s = std::make_unique<SharedLru>(std::move(array), kProbeApps + 1);
    std::uint64_t share = s->array().numLines() / kProbeApps;
    for (std::uint32_t a = 0; a < kProbeApps; a++)
        s->setTargetSize(a + 1, share);
    AccessContext ctx;
    auto drive = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; i++) {
            std::uint32_t a = static_cast<std::uint32_t>(i % kProbeApps);
            ctx.part = a + 1;
            ctx.app = a;
            ctx.reqId = static_cast<ReqId>(i / kProbeApps);
            s->access(stream[i], ctx);
        }
    };
    drive(0, warm);
    auto t0 = Clock::now();
    drive(warm, stream.size());
    double sec = secondsSince(t0);
    return {static_cast<double>(stream.size() - warm) / sec,
            schemeStateHash(*s)};
}

} // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mix-moses", "sweep-cold",
                                                   "serve-warm"};
    return names;
}

bool
isWorkload(const std::string &name)
{
    const auto &n = workloadNames();
    return std::find(n.begin(), n.end(), name) != n.end();
}

ExperimentConfig
workloadConfig(const std::string &name, Size size)
{
    ExperimentConfig cfg;
    cfg.seeds = 1;
    cfg.mixesPerLc = 1;
    cfg.verbose = false;
    cfg.jobs = name == "sweep-cold" ? 2 : 1;
    if (size == Size::Tiny) {
        cfg.scale = 128;
        cfg.roiRequests = 10;
        cfg.warmupRequests = 3;
    } else if (name == "mix-moses") {
        cfg.scale = 64;
        cfg.roiRequests = 20;
        cfg.warmupRequests = 5;
    } else if (name == "sweep-cold") {
        cfg.scale = 128;
        cfg.roiRequests = 15;
        cfg.warmupRequests = 5;
    } else {
        cfg.scale = 128;
        cfg.roiRequests = 10;
        cfg.warmupRequests = 3;
    }
    return cfg;
}

WorkloadResult
runWorkload(const RunOptions &opt, Tracer &tracer)
{
    if (opt.workload == "mix-moses")
        return runMixMoses(opt, tracer);
    if (opt.workload == "sweep-cold")
        return runSweepCold(opt, tracer);
    if (opt.workload == "serve-warm")
        return runServeWarm(opt, tracer);
    fatal("unknown workload '%s'", opt.workload.c_str());
}

void
runLayerProbes(const RunOptions &opt, WorkloadResult &res)
{
    const bool tiny = opt.size == Size::Tiny;

    // cache: seeded stream replayed through PartitionScheme::access.
    const std::uint64_t lines = tiny ? 16384 : 196608;
    const std::size_t warm = 2 * lines;
    std::vector<Addr> stream =
        probeStream(warm + (tiny ? 50000 : 500000), lines, opt.seed);
    for (bool vantage : {true, false}) {
        std::vector<double> rates;
        std::uint64_t hash = 0;
        for (int rep = 0; rep < 3; rep++) {
            auto [rate, h] = replayScheme(vantage, stream, warm, lines);
            res.attempted++;
            std::string what = std::string("cache.") +
                               (vantage ? "vantage" : "lru") + "_z4_52";
            if (rep == 0)
                hash = h;
            if (!pinOk(opt, res, what + ".state", h) || h != hash)
                failOp(res, what + " state hash " + hex64(h) +
                                " differs from the pinned or first one");
            rates.push_back(rate);
        }
        res.layer.set(std::string("cache.") +
                          (vantage ? "vantage" : "lru") +
                          "_z4_52.accesses_per_s",
                      median(rates), "1/s", rates.size(), "standalone");
    }

    // queueing: a fixed G/G/k QueueSim.
    {
        QueueSimParams p;
        p.workers = 4;
        p.meanInterarrival = 6e4;
        p.service = ServiceDistribution::lognormal(2e5, 0.8);
        p.requests = tiny ? 20000 : 200000;
        p.warmup = 1000;
        p.interferenceFactor = 0.05;
        std::vector<double> rates;
        std::uint64_t first = 0;
        for (int rep = 0; rep < 3; rep++) {
            auto t0 = Clock::now();
            QueueSimResult r = QueueSim(p, opt.seed).run();
            rates.push_back(static_cast<double>(p.requests + p.warmup) /
                            secondsSince(t0));
            std::uint64_t h = fnv1a64(fnv1a64(kFnvOffsetBasis,
                                              bitsOf(r.latencies.mean())),
                                      bitsOf(r.latencies.percentile(99)));
            res.attempted++;
            if (rep == 0)
                first = h;
            else if (h != first)
                failOp(res, "QueueSim repeat differs");
        }
        res.layer.set("queueing.queue_sim.requests_per_s", median(rates),
                      "1/s", rates.size(), "standalone");
    }

    // common.json: parse and dump the registry's specs as one document.
    {
        Json doc = Json::array();
        for (const ScenarioSpec &s : ScenarioRegistry::instance().all())
            doc.push(scenarioToJson(s));
        const std::string text = doc.dump(/*pretty=*/true);
        const double budget = tiny ? 0.05 : 0.3;
        double bytes = 0;
        auto t0 = Clock::now();
        Json back;
        while (secondsSince(t0) < budget) {
            std::string err;
            if (!Json::parse(text, back, err))
                fatal("json probe: %s", err.c_str());
            bytes += static_cast<double>(text.size());
        }
        double parse = bytes / secondsSince(t0) / 1e6;
        bytes = 0;
        t0 = Clock::now();
        std::string out;
        while (secondsSince(t0) < budget) {
            out = back.dump(/*pretty=*/true);
            bytes += static_cast<double>(out.size());
        }
        double dump = bytes / secondsSince(t0) / 1e6;
        res.attempted++;
        if (out != text || back != doc)
            failOp(res, "JSON parse/dump round trip is not lossless");
        res.layer.set("common.json.parse_mb_per_s", parse, "MB/s", 1,
                      "standalone");
        res.layer.set("common.json.dump_mb_per_s", dump, "MB/s", 1,
                      "standalone");
    }
}

} // namespace perfbench
