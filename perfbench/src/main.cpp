/**
 * @file
 * ubik_bench: the repository's end-to-end benchmark.
 *
 *   ubik_bench --workload <mix-moses|sweep-cold|serve-warm> --seed <n>
 *              --seconds <s> --trace <0|1> [--work-dir DIR]
 *              [--out-dir DIR] [--corrupt-pins] [--tiny]
 *
 * Runs one workload's set-up (several times; setup_s is the median)
 * and a closed loop of ops for `--seconds` of op time, checks every
 * op's output, and prints a human-readable report followed by one
 * JSON line: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 they
 * are the per-layer ones from the benchmark's own spans, plus probes
 * of the layers this workload does not exercise. Exit status: 0 when
 * every op was correct, 1 when the correctness gate failed, 2 on bad
 * usage or a build that measures a different program (Debug,
 * sanitizers). --tiny runs the same code paths at a toy scale (a smoke
 * run); --corrupt-pins flips every pinned digest to show the
 * correctness gate firing.
 */

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#include "common/log.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif
#ifndef PERFBENCH_TSAN
#define PERFBENCH_TSAN 0
#endif

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ubik_bench: %s\nusage: ubik_bench --workload "
                 "<mix-moses|sweep-cold|serve-warm> --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--out-dir DIR] "
                 "[--corrupt-pins] [--tiny]\n",
                 msg);
    return 2;
}

/** JSON string literal (names and units are plain ASCII). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Why this build must not be measured, or empty. */
std::string
buildRefusal()
{
    std::string bt = PERFBENCH_BUILD_TYPE;
    if (bt == "Debug" || bt.empty())
        return "build type '" + bt + "' is not optimized";
    if (PERFBENCH_TSAN)
        return "this is a UBIK_TSAN (ThreadSanitizer) build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "this is a sanitizer build";
#endif
    if (const char *fp = std::getenv("UBIK_FAILPOINTS"); fp && *fp)
        return "UBIK_FAILPOINTS is set (fault injection)";
    return "";
}

/**
 * The traced run's additions: standalone layer probes, tiny runs of
 * the other workloads for the layers this one does not exercise
 * (marked probe:<name>), the tracing overhead, and the span file.
 */
void
addTracedMetrics(const RunOptions &opt, WorkloadResult &res,
                 const Tracer &tracer, const fs::path &out)
{
    runLayerProbes(opt, res);
    for (const std::string &w : workloadNames()) {
        if (w == opt.workload)
            continue;
        RunOptions po = opt;
        po.workload = w;
        po.size = Size::Tiny;
        po.seconds = 0.01;
        po.setupReps = 1;
        Tracer pt(true);
        WorkloadResult pr = runWorkload(po, pt);
        for (const std::string &n : pr.layer.names()) {
            const Metric &m = pr.layer.get(n);
            res.layer.set(n, m.value, m.unit, m.samples, "probe:" + w);
        }
        res.attempted += pr.attempted;
        res.failed += pr.failed;
        for (const auto &p : pr.problems)
            res.problems.push_back(w + ": " + p);
        res.digests.insert(res.digests.end(), pr.digests.begin(),
                           pr.digests.end());
    }
    double t = median(res.tracedOpSec), u = median(res.untracedOpSec);
    res.layer.set("bench.traced_op_p50_ms", t * 1e3, "ms",
                  res.tracedOpSec.size());
    res.layer.set("bench.untraced_op_p50_ms", u * 1e3, "ms",
                  res.untracedOpSec.size());
    res.layer.set("bench.tracing_overhead_pct",
                  u > 0 ? (t / u - 1) * 100 : 0, "%",
                  res.tracedOpSec.size());
    tracer.writeJson((out / (opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-spans.json"))
                         .string());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    int trace = -1;
    bool haveSeed = false, haveSeconds = false;
    std::string workDir = ".bench_build/perfbench-work";
    std::string outDir = ".bench_build/perfbench-results";
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                return "";
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = val();
        else if (a == "--seed") {
            opt.seed = std::strtoull(val().c_str(), nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::atof(val().c_str());
            haveSeconds = true;
        } else if (a == "--trace")
            trace = std::atoi(val().c_str());
        else if (a == "--work-dir")
            workDir = val();
        else if (a == "--out-dir")
            outDir = val();
        else if (a == "--corrupt-pins")
            opt.corruptPins = true;
        else if (a == "--tiny")
            opt.size = Size::Tiny;
        else
            return usage(("unknown argument " + a).c_str());
    }
    if (!isWorkload(opt.workload))
        return usage("--workload must be mix-moses, sweep-cold or "
                     "serve-warm");
    if (!haveSeed || !haveSeconds || opt.seconds <= 0 ||
        (trace != 0 && trace != 1))
        return usage("need --seed, --seconds > 0, --trace 0|1");
    if (std::string why = buildRefusal(); !why.empty()) {
        std::fprintf(stderr, "ubik_bench: refusing to run: %s; it would "
                             "measure a different program\n",
                     why.c_str());
        return 2;
    }
    opt.traced = trace == 1;

    // Scratch files live in a per-process directory; the program's own
    // progress lines go to a log there instead of the terminal.
    const fs::path home = fs::current_path();
    const fs::path work = fs::absolute(workDir) /
                          (opt.workload + "-" + std::to_string(getpid()));
    const fs::path out = fs::absolute(outDir);
    fs::remove_all(work);
    fs::create_directories(work);
    fs::create_directories(out);
    fs::current_path(work);
    int savedErr = dup(2);
    int logFd = ::open("program.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logFd >= 0) {
        dup2(logFd, 2);
        ::close(logFd);
    }
    ubik::setVerbose(false);

    Tracer tracer(opt.traced);
    WorkloadResult res;
    std::string crash;
    try {
        // A fatal() outside an op (set-up, probes) ends the run as a
        // failure with its message instead of killing the process.
        ubik::FatalTrap trap;
        res = runWorkload(opt, tracer);
        if (opt.traced)
            addTracedMetrics(opt, res, tracer, out);
    } catch (const std::exception &e) {
        crash = e.what();
    }

    fflush(stderr);
    dup2(savedErr, 2);
    ::close(savedErr);
    fs::current_path(home);
    if (!crash.empty()) {
        std::fprintf(stderr, "ubik_bench: run failed: %s (program log: "
                             "%s/program.log)\n",
                     crash.c_str(), work.c_str());
        return 1;
    }
    const std::uint64_t attempted = res.attempted, failed = res.failed;

    Metrics e2e;
    e2e.set("setup_s", median(res.setupSec), "s", res.setupSec.size());
    e2e.set("op_p50_ms", median(res.opSec) * 1e3, "ms", res.opSec.size());
    e2e.set("op_p99_ms", percentile(res.opSec, 99) * 1e3, "ms",
            res.opSec.size());
    double opTime = sum(res.opSec);
    e2e.set("work_per_s", opTime > 0 ? res.work / opTime : 0, "1/s",
            res.opSec.size());
    e2e.set("peak_rss_mb", peakRssMb(), "MB", 1);
    const Metrics &shown = opt.traced ? res.layer : e2e;

    // Human-readable report: context, set-up, metrics with sample
    // counts, digests, failures.
    std::string ctx = "{\"workload\": " + jsonStr(opt.workload) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"trace\": " + std::to_string(trace) +
                      ", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"compiler\": " + jsonStr(__VERSION__) +
                      ", \"build_type\": " + jsonStr(PERFBENCH_BUILD_TYPE) +
                      ", \"lto\": " + (PERFBENCH_LTO ? "true" : "false");
    for (const auto &kv : res.context)
        ctx += ", " + jsonStr(kv.first) + ": " + jsonStr(kv.second);
    ctx += "}";
    std::printf("context %s\n", ctx.c_str());
    std::printf("setup: %zu repetitions, %llu simulation calls, %llu "
                "result-cache calls\n",
                res.setupSec.size(),
                static_cast<unsigned long long>(res.setupSimCalls),
                static_cast<unsigned long long>(res.setupCacheCalls));
    std::printf("ops: %zu (%g %s), %llu attempted, %llu failed\n",
                res.opSec.size(), res.work, res.workUnit.c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::string times;
    for (double d : res.opSec)
        times += " " + num(d * 1e3);
    std::printf("op times (ms):%s\n", times.c_str());
    std::string setups;
    for (double d : res.setupSec)
        setups += " " + num(d);
    std::printf("set-up times (s):%s\n", setups.c_str());
    std::printf("%-44s %14s %-6s %8s  %s\n", "metric", "value", "unit",
                "samples", "source");
    for (const std::string &n : shown.names()) {
        const Metric &m = shown.get(n);
        std::printf("%-44s %14.6g %-6s %8zu  %s\n", n.c_str(), m.value,
                    m.unit.c_str(), m.samples, m.source.c_str());
    }
    for (const auto &d : res.digests)
        std::printf("digest %s %s\n", d.first.c_str(), d.second.c_str());
    for (const auto &p : res.problems)
        std::printf("FAILED %s\n", p.c_str());

    bool correct = failed == 0 && attempted > 0;
    std::string metrics;
    for (const std::string &n : shown.names()) {
        const Metric &m = shown.get(n);
        metrics += (metrics.empty() ? "" : ", ") + jsonStr(n) +
                   ": {\"value\": " + num(m.value) +
                   ", \"unit\": " + jsonStr(m.unit) + "}";
    }
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {" + metrics + "}}";

    // Every result is recorded with its run context.
    if (std::FILE *f = std::fopen(
            (out / (opt.workload + "-seed" + std::to_string(opt.seed) +
                    "-trace" + std::to_string(trace) + ".json"))
                .c_str(),
            "w")) {
        std::fprintf(f, "{\"context\": %s,\n \"result\": %s}\n",
                     ctx.c_str(), line.c_str());
        std::fclose(f);
    }
    fs::remove_all(work);
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
