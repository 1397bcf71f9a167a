/**
 * @file
 * Benchmark harness pieces shared by every workload: an in-memory
 * span tracer, a named-metric registry, and the small statistics and
 * digest helpers the correctness gate uses.
 *
 * Spans are recorded only around calls the benchmark itself makes
 * into the program's layers (never inside the program). Every span
 * also bumps a per-name call counter, traced or not, so the set-up
 * self-check can prove that a set-up really called into the
 * simulator or the result cache.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** One closed interval of work at a layer boundary. */
struct Span
{
    std::string name;  ///< layer-qualified, e.g. "sim.mix_runner.run_mix"
    std::string tag;   ///< optional qualifier (app, scheme, query kind)
    double startUs = 0;
    double endUs = 0;
    int parent = -1;   ///< index of the enclosing span on this thread
    std::uint64_t req = 0; ///< op id: spans of one op share it
};

/**
 * Thread-safe span recorder. When tracing is off, begin()/end() only
 * count calls; when on, spans are kept in memory and written out by
 * writeJson() at the end of the run.
 */
class Tracer
{
  public:
    explicit Tracer(bool traced = false);

    bool traced() const { return traced_; }

    /** Switch span recording on or off (call counting continues). */
    void setTraced(bool on) { traced_ = on; }

    /** Open a span; returns its id (-1 when untraced). */
    int begin(const std::string &name, std::uint64_t req = 0,
              const std::string &tag = "");
    void end(int id);

    /** Calls recorded under any name starting with `prefix`. */
    std::uint64_t callsWithPrefix(const std::string &prefix) const;

    /** Durations in seconds of finished spans named `name` (and,
     *  when `tag` is non-empty, whose '|'-separated tag has `tag` as
     *  one of its parts). */
    std::vector<double> durations(const std::string &name,
                                  const std::string &tag = "") const;

    /** Write every span, with its self time (its duration minus the
     *  part of it its child spans cover), as a JSON array to `path`. */
    void writeJson(const std::string &path) const;

    std::size_t spanCount() const;

  private:
    std::atomic<bool> traced_;
    Clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::string, std::uint64_t> calls_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, std::uint64_t req = 0,
          const std::string &tag = "")
        : t_(t), id_(t.begin(name, req, tag))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
    std::string source; ///< "own", "standalone" or "probe:<workload>"
};

/** Named metrics in insertion order; the first writer of a name wins,
 *  so a workload's own measurement beats a probe's. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, std::size_t samples,
             const std::string &source = "own");
    bool has(const std::string &name) const;
    const Metric &get(const std::string &name) const;
    const std::vector<std::string> &names() const { return order_; }

  private:
    std::map<std::string, Metric> m_;
    std::vector<std::string> order_;
};

/** Nearest-rank percentile (0 < pct <= 100) of `v`; 0 when empty. */
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);
double sum(const std::vector<double> &v);

/** FNV-1a over a byte string. */
std::uint64_t digestBytes(const std::string &s);

/** Lower-case 16-digit hex. */
std::string hex64(std::uint64_t v);

} // namespace perfbench
