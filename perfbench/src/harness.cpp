#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace perfbench {

namespace {

/** Open spans of the current thread, innermost last. */
thread_local std::vector<int> tlsOpen;

/** Whether `tag`, split on '|', has `part` as one of its parts. */
bool
hasPart(const std::string &tag, const std::string &part)
{
    std::size_t start = 0;
    for (;;) {
        std::size_t bar = tag.find('|', start);
        std::size_t end = bar == std::string::npos ? tag.size() : bar;
        if (tag.compare(start, end - start, part) == 0)
            return true;
        if (bar == std::string::npos)
            return false;
        start = bar + 1;
    }
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer(bool traced) : traced_(traced), t0_(Clock::now()) {}

int
Tracer::begin(const std::string &name, std::uint64_t req,
              const std::string &tag)
{
    std::lock_guard<std::mutex> lk(mu_);
    calls_[name]++;
    if (!traced_)
        return -1;
    Span s;
    s.name = name;
    s.tag = tag;
    s.req = req;
    s.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    s.startUs =
        std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size() - 1);
    tlsOpen.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    double now =
        std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].endUs = now;
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
}

std::uint64_t
Tracer::callsWithPrefix(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t n = 0;
    for (const auto &kv : calls_)
        if (kv.first.compare(0, prefix.size(), prefix) == 0)
            n += kv.second;
    return n;
}

std::vector<double>
Tracer::durations(const std::string &name, const std::string &tag) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && (tag.empty() || hasPart(s.tag, tag)) &&
            s.endUs >= s.startUs && s.endUs > 0)
            out.push_back((s.endUs - s.startUs) / 1e6);
    return out;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<std::size_t>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); i++)
        if (spans_[i].parent >= 0)
            kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> iv;
        for (std::size_t k : kids[i])
            iv.emplace_back(std::max(spans_[k].startUs, s.startUs),
                            std::min(spans_[k].endUs, s.endUs));
        std::sort(iv.begin(), iv.end());
        double covered = 0, reach = s.startUs;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"tag\": \"%s\", "
                     "\"req\": %llu, \"parent\": %d, \"start_us\": %.3f, "
                     "\"end_us\": %.3f, \"self_us\": %.3f}%s\n",
                     i, s.name.c_str(), s.tag.c_str(),
                     static_cast<unsigned long long>(s.req), s.parent,
                     s.startUs, s.endUs, s.endUs - s.startUs - covered,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit, std::size_t samples,
             const std::string &source)
{
    if (m_.count(name))
        return;
    m_[name] = Metric{value, unit, samples, source};
    order_.push_back(name);
}

bool
Metrics::has(const std::string &name) const
{
    return m_.count(name) != 0;
}

const Metric &
Metrics::get(const std::string &name) const
{
    return m_.at(name);
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

std::uint64_t
digestBytes(const std::string &s)
{
    return ubik::fnv1a64Bytes(
        ubik::kFnvOffsetBasis,
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
