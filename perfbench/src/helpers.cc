#include "helpers.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/report.hh"

namespace perfbench
{

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
highestReportablePercentile(std::size_t samples)
{
    double best = 0.0;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        // Samples strictly above the nearest-rank q-quantile.
        const double rank =
            std::ceil(q * static_cast<double>(samples));
        if (static_cast<double>(samples) - rank >= 10.0)
            best = q;
    }
    return best;
}

FingerprintSet
fingerprintSet(const std::vector<pmdb::BugReport> &bugs)
{
    FingerprintSet set;
    set.reserve(bugs.size());
    for (const pmdb::BugReport &bug : bugs)
        set.push_back(pmdb::fingerprintOf(bug));
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    return set;
}

std::uint64_t
digest(const FingerprintSet &set)
{
    // FNV-1a over the per-fingerprint hashes of the sorted set.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const pmdb::BugFingerprint &fp : set) {
        std::uint64_t v = fp.hash();
        for (int i = 0; i < 8; ++i) {
            h ^= v & 0xff;
            h *= 0x100000001b3ULL;
            v >>= 8;
        }
    }
    return h;
}

std::string
compareFingerprints(const FingerprintSet &expected,
                    const FingerprintSet &actual)
{
    FingerprintSet missing;
    FingerprintSet extra;
    std::set_difference(expected.begin(), expected.end(), actual.begin(),
                        actual.end(), std::back_inserter(missing));
    std::set_difference(actual.begin(), actual.end(), expected.begin(),
                        expected.end(), std::back_inserter(extra));
    if (missing.empty() && extra.empty())
        return {};
    std::string out = std::to_string(missing.size()) + " missing, " +
                      std::to_string(extra.size()) + " extra";
    if (!missing.empty())
        out += "; first missing " + missing.front().toString();
    if (!extra.empty())
        out += "; first extra " + extra.front().toString();
    return out;
}

bool
loadPins(const std::string &path, std::map<std::string, Pin> *out,
         std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    int number = 0;
    while (std::getline(in, line)) {
        ++number;
        line = line.substr(0, line.find('#'));
        std::istringstream fields(line);
        std::string name;
        if (!(fields >> name))
            continue;
        Pin pin;
        std::string hex;
        std::string rest;
        if (!(fields >> pin.count >> hex) || (fields >> rest)) {
            *error = path + ":" + std::to_string(number) +
                     ": expected <name> <count> <hex digest>";
            return false;
        }
        char *end = nullptr;
        pin.digest = std::strtoull(hex.c_str(), &end, 16);
        if (hex.empty() || *end != '\0') {
            *error = path + ":" + std::to_string(number) +
                     ": bad hex digest " + hex;
            return false;
        }
        (*out)[name] = pin;
    }
    return true;
}

std::string
checkPin(const std::map<std::string, Pin> &pins, const std::string &name,
         const FingerprintSet &set)
{
    char actual[64];
    std::snprintf(actual, sizeof(actual), "%zu %016llx", set.size(),
                  static_cast<unsigned long long>(digest(set)));
    const auto it = pins.find(name);
    if (it == pins.end())
        return "no pin named " + name + " (measured " + actual + ")";
    if (it->second.count == set.size() &&
        it->second.digest == digest(set))
        return {};
    char pinned[64];
    std::snprintf(pinned, sizeof(pinned), "%zu %016llx", it->second.count,
                  static_cast<unsigned long long>(it->second.digest));
    return "pin " + name + " is " + pinned + ", measured " + actual;
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        failures_.push_back(what);
    }
    return ok;
}

void
Checks::merge(const Checks &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    failures_.insert(failures_.end(), other.failures_.begin(),
                     other.failures_.end());
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::uint32_t
SpanLog::begin(const char *name, std::uint64_t id, std::uint32_t parent)
{
    if (!enabled_)
        return noParent;
    Span span;
    span.name = name;
    span.parent = parent;
    span.id = id;
    span.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
SpanLog::end(std::uint32_t handle)
{
    if (handle == noParent)
        return;
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[handle].endNs = now;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of one parent never overlap (spans nest per thread and
    // each thread opens its own roots), so their durations add.
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent != noParent)
            childNs[span.parent] += span.endNs - span.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        self[span.name] +=
            static_cast<double>(span.endNs - span.startNs - childNs[i]) *
            1e-9;
    }
    return self;
}

bool
SpanLog::writeJson(const std::string &path,
                   const std::string &metadata) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld}}",
                     i ? "," : "",
                     pmdb::jsonEscape(span.name).c_str(),
                     static_cast<unsigned long long>(span.id),
                     static_cast<double>(span.startNs) * 1e-3,
                     static_cast<double>(span.endNs - span.startNs) * 1e-3,
                     i,
                     span.parent == noParent
                         ? -1LL
                         : static_cast<long long>(span.parent));
    }
    std::fprintf(out, "\n], \"otherData\": %s}\n", metadata.c_str());
    return std::fclose(out) == 0;
}

void
profileEvents(const std::vector<pmdb::Event> &events,
              InputProfile *profile)
{
    double inInterval = 0;
    for (const pmdb::Event &event : events) {
        ++profile->events;
        if (event.kind == pmdb::EventKind::Flush) {
            ++inInterval;
        } else if (event.kind == pmdb::EventKind::Fence) {
            profile->flushesPerFence.push_back(inInterval);
            inInterval = 0;
        }
    }
    profile->flushesPerFence.push_back(inInterval);
}

void
resetPeakRss()
{
    // Return the set-up's freed memory first, so that the mark starts
    // from what is live rather than from where the heap happened to end.
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5\n";
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace perfbench
