/**
 * @file
 * Helpers of the layered benchmark that carry no workload logic:
 * quantiles and the tail-percentile rule, bug-fingerprint sets and
 * their pinned digests, pass/fail accounting, in-memory spans, and the
 * metric report every run prints.
 */

#ifndef PERFBENCH_HELPERS_HH
#define PERFBENCH_HELPERS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/bug.hh"
#include "trace/event.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Median of @p values (0 for an empty vector). */
double median(std::vector<double> values);

/**
 * Nearest-rank quantile @p q in [0, 1] of @p values (0 when empty):
 * the smallest sample with at least q * n samples at or below it.
 */
double quantile(std::vector<double> values, double q);

/**
 * The highest percentile of the ladder 50, 90, 99, 99.9 that has at
 * least ten samples beyond it among @p samples, as a fraction (0.9 for
 * p90); 0 when even the median has fewer than ten samples above it.
 */
double highestReportablePercentile(std::size_t samples);

/** Stable per-bug identities of a report, sorted and unique. */
using FingerprintSet = std::vector<pmdb::BugFingerprint>;

FingerprintSet fingerprintSet(const std::vector<pmdb::BugReport> &bugs);

/** Order-independent 64-bit digest of a fingerprint set. */
std::uint64_t digest(const FingerprintSet &set);

/**
 * Empty when @p actual equals @p expected; otherwise a one-line
 * description naming how many fingerprints are missing and extra,
 * with the first of each.
 */
std::string compareFingerprints(const FingerprintSet &expected,
                                const FingerprintSet &actual);

/** A pinned verdict: the size and digest of a fingerprint set. */
struct Pin
{
    std::size_t count = 0;
    std::uint64_t digest = 0;
};

/**
 * Pinned verdicts keyed by name, parsed from lines of
 * "<name> <count> <hex digest>"; '#' starts a comment. Returns false
 * and sets @p error on a malformed line or an unreadable file.
 */
bool loadPins(const std::string &path, std::map<std::string, Pin> *out,
              std::string *error);

/**
 * Empty when @p set matches the pin named @p name, otherwise why not
 * (including a missing pin).
 */
std::string checkPin(const std::map<std::string, Pin> &pins,
                     const std::string &name, const FingerprintSet &set);

/** Counts correctness checks; every failure is kept for the log. */
class Checks
{
  public:
    /** Record one check; returns @p ok. */
    bool expect(bool ok, const std::string &what);

    /** Add the checks recorded by @p other. */
    void merge(const Checks &other);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/**
 * Spans recorded around the benchmark's calls into each layer, kept in
 * memory until the run ends. A disabled log records nothing, so the
 * untraced runs pay one branch per call site. Safe to share between
 * threads; a span's children must be opened by the thread that opened
 * it.
 */
class SpanLog
{
  public:
    static constexpr std::uint32_t noParent = ~0u;

    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::uint32_t parent = noParent;
        /** Run, round or session the span belongs to. */
        std::uint64_t id = 0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its handle (noParent when disabled). */
    std::uint32_t begin(const char *name, std::uint64_t id,
                        std::uint32_t parent = noParent);

    void end(std::uint32_t handle);

    /** Number of spans recorded. */
    std::size_t size() const;

    /**
     * Self time per span name in seconds: each span's duration minus
     * the part of it its direct children cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /**
     * Write the spans as Chrome trace-event JSON, with @p metadata (a
     * JSON object) under "otherData".
     */
    bool writeJson(const std::string &path,
                   const std::string &metadata) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t id,
               std::uint32_t parent = SpanLog::noParent)
        : log_(log), handle_(log.begin(name, id, parent))
    {
    }
    ~ScopedSpan() { log_.end(handle_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t handle() const { return handle_; }

  private:
    SpanLog &log_;
    std::uint32_t handle_;
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Input properties measured from a recorded event stream. */
struct InputProfile
{
    std::uint64_t events = 0;
    /** Flushes in each fence interval (the tail interval included). */
    std::vector<double> flushesPerFence;
};

/** Accumulate the fence intervals of @p events into @p profile. */
void profileEvents(const std::vector<pmdb::Event> &events,
                   InputProfile *profile);

/**
 * Trim the heap and reset the peak-RSS mark, so that peakRssMib()
 * covers only what runs after this call (Linux: /proc/self/clear_refs).
 * Without that file the mark keeps covering the whole process.
 */
void resetPeakRss();

/** Peak resident set size since resetPeakRss(), in MiB. */
double peakRssMib();

/** Render @p value for JSON: finite numbers with all their digits. */
std::string jsonNumber(double value);

} // namespace perfbench

#endif // PERFBENCH_HELPERS_HH
