/**
 * @file
 * What every workload of the layered benchmark shares: its arguments,
 * what it reports, and the set-up and timing loops.
 *
 * Every timed run uses batched dispatch and zero DBI costs: the DBI
 * spin is a synthetic stand-in for Valgrind and is only reported, on
 * its own line, by the traced run.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.hh"
#include "core/debugger.hh"
#include "helpers.hh"
#include "trace/runtime.hh"

namespace perfbench
{

/** Command-line arguments of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Pinned verdicts (name → count, digest). */
    std::map<std::string, Pin> pins;
    /** Scratch directory for sockets, ring files and span dumps. */
    std::string workDir;
};

/** Everything one workload run reports. */
struct Outcome
{
    /** Set-up durations, one per repetition. */
    std::vector<double> setupSeconds;
    /** Work items (events or crash states) verified per second. */
    double throughputPerS = 0.0;
    /** Time to verdict of each job, in milliseconds. */
    std::vector<double> verdictMs;
    /** The workload's own figures, printed but not in the JSON. */
    std::vector<Metric> detail;
    /** Per-layer figures (traced runs). */
    std::map<std::string, double> layer;
    Checks checks;
};

/** Set-up repetitions per run; setup_s reports their median. */
constexpr int setupRepetitions = 3;

/**
 * Build the workload's state @ref setupRepetitions times, timing each
 * build into @p out, and keep the last.
 */
template <typename Make>
auto
repeatedSetup(Outcome &out, Make make)
{
    for (int i = 1; i < setupRepetitions; ++i) {
        pmdb::Stopwatch watch;
        { auto discarded = make(); }
        out.setupSeconds.push_back(watch.elapsedSeconds());
    }
    pmdb::Stopwatch watch;
    auto kept = make();
    out.setupSeconds.push_back(watch.elapsedSeconds());
    return kept;
}

/** Jobs a run needs for a p90 with ten samples beyond it. */
constexpr std::uint64_t minJobs = 100;

/**
 * Whether a timed loop that has finished @p jobs jobs in @p elapsed
 * seconds goes on: until @p budget, and past it only to reach minJobs
 * on a slow host, never past three budgets.
 */
inline bool
keepTiming(double elapsed, double budget, std::uint64_t jobs)
{
    return elapsed < budget || (jobs < minJobs && elapsed < 3 * budget);
}

/** A PmRuntime configured the way every timed run uses it. */
inline void
configureRuntime(pmdb::PmRuntime &runtime)
{
    runtime.setDispatchMode(pmdb::DispatchMode::Batched);
    runtime.setDbiCosts(0, 0, 0);
}

/** DebuggerConfig with every detect* rule switched off. */
pmdb::DebuggerConfig rulesOff(pmdb::DebuggerConfig config);

/**
 * Verdict of replaying a stream one event at a time into a fresh
 * PmDebugger — the reference the timed runs must reproduce.
 */
struct Verdict
{
    FingerprintSet bugs;
    pmdb::DebuggerStats stats;
};

/** An event stream recorded during set-up, with its reference verdict. */
struct Recording
{
    std::vector<pmdb::Event> events;
    /** Sizes of the batches the runtime delivered, in stream order. */
    std::vector<std::uint32_t> batches;
    pmdb::NameTable names;
    pmdb::DebuggerConfig config;
    Verdict reference;
};

/**
 * Run @p program under a batched runtime with only a recorder attached
 * and compute the reference verdict under @p config.
 */
Recording record(const std::function<void(pmdb::PmRuntime &)> &program,
                 const pmdb::DebuggerConfig &config);

/** True when @p a and @p b agree on every DebuggerStats counter. */
bool sameStats(const pmdb::DebuggerStats &a, const pmdb::DebuggerStats &b);

/** A recording one job replays @p count times, of @p ops operations. */
struct JobStream
{
    const Recording *recording = nullptr;
    int count = 1;
    std::uint64_t ops = 0;
};

/**
 * Per-layer figures of the streams one job checks, into @p layer:
 * trace.events_per_batch; core.ns_per_event and core.rules_ns_per_event
 * from replays into PmDebugger::handleBatch in the recorded batches with
 * rules on and off; core.ns_per_flush from a replay split at every
 * change of event kind; core.finalize_ms; the DebuggerStats counts; and
 * the input.* properties. Times are medians of @p reps replays.
 */
void addStreamLayers(const std::vector<JobStream> &streams, int reps,
                     std::map<std::string, double> &layer);

/** Report the input properties of @p profile for @p ops operations. */
void addInputProfile(const InputProfile &profile, std::uint64_t ops,
                     std::map<std::string, double> &layer);

/**
 * Overhead of tracing: median traced job time over median untraced
 * job time, minus one.
 */
double tracingOverhead(const std::vector<double> &traced,
                       const std::vector<double> &untraced);

/** @name The workloads. */
/** @{ */
void runPmdkMix(const RunArgs &args, SpanLog &spans, Outcome &out);
void runBulkPersist(const RunArgs &args, SpanLog &spans, Outcome &out);
void runServiceIngest(const RunArgs &args, SpanLog &spans, Outcome &out);
void runCrashExplore(const RunArgs &args, SpanLog &spans, Outcome &out);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
