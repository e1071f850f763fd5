/**
 * @file
 * In-process checking, shared by pmdk_mix and bulk_persist: a set of
 * PM programs, each run under a PmDebugger attached to its PmRuntime,
 * with its verdict compared against a per-event replay of the stream
 * recorded during set-up.
 */

#ifndef PERFBENCH_INPROCESS_HH
#define PERFBENCH_INPROCESS_HH

#include <functional>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** One PM program the in-process workloads check. */
struct Program
{
    /** Label used in checks, pins and detail lines. */
    std::string name;
    /** Carries a seeded fault (reported under ".buggy"). */
    bool buggy = false;
    /** Application operations one run issues. */
    std::uint64_t ops = 0;
    pmdb::DebuggerConfig config;
    /** Run the program to its programEnd() against @p runtime. */
    std::function<void(pmdb::PmRuntime &runtime)> run;
    /**
     * Optional check of a verdict beyond equality with the reference
     * replay: empty when @p bugs is right, otherwise why not.
     */
    std::function<std::string(const FingerprintSet &bugs)> expect;
};

/**
 * Build a Program that runs the named Workload, on a pool of
 * @p pool_bytes (0 = the workload's default).
 */
Program workloadProgram(const std::string &workload, std::uint64_t ops,
                        std::uint64_t seed, const std::string &fault = {},
                        std::size_t pool_bytes = 0);

/**
 * Run the in-process workload: set up @p programs (recording, reference
 * verdicts, warm-up) and check each of @p pinned against the pin of its
 * name, then time rounds of one run of every program for the run's
 * seconds. @p split reports ".clean"/".buggy" detail rates.
 */
void runInProcess(const RunArgs &args,
                  const std::function<std::vector<Program>()> &programs,
                  const std::vector<Program> &pinned, bool split,
                  SpanLog &spans, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_INPROCESS_HH
