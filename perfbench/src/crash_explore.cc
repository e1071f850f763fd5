/**
 * @file
 * crash_explore: crashsim single-crash enumeration over hashmap_atomic
 * and b_tree, plus modelcheck to depth 3 over hashmap_atomic and the
 * seeded mc_undo_flush recovery bug, one worker each. The only
 * workload that runs crashsim and modelcheck, and the only one that
 * materializes crash images through pmem.
 *
 * A round runs all four explorations; rounds cycle through 64 seeds
 * derived from the run's seed. Model-checking cost per execution
 * differs by ~20% between seeds, so the p90 round must not be one of a
 * handful of slow seeds.
 */

#include <algorithm>
#include <cstdio>

#include "common/rng.hh"
#include "inprocess.hh"
#include "modelcheck/engine.hh"
#include "modelcheck/model.hh"
#include "workloads/crashsim_runner.hh"

namespace perfbench
{
namespace
{

constexpr std::uint64_t crashsimOps = 24;
constexpr std::uint64_t modelcheckOps = 4;
constexpr std::size_t modelcheckDepth = 3;
constexpr std::size_t seedsPerRun = 64;
constexpr std::size_t poolBytes = std::size_t(1) << 17;
const char *const crashsimWorkloads[] = {"hashmap_atomic", "b_tree"};

/** The canonical seeded case; its result is pinned. */
pmdb::ModelCheckOptions
undoFlushOptions(const std::string &workDir)
{
    pmdb::ModelCheckOptions options;
    options.run.operations = 3;
    options.maxDepth = modelcheckDepth;
    options.workers = 1;
    options.scratchDir = workDir;
    return options;
}

pmdb::ModelCheckOptions
hashmapOptions(std::uint64_t seed, const std::string &workDir)
{
    pmdb::ModelCheckOptions options;
    options.run.operations = modelcheckOps;
    options.run.recoveryOperations = 1;
    options.run.seed = seed;
    options.maxDepth = modelcheckDepth;
    options.maxStates = 1 << 20;
    options.workers = 1;
    options.scratchDir = workDir;
    return options;
}

pmdb::CrashsimResult
crashsim(const char *workload, std::uint64_t seed)
{
    pmdb::WorkloadOptions options;
    options.operations = crashsimOps;
    options.seed = seed;
    options.poolBytes = poolBytes;
    pmdb::CrashsimOptions sim;
    sim.workers = 1;
    return pmdb::runCrashsimWorkload(workload, options, sim,
                                     pmdb::DispatchMode::Batched);
}

pmdb::ModelCheckResult
modelcheck(const std::string &workload, bool buggy,
           const pmdb::ModelCheckOptions &options)
{
    auto model = pmdb::makeModelWorkload(workload, buggy);
    pmdb::ModelChecker checker(*model, options);
    return checker.run();
}

struct State
{
    std::vector<std::uint64_t> seeds;
    /** Set-up result per (seed, crashsim workload); rounds must match. */
    std::vector<pmdb::CrashsimResult> crashsimFirst;
    /** Set-up modelcheck result per seed; rounds must match. */
    std::vector<pmdb::ModelCheckResult> modelcheckFirst;
    pmdb::ModelCheckResult undoFlush;
    InputProfile profile;
    std::uint64_t profiledOps = 0;
};

State
setUp(const RunArgs &args)
{
    State state;
    pmdb::Rng rng(args.seed);
    for (std::size_t i = 0; i < seedsPerRun; ++i)
        state.seeds.push_back(rng.next());
    // Reference results, which double as the warm-up.
    for (const std::uint64_t seed : state.seeds) {
        for (const char *workload : crashsimWorkloads)
            state.crashsimFirst.push_back(crashsim(workload, seed));
        state.modelcheckFirst.push_back(modelcheck(
            "hashmap_atomic", false, hashmapOptions(seed, args.workDir)));
    }
    state.undoFlush =
        modelcheck("mc_undo_flush", true, undoFlushOptions(args.workDir));
    for (const char *workload : crashsimWorkloads) {
        const Program program =
            workloadProgram(workload, crashsimOps, state.seeds[0], {},
                            poolBytes);
        profileEvents(record(program.run, program.config).events,
                      &state.profile);
        state.profiledOps += crashsimOps;
    }
    return state;
}

/** The seeded bug is found at depth >= 2 with the pinned frontier. */
void
checkUndoFlush(const RunArgs &args, const pmdb::ModelCheckResult &result,
               Checks &checks)
{
    std::size_t depth = 0;
    for (const pmdb::ModelCheckFinding &finding : result.findings)
        depth = depth ? std::min(depth, finding.depth) : finding.depth;
    checks.expect(depth >= 2, "mc_undo_flush: seeded recovery bug not "
                              "found at depth >= 2");
    // The pin's count is the number of findings, its digest the
    // search's frontierHash.
    const auto pin = args.pins.find("crash_explore.mc_undo_flush");
    char measured[64];
    std::snprintf(measured, sizeof(measured), "%zu %016llx",
                  result.findings.size(),
                  static_cast<unsigned long long>(result.frontierHash));
    checks.expect(pin != args.pins.end() &&
                      pin->second.count == result.findings.size() &&
                      pin->second.digest == result.frontierHash,
                  std::string("mc_undo_flush: measured ") + measured +
                      ", differs from the pin "
                      "crash_explore.mc_undo_flush");
}

} // namespace

void
runCrashExplore(const RunArgs &args, SpanLog &spans, Outcome &out)
{
    const State state = repeatedSetup(out, [&] { return setUp(args); });
    checkUndoFlush(args, state.undoFlush, out.checks);

    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    SpanLog off(false);
    double images = 0, crashsimSeconds = 0, states = 0, mcSeconds = 0;
    pmdb::CrashsimStats csStats;
    pmdb::ModelCheckStats mcStats;
    std::vector<double> traced, untraced, rates;
    resetPeakRss();
    pmdb::Stopwatch wall;
    for (std::uint64_t round = 0;
         keepTiming(wall.elapsedSeconds(), budget, round); ++round) {
        const bool withSpans = args.trace && round % 2 == 1;
        SpanLog &log = withSpans ? spans : off;
        const std::size_t slot = round % seedsPerRun;
        const std::uint64_t seed = state.seeds[slot];
        ScopedSpan roundSpan(log, "bench.round", round);
        double roundSeconds = 0.0;
        const double itemsBefore = images + states;

        for (std::size_t w = 0; w < 2; ++w) {
            const char *workload = crashsimWorkloads[w];
            pmdb::Stopwatch watch;
            pmdb::CrashsimResult result;
            {
                ScopedSpan span(log, "crashsim.run", round,
                                roundSpan.handle());
                result = crashsim(workload, seed);
            }
            const double seconds = watch.elapsedSeconds();
            roundSeconds += seconds;
            crashsimSeconds += seconds;
            images += static_cast<double>(result.stats.imagesVerified);
            out.checks.expect(result.findings.empty(),
                              std::string("crashsim ") + workload +
                                  ": finding on the correct program");
            out.checks.expect(
                result.identicalTo(state.crashsimFirst[slot * 2 + w]),
                std::string("crashsim ") + workload +
                    ": result differs from the set-up run");
            csStats.imagesEnumerated += result.stats.imagesEnumerated;
            csStats.imagesDeduped += result.stats.imagesDeduped;
        }

        const auto timedModelcheck = [&](const std::string &workload,
                                         bool buggy,
                                         const pmdb::ModelCheckOptions &o) {
            pmdb::Stopwatch watch;
            pmdb::ModelCheckResult result;
            {
                ScopedSpan span(log, "modelcheck.run", round,
                                roundSpan.handle());
                result = modelcheck(workload, buggy, o);
            }
            const double seconds = watch.elapsedSeconds();
            roundSeconds += seconds;
            mcSeconds += seconds;
            states += static_cast<double>(result.stats.distinctStates);
            mcStats.executions += result.stats.executions;
            mcStats.prunedCandidates += result.stats.prunedCandidates;
            mcStats.dedupedStates += result.stats.dedupedStates;
            mcStats.distinctStates += result.stats.distinctStates;
            mcStats.rounds += result.stats.rounds;
            return result;
        };
        const pmdb::ModelCheckResult hashmap = timedModelcheck(
            "hashmap_atomic", false, hashmapOptions(seed, args.workDir));
        out.checks.expect(hashmap.findings.empty() &&
                              !hashmap.stats.budgetExhausted,
                          "modelcheck hashmap_atomic: finding or "
                          "exhausted budget on the correct program");
        out.checks.expect(hashmap.identicalTo(state.modelcheckFirst[slot]),
                          "modelcheck hashmap_atomic: result differs from "
                          "the set-up run");
        checkUndoFlush(args,
                       timedModelcheck("mc_undo_flush", true,
                                       undoFlushOptions(args.workDir)),
                       out.checks);

        out.verdictMs.push_back(roundSeconds * 1e3);
        rates.push_back((images + states - itemsBefore) / roundSeconds);
        (withSpans ? traced : untraced).push_back(roundSeconds);
    }

    // The median round's rate: a burst of host noise moves few rounds.
    out.throughputPerS = median(rates);
    out.detail.push_back(
        {"crash_states_per_s", states / mcSeconds, "1/s"});
    out.detail.push_back(
        {"crash_images_per_s", images / crashsimSeconds, "1/s"});
    if (!args.trace)
        return;

    auto &layer = out.layer;
    const auto ratio = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    layer["crashsim.ns_per_image"] = ratio(crashsimSeconds * 1e9, images);
    layer["crashsim.dedup_ratio"] =
        ratio(static_cast<double>(csStats.imagesDeduped),
              static_cast<double>(csStats.imagesEnumerated));
    // Counts per benchmark round (both model-checking runs of it).
    const double rounds = static_cast<double>(out.verdictMs.size());
    layer["modelcheck.executions"] =
        ratio(static_cast<double>(mcStats.executions), rounds);
    layer["modelcheck.rounds"] =
        ratio(static_cast<double>(mcStats.rounds), rounds);
    layer["modelcheck.ns_per_execution"] =
        ratio(mcSeconds * 1e9, static_cast<double>(mcStats.executions));
    layer["modelcheck.prune_ratio"] =
        ratio(static_cast<double>(mcStats.prunedCandidates),
              static_cast<double>(mcStats.prunedCandidates +
                                  mcStats.executions));
    layer["modelcheck.dedup_ratio"] =
        ratio(static_cast<double>(mcStats.dedupedStates),
              static_cast<double>(mcStats.dedupedStates +
                                  mcStats.distinctStates));
    layer["tracing.overhead_ratio"] = tracingOverhead(traced, untraced);
    addInputProfile(state.profile, state.profiledOps, layer);

    // The application under the explorers, without any sink attached.
    double native = 0, events = 0;
    for (const char *workload : crashsimWorkloads) {
        const Program program =
            workloadProgram(workload, crashsimOps, state.seeds[0], {},
                            poolBytes);
        std::vector<double> times;
        for (int i = 0; i < 5; ++i) {
            pmdb::PmRuntime runtime;
            configureRuntime(runtime);
            pmdb::Stopwatch watch;
            program.run(runtime);
            times.push_back(watch.elapsedSeconds());
            if (i == 0)
                events += static_cast<double>(runtime.eventCount());
        }
        native += median(times);
    }
    layer["workloads.native_ns_per_event"] = ratio(native * 1e9, events);
}

} // namespace perfbench
