/**
 * @file
 * pmdb_trace — record, inspect, characterize, replay, minimize and
 * repair instrumented PM traces (the record-once / analyze-many
 * workflow).
 *
 * Usage:
 *   pmdb_tracetool record <workload> <ops> <out.trc> [--fault NAME]...
 *   pmdb_tracetool record case:<name> <out.trc> [options]
 *   pmdb_tracetool info <file.trc> [--sites]
 *   pmdb_tracetool charz <file.trc>      # Section 3 characterization
 *   pmdb_tracetool replay <file.trc> <checker> [options]
 *   pmdb_tracetool minimize (case:<name> | <in.trc>) <out.trc> [options]
 *   pmdb_tracetool repair (case:<name> | <in.trc>) <out.trc> [options]
 *   pmdb_tracetool gen-fingerprints [<out.inc>]
 *
 * A command given a bad flag prints its own options.
 *
 * Exit codes: 0 success, 2 usage error, 3 unknown workload/checker/case
 * name, 4 unreadable or corrupt trace file, 5 trace loaded but its
 * tail was truncated (info only; the longest valid prefix was
 * recovered), 6 no verified repair / target bug not reproduced. The
 * failing file or name is printed to stderr. (pmdb_advise extends the
 * family with 7: corpus ran but no advisory cleared the confidence
 * threshold.)
 */

#include <cstdio>
#include <string>

#include "advise/advise.hh"
#include "charz/characterize.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "core/report.hh"
#include "crashsim/crash_points.hh"
#include "detectors/registry.hh"
#include "repair/case_repair.hh"
#include "repair/minimize.hh"
#include "repair/patch.hh"
#include "trace/recorder.hh"
#include "trace/trace_file.hh"
#include "workloads/suite_runner.hh"
#include "workloads/workload.hh"

namespace
{

using pmdb::cli::exitBadTrace;
using pmdb::cli::exitNoRepair;
using pmdb::cli::exitUnknownName;

/** The top-level usage: one synopsis per command. */
int
usage(const char *argv0)
{
    return pmdb::cli::FlagSet(
               argv0,
               {"record <workload> <ops> <out.trc> [--fault NAME]...",
                "record case:<name> <out.trc> [options]",
                "info <file.trc> [--sites]", "charz <file.trc>",
                "replay <file.trc> <checker> [options]",
                "minimize (case:<name> | <in.trc>) <out.trc> [options]",
                "repair (case:<name> | <in.trc>) <out.trc> [options]",
                "gen-fingerprints [<out.inc>]"})
        .usage();
}

/**
 * Load a trace or fail with exitBadTrace, naming the file. A
 * recovered-but-truncated trace is usable (the longest valid prefix),
 * so it loads with a warning; `info` surfaces the flag and its own
 * exit code.
 */
bool
loadTrace(const char *path, pmdb::LoadedTrace *trace,
          bool *truncated = nullptr)
{
    std::string error;
    bool torn = false;
    if (!pmdb::readTrace(path, trace, &torn, &error)) {
        std::fprintf(stderr, "%s: %s\n", path, error.c_str());
        return false;
    }
    if (torn && !truncated) {
        std::fprintf(stderr,
                     "%s: warning: trace truncated mid-record; "
                     "using the recovered prefix (%zu events)\n",
                     path, trace->events.size());
    }
    if (truncated)
        *truncated = torn;
    return true;
}

/**
 * Resolve the (trace, case, target bug) triple for minimize/repair:
 * the source is either `case:<name>` (record the suite case
 * in-process) or a trace file plus `--case <name>` for the detector
 * configuration and target. Returns 0 on success, else the exit code.
 */
int
resolveTarget(const pmdb::cli::FlagSet &flags, const std::string &source,
              const std::string &case_name, pmdb::LoadedTrace *trace,
              const pmdb::BugCase **bug_case, pmdb::BugFingerprint *target)
{
    using namespace pmdb;
    if (source.rfind("case:", 0) == 0) {
        const std::string name = source.substr(5);
        *bug_case = findBugCase(name);
        if (!*bug_case) {
            std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                         name.c_str());
            return exitUnknownName;
        }
        *trace = recordCaseTrace(**bug_case);
    } else if (case_name.empty()) {
        return flags.fail("a trace-file source needs --case <name> for "
                          "the detector configuration");
    } else {
        *bug_case = findBugCase(case_name);
        if (!*bug_case) {
            std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                         case_name.c_str());
            return exitUnknownName;
        }
        if (!loadTrace(source.c_str(), trace))
            return exitBadTrace;
    }
    if (!caseTarget(**bug_case, *trace, target)) {
        std::fprintf(stderr,
                     "case %s: expected bug does not reproduce on this "
                     "trace (cross-failure bugs need live verifiers)\n",
                     (*bug_case)->name.c_str());
        return exitNoRepair;
    }
    return 0;
}

int
cmdRecord(int argc, char **argv)
{
    using namespace pmdb;
    if (argc < 4)
        return usage(argv[0]);

    const std::string source = argv[2];
    if (source.rfind("case:", 0) == 0) {
        bool buggy = true;
        CaseParams params;
        cli::FlagSet flags(argv[0],
                           {"record case:<name> <out.trc> [options]"});
        flags.flag("--correct", "the correct variant", &buggy, false)
            .option("--seed N", "workload seed", &params.seed)
            .option("--threads N", "threads", &params.threads)
            .option("--ycsb-mix a..f", "YCSB mix",
                    [&](const std::string &mix) {
                        if (mix.size() != 1 || mix[0] < 'a' ||
                            mix[0] > 'f') {
                            return cli::exitUsage;
                        }
                        params.ycsbMix = mix[0];
                        return cli::exitOk;
                    })
            .option("--ops N", "operations", &params.operations);
        if (const int rc = flags.parse(argc, argv, 4))
            return rc;
        const BugCase *bug_case = findBugCase(source.substr(5));
        if (!bug_case) {
            std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                         source.substr(5).c_str());
            return exitUnknownName;
        }
        const LoadedTrace trace =
            recordCaseTrace(*bug_case, buggy, &params);
        std::string error;
        if (!writeTraceFile(argv[3], trace.events, trace.names, &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[3], error.c_str());
            return exitBadTrace;
        }
        std::printf("recorded %zu events from case %s (%s, %s) -> %s\n",
                    trace.events.size(), bug_case->name.c_str(),
                    buggy ? "buggy" : "correct",
                    params.label().c_str(), argv[3]);
        return 0;
    }

    WorkloadOptions options;
    cli::FlagSet flags(argv[0],
                       {"record <workload> <ops> <out.trc> [options]"});
    flags.option("--fault NAME", "enable a fault (repeatable)",
                 [&](const std::string &name) {
                     options.faults.enable(name);
                     return cli::exitOk;
                 });
    if (const int rc = flags.parse(argc, argv, 5))
        return rc;
    if (const int rc =
            flags.positional("<ops>", argv[3], &options.operations)) {
        return rc;
    }
    auto workload = makeWorkload(argv[2]);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", argv[2]);
        return exitUnknownName;
    }

    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    workload->run(runtime, options);

    std::string error;
    if (!writeTraceFile(argv[4], recorder.events(), runtime.names(),
                        &error)) {
        std::fprintf(stderr, "%s: %s\n", argv[4], error.c_str());
        return exitBadTrace;
    }
    std::printf("recorded %zu events from %s -> %s\n",
                recorder.events().size(), argv[2], argv[4]);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    using namespace pmdb;
    bool sites = false;
    cli::FlagSet flags(argv[0], {"info <file.trc> [--sites]"});
    flags.flag("--sites", "list program sites and event counts", &sites);
    if (const int rc = flags.parse(argc, argv, 3))
        return rc;
    LoadedTrace trace;
    bool truncated = false;
    if (!loadTrace(argv[2], &trace, &truncated))
        return exitBadTrace;
    std::uint64_t counts[16] = {};
    for (const Event &event : trace.events)
        ++counts[static_cast<int>(event.kind)];
    std::printf("%s: %zu events, %zu interned names\n", argv[2],
                trace.events.size(), trace.names.size());
    for (int k = 0; k < 16; ++k) {
        if (counts[k]) {
            std::printf("  %-14s %llu\n",
                        toString(static_cast<EventKind>(k)),
                        static_cast<unsigned long long>(counts[k]));
        }
    }
    if (sites) {
        // Program sites interned by SiteScope annotations, with the
        // number of events each one emitted — the advisory engine's
        // attribution domain for this trace.
        const auto site_counts = siteEventCounts(trace);
        std::printf("sites: %zu\n", site_counts.size());
        for (const auto &[site, count] : site_counts) {
            std::printf("  %-48s %llu\n", site.c_str(),
                        static_cast<unsigned long long>(count));
        }
        if (site_counts.empty()) {
            std::printf("  (trace recorded without site annotations)\n");
        }
    }
    // Structural crash-surface summary: where a crash-state
    // exploration could cut this trace (per-boundary histogram) and
    // how many candidate images a bounded enumeration would cover.
    const CrashScanSummary scan = scanCrashPoints(trace.events);
    std::printf("crash surface:\n");
    const std::string scan_text = scan.toString();
    std::size_t at = 0;
    while (at < scan_text.size()) {
        std::size_t end = scan_text.find('\n', at);
        if (end == std::string::npos)
            end = scan_text.size();
        std::printf("  %s\n",
                    scan_text.substr(at, end - at).c_str());
        at = end + 1;
    }
    std::printf("  truncated      %s\n", truncated ? "yes" : "no");
    if (truncated) {
        std::fprintf(stderr,
                     "%s: trace truncated mid-record; the "
                     "counts above cover the recovered prefix\n",
                     argv[2]);
        return cli::exitTruncated;
    }
    return 0;
}

int
cmdCharz(int argc, char **argv)
{
    using namespace pmdb;
    cli::FlagSet flags(argv[0], {"charz <file.trc>"});
    if (const int rc = flags.parse(argc, argv, 3))
        return rc;
    LoadedTrace trace;
    if (!loadTrace(argv[2], &trace))
        return exitBadTrace;
    const CharacterizationResult result = characterize(trace.events);
    std::printf("%s\n", result.toString().c_str());
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    using namespace pmdb;
    bool json = false;
    bool fingerprints = false;
    std::string case_name;
    cli::FlagSet flags(argv[0], {"replay <file.trc> <checker> [options]"});
    flags.flag("--json", "print the report as JSON", &json)
        .flag("--fingerprints", "print bug fingerprints", &fingerprints)
        .option("--case NAME", "use the case's detector configuration",
                &case_name);
    if (const int rc = flags.parse(argc, argv, 4))
        return rc;
    LoadedTrace trace;
    if (!loadTrace(argv[2], &trace))
        return exitBadTrace;

    DebuggerConfig config;
    if (!case_name.empty()) {
        // The model + order spec the suite drives this case with —
        // required for the ordering rules to see anything.
        const BugCase *bug_case = findBugCase(case_name);
        if (!bug_case) {
            std::fprintf(stderr, "unknown case '%s'\n",
                         case_name.c_str());
            return exitUnknownName;
        }
        config = debuggerConfigFor(*bug_case);
    }

    auto detector = makeDetector(argv[3], config);
    if (!detector) {
        std::fprintf(stderr, "unknown checker '%s'\n", argv[3]);
        return exitUnknownName;
    }
    detector->attached(trace.names);
    TraceReplayer replayer(trace.events);
    replayer.replay(*detector);
    detector->finalize();

    if (fingerprints) {
        for (const BugFingerprint &fp : detector->bugs().fingerprints())
            std::printf("%s\n", fp.toString().c_str());
    } else if (json) {
        std::printf("%s\n", reportToJson(detector->bugs()).c_str());
    } else {
        std::printf("%s", detector->bugs().summary().c_str());
    }
    return 0;
}

int
cmdMinimize(int argc, char **argv)
{
    using namespace pmdb;
    std::string case_name;
    MinimizeOptions options;
    cli::FlagSet flags(
        argv[0], {"minimize (case:<name> | <in.trc>) <out.trc> [options]"});
    flags.option("--case NAME", "case of a trace-file source", &case_name)
        .option("--max-replays N", "oracle replay cap", &options.maxReplays);
    if (const int rc = flags.parse(argc, argv, 4))
        return rc;

    LoadedTrace trace;
    const BugCase *bug_case = nullptr;
    BugFingerprint target;
    if (const int rc = resolveTarget(flags, argv[2], case_name, &trace,
                                     &bug_case, &target)) {
        return rc;
    }

    const MinimizeResult result = minimizeWitness(
        trace, target, debuggerConfigFor(*bug_case), options);
    if (!result.reproduced) {
        std::fprintf(stderr, "target %s not reproduced on full trace\n",
                     target.toString().c_str());
        return exitNoRepair;
    }

    std::string error;
    if (!writeTraceFile(argv[3], result.events, trace.names, &error)) {
        std::fprintf(stderr, "%s: %s\n", argv[3], error.c_str());
        return exitBadTrace;
    }
    std::printf("target     %s\n", target.toString().c_str());
    std::printf("minimized  %zu -> %zu events (%.1fx), %llu replays "
                "(%llu cached) -> %s\n",
                result.stats.originalEvents,
                result.stats.minimizedEvents,
                result.stats.shrinkFactor(),
                static_cast<unsigned long long>(result.stats.replays),
                static_cast<unsigned long long>(result.stats.cacheHits),
                argv[3]);
    return 0;
}

/**
 * The machine-readable repair result: one record per edit, with the
 * same program-site attribution the advisory engine clusters on.
 */
std::string
repairJson(const pmdb::BugCase &bug_case,
           const pmdb::BugFingerprint &target,
           const pmdb::RepairResult &result, const pmdb::NameTable &names)
{
    using namespace pmdb;
    JsonWriter out;
    out.beginObject()
        .field("case", bug_case.name)
        .field("target", target.toString())
        .field("verified", result.verified);
    if (!result.verified) {
        return out.field("candidates", result.candidatesTried)
            .field("replays", result.replays)
            .endObject()
            .str();
    }
    out.field("strategy", result.patch.strategy)
        .field("candidates", result.candidatesTried)
        .field("replays", result.replays)
        .key("edits")
        .beginArray();
    for (const TraceEdit &edit : result.patch.edits) {
        std::string site;
        if (edit.siteId != noName && edit.siteId < names.size())
            site = names.name(edit.siteId);
        out.beginObject()
            .field("op", edit.op == TraceEdit::Op::Insert ? "insert"
                                                          : "delete")
            .field("event", toString(edit.event.kind))
            .field("rule", toString(edit.rule))
            .field("site", site)
            .field("anchor_seq", edit.anchorSeq)
            .field("note", edit.note)
            .endObject();
    }
    return out.endArray().endObject().str();
}

int
cmdRepair(int argc, char **argv)
{
    using namespace pmdb;
    std::string case_name;
    bool json = false;
    cli::FlagSet flags(
        argv[0], {"repair (case:<name> | <in.trc>) <out.trc> [options]"});
    flags.option("--case NAME", "case of a trace-file source", &case_name)
        .flag("--json", "print the patch as JSON", &json);
    if (const int rc = flags.parse(argc, argv, 4))
        return rc;

    LoadedTrace trace;
    const BugCase *bug_case = nullptr;
    BugFingerprint target;
    if (const int rc = resolveTarget(flags, argv[2], case_name, &trace,
                                     &bug_case, &target)) {
        return rc;
    }

    const RepairResult result =
        repairTrace(trace, target, debuggerConfigFor(*bug_case));
    if (!json)
        std::printf("target     %s\n", target.toString().c_str());
    if (!result.verified) {
        if (json) {
            std::printf("%s\n", repairJson(*bug_case, target, result,
                                           trace.names)
                                    .c_str());
        }
        std::fprintf(stderr,
                     "no verified repair for %s (%zu candidates, %llu "
                     "replays)\n",
                     target.toString().c_str(), result.candidatesTried,
                     static_cast<unsigned long long>(result.replays));
        return exitNoRepair;
    }

    std::string error;
    if (!writeTraceFile(argv[3], result.patchedEvents, trace.names,
                        &error)) {
        std::fprintf(stderr, "%s: %s\n", argv[3], error.c_str());
        return exitBadTrace;
    }
    if (json) {
        std::printf("%s\n",
                    repairJson(*bug_case, target, result, trace.names)
                        .c_str());
    } else {
        for (const std::string &line : result.advisory)
            std::printf("advisory   %s\n", line.c_str());
        std::printf("repaired   %zu edits verified in %zu candidates, "
                    "%llu replays -> %s\n",
                    result.patch.edits.size(), result.candidatesTried,
                    static_cast<unsigned long long>(result.replays),
                    argv[3]);
    }
    return 0;
}

int
cmdGenFingerprints(int argc, char **argv)
{
    using namespace pmdb;
    cli::FlagSet flags(argv[0], {"gen-fingerprints [<out.inc>]"});
    if (const int rc = flags.parse(argc, argv, argc > 2 ? 3 : 2))
        return rc;
    std::FILE *out = stdout;
    if (argc > 2) {
        out = std::fopen(argv[2], "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         argv[2]);
            return exitBadTrace;
        }
    }
    std::fprintf(out,
                 "// Expected PMDebugger bug fingerprints per suite "
                 "case.\n"
                 "// Generated by `pmdb_tracetool gen-fingerprints`; "
                 "do not edit by hand.\n");
    for (const BugCase &bug_case : bugSuite()) {
        for (const std::string &fp : caseFingerprints(bug_case)) {
            std::fprintf(out, "{\"%s\", \"%s\"},\n",
                         bug_case.name.c_str(), fp.c_str());
        }
    }
    if (out != stdout)
        std::fclose(out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string command = argv[1];
    if (command == "record")
        return cmdRecord(argc, argv);
    if (command == "info")
        return cmdInfo(argc, argv);
    if (command == "charz")
        return cmdCharz(argc, argv);
    if (command == "replay")
        return cmdReplay(argc, argv);
    if (command == "minimize")
        return cmdMinimize(argc, argv);
    if (command == "repair")
        return cmdRepair(argc, argv);
    if (command == "gen-fingerprints")
        return cmdGenFingerprints(argc, argv);
    return usage(argv[0]);
}
