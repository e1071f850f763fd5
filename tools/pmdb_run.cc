/**
 * @file
 * pmdb_run — the repository's equivalent of the paper artifact's
 * `run.sh <CHECKER> <INPUTSIZE> <WORKLOAD>` scripts: run one workload
 * under one detector and print the bug report and bookkeeping
 * statistics (optionally as JSON).
 *
 * Usage:
 *   pmdb_run <checker> <inputsize> <workload> [options]
 *   pmdb_run --list
 * (the options are listed by the usage text a bad flag prints).
 *
 * With --connect, detection runs out-of-process: the event stream is
 * shipped to a pmdbd daemon at SOCKET and the daemon's report is
 * printed. The checker must be "pmdebugger" (that is what the daemon
 * runs).
 *
 * With --shared-pool, the workload maps the given multi-writer pool
 * file as writer N (shared-pool workloads only, e.g. shared_queue);
 * combined with --connect, the daemon additionally merges all
 * sessions on the same pool and runs the cross-session rules
 * (pmdb_crossproc drives this two-writer setup end to end).
 *
 *   checker: pmdebugger | pmemcheck | pmtest | xfdetector |
 *            persistence_inspector | nulgrind | none
 *   workload: b_tree, c_tree, r_tree, rb_tree, hashmap_tx,
 *             hashmap_atomic, synth_strand, memcached, redis,
 *             shared_queue, ycsb_a..ycsb_f
 */

#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/cli.hh"
#include "common/stopwatch.hh"
#include "core/report.hh"
#include "detectors/pmtest.hh"
#include "detectors/registry.hh"
#include "service/remote_sink.hh"
#include "trace/recorder.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

namespace
{

/**
 * Print the registered checker and workload names, one per line,
 * grouped under a header — script-friendly discovery instead of
 * erroring on an unknown name.
 */
void
listRegistries()
{
    std::printf("checkers:\n");
    for (const std::string &name : pmdb::detectorNames())
        std::printf("  %s\n", name.c_str());
    std::printf("  none\n");
    std::printf("workloads:\n");
    for (const std::string &name : pmdb::workloadNames())
        std::printf("  %s\n", name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    cli::FlagSet flags(argv[0],
                       {"<checker> <inputsize> <workload> [options]",
                        "--list"});
    WorkloadOptions options;
    std::string trace_out;
    std::string connect_socket;
    SlowConsumerPolicy policy = SlowConsumerPolicy::Block;
    // An unchecked value would size a multi-hundred-GB ring mapping.
    constexpr std::uint32_t maxRingSlots = 1u << 22;
    std::uint32_t ring_slots = 4096;
    bool json = false;
    bool list = false;
    flags.option("--threads N", "workload threads", &options.threads)
        .option("--fault NAME", "enable a fault (repeatable)",
                [&](const std::string &name) {
                    options.faults.enable(name);
                    return cli::exitOk;
                })
        .option("--set-ratio R", "memcached set fraction", &options.setRatio)
        .option("--seed S", "workload seed (default 42)", &options.seed)
        .option("--trace-out FILE", "record the event trace", &trace_out)
        .option("--connect SOCKET", "detect in the pmdbd at SOCKET",
                &connect_socket)
        .option("--policy block|drop|spill", "slow-consumer policy",
                [&](const std::string &name) {
                    return parseSlowConsumerPolicy(name, &policy)
                               ? cli::exitOk
                               : cli::exitUsage;
                })
        .option("--ring-slots N", "event ring slots", &ring_slots, 1,
                maxRingSlots)
        .option("--shared-pool FILE", "map a multi-writer pool file",
                &options.sharedPoolPath)
        .option("--writer N", "writer id in the shared pool",
                &options.sharedWriter)
        .flag("--json", "print the report as JSON", &json)
        .flag("--list", "print the checker and workload names", &list);
    // `--list` stands alone; otherwise three positionals lead.
    const int first = argc >= 2 && argv[1][0] == '-' ? 1 : 4;
    if (const int rc = flags.parse(argc, argv, first))
        return rc;
    if (first == 4) {
        if (const int rc = flags.positional("<inputsize>", argv[2],
                                            &options.operations)) {
            return rc;
        }
    }
    if (list) {
        listRegistries();
        return 0;
    }
    if (first == 1)
        return flags.usage();
    const std::string checker = argv[1];
    const std::string workload_name = argv[3];
    const std::size_t ops = options.operations;

    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return cli::exitUsage;
    }

    PmRuntime runtime;

    if (!connect_socket.empty()) {
        if (checker != "pmdebugger") {
            std::fprintf(stderr,
                         "--connect runs the daemon's pmdebugger; "
                         "pass 'pmdebugger' as the checker\n");
            return cli::exitUsage;
        }
        const std::string base =
            "/tmp/pmdb_client." + std::to_string(::getpid());
        RemoteSink::Options ropts;
        ropts.socketPath = connect_socket;
        ropts.ringPath = base + ".ring";
        ropts.ringSlots = ring_slots;
        ropts.policy = policy;
        if (policy == SlowConsumerPolicy::Spill)
            ropts.spillPath = base + ".spill";
        ropts.model = workload->model();
        ropts.orderSpecText = workload->orderSpecText();
        ropts.sharedPoolPath = options.sharedPoolPath;
        ropts.sharedWriterId = options.sharedWriter;

        RemoteSink sink;
        std::string error;
        if (!sink.connect(ropts, &error)) {
            std::fprintf(stderr, "pmdbd connect failed: %s\n",
                         error.c_str());
            return cli::exitFailure;
        }
        runtime.attach(&sink);

        Stopwatch watch;
        workload->run(runtime, options);
        const double seconds = watch.elapsedSeconds();

        ReportBody report;
        if (!sink.finish(&report, &error)) {
            std::fprintf(stderr, "pmdbd session failed: %s\n",
                         error.c_str());
            return cli::exitFailure;
        }
        if (json) {
            std::printf("%s\n", report.json.c_str());
        } else {
            std::printf("%s via pmdbd: %zu ops in %.4fs\n",
                        workload_name.c_str(), ops, seconds);
            std::printf("events: %llu processed, %llu dropped\n",
                        static_cast<unsigned long long>(
                            report.eventsProcessed),
                        static_cast<unsigned long long>(
                            report.eventsDropped));
            BugCollector bugs;
            for (const BugReport &bug : report.bugs)
                bugs.report(bug);
            std::printf("%s", bugs.summary().c_str());
        }
        return 0;
    }

    DebuggerConfig config;
    config.model = workload->model();
    if (!workload->orderSpecText().empty())
        config.orderSpec = OrderSpec::fromText(workload->orderSpecText());

    std::unique_ptr<Detector> detector;
    if (checker != "none") {
        detector = makeDetector(checker, config);
        if (!detector) {
            std::fprintf(stderr, "unknown checker '%s'\n",
                         checker.c_str());
            return cli::exitUsage;
        }
        runtime.attach(detector.get());
        if (checker == "pmtest") {
            options.pmtest =
                static_cast<PmTestDetector *>(detector.get());
        }
    }

    TraceRecorder recorder;
    if (!trace_out.empty())
        runtime.attach(&recorder);

    Stopwatch watch;
    workload->run(runtime, options);
    const double seconds = watch.elapsedSeconds();
    if (detector)
        detector->finalize();

    if (!trace_out.empty()) {
        std::string error;
        if (!writeTraceFile(trace_out, recorder.events(),
                            runtime.names(), &error)) {
            std::fprintf(stderr, "trace write failed: %s\n",
                         error.c_str());
            return cli::exitFailure;
        }
        std::fprintf(stderr, "trace: %zu events -> %s\n",
                     recorder.events().size(), trace_out.c_str());
    }

    if (!detector) {
        std::printf("%s: %zu ops in %.4fs (no checker)\n",
                    workload_name.c_str(), ops, seconds);
        return 0;
    }

    if (json) {
        std::printf("%s\n",
                    reportToJson(detector->bugs(), detector->stats())
                        .c_str());
    } else {
        std::printf("%s under %s: %zu ops in %.4fs\n",
                    workload_name.c_str(), checker.c_str(), ops,
                    seconds);
        std::printf("%s", detector->bugs().summary().c_str());
        std::printf("%s\n", detector->stats().toString().c_str());
    }
    return 0;
}
