/**
 * @file
 * pmdb_perfbench: one run of one workload of the layered benchmark.
 *
 *   pmdb_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --pins FILE --work-dir DIR [--git-sha SHA]
 *
 * Prints provenance, every metric as "<name> <value> <unit>", the
 * failed checks, and as its last line one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics, or
 * with --trace 1 the per-layer metrics of a traced run. Exits 1 when a
 * check failed and 2 on a usage or set-up error (without a result).
 */

#include <malloc.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"
#include "bench/bench_util.hh"
#include "core/report.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

struct WorkloadEntry
{
    const char *name;
    void (*run)(const RunArgs &, SpanLog &, Outcome &);
    /** Busy threads while timed (for the core_limited flag). */
    unsigned threads;
};

const WorkloadEntry workloads[] = {
    {"pmdk_mix", runPmdkMix, 1},
    {"bulk_persist", runBulkPersist, 1},
    {"service_ingest", runServiceIngest, 4},
    {"crash_explore", runCrashExplore, 1},
};

/** Per-layer metrics every traced run reports, with their units. */
const std::pair<const char *, const char *> perLayerMetrics[] = {
    {"workloads.native_ns_per_event", "ns"},
    {"workloads.slowdown_x", "x"},
    {"trace.dispatch_ns_per_event", "ns"},
    {"trace.events_per_batch", "count"},
    {"trace.dbi_ns_per_event", "ns"},
    {"core.ns_per_event", "ns"},
    {"core.ns_per_flush", "ns"},
    {"core.rules_ns_per_event", "ns"},
    {"core.finalize_ms", "ms"},
    {"core.collective_free_ratio", "ratio"},
    {"core.moved_to_tree", "count"},
    {"core.array_overflow_stores", "count"},
    {"core.tree_insertions", "count"},
    {"core.tree_reorganizations", "count"},
    {"core.tree_merges", "count"},
    {"core.avg_tree_nodes_per_fence", "count"},
    {"core.bug_sites", "count"},
    {"service.publish_ns_per_event", "ns"},
    {"service.events_per_frame", "count"},
    {"service.queue_full_stalls", "count"},
    {"service.idle_poll_ratio", "ratio"},
    {"service.shard_events", "count"},
    {"service.events_dropped", "count"},
    {"service.sessions_aborted", "count"},
    {"crashsim.ns_per_image", "ns"},
    {"crashsim.dedup_ratio", "ratio"},
    {"modelcheck.ns_per_execution", "ns"},
    {"modelcheck.prune_ratio", "ratio"},
    {"modelcheck.dedup_ratio", "ratio"},
    {"modelcheck.executions", "count"},
    {"modelcheck.rounds", "count"},
    {"input.flushes_per_fence_p50", "count"},
    {"input.flushes_per_fence_max", "count"},
    {"input.events_per_op", "count"},
    {"tracing.overhead_ratio", "ratio"},
};

/** Span names whose self time the traced run reports. */
const char *const spanNames[] = {
    "bench.round",     "workloads.run",   "service.session",
    "service.connect", "service.publish", "service.finish",
    "crashsim.run",    "modelcheck.run",
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pmdb_perfbench: %s\nusage: pmdb_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 --pins FILE "
                 "--work-dir DIR [--git-sha SHA]\n",
                 why.c_str());
    std::exit(2);
}

void
printMetric(const Metric &metric)
{
    std::printf("%s %s %s\n", metric.name.c_str(),
                jsonNumber(metric.value).c_str(), metric.unit.c_str());
}

int
benchMain(int argc, char **argv)
{
    // Keep freed memory in the process instead of unmapping it and
    // faulting it back in on the next allocation: the model checker
    // and crashsim free and reallocate crash images at ~450K page
    // faults/s under glibc's defaults, and the kernel's fault cost
    // varies with the host's load far more than the code's does.
    mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's maximum on 64-bit
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    RunArgs args;
    std::string pinsPath;
    std::string gitSha = "unknown";
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0))
                usage("bad --seconds " + value);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            args.trace = value == "1";
        } else if (flag == "--pins") {
            pinsPath = value;
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else if (flag == "--git-sha") {
            gitSha = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    const WorkloadEntry *entry = nullptr;
    for (const WorkloadEntry &candidate : workloads) {
        if (args.workload == candidate.name)
            entry = &candidate;
    }
    if (!entry)
        usage("unknown --workload '" + args.workload + "'");
    if (!haveSeconds || pinsPath.empty() || args.workDir.empty())
        usage("--seconds, --pins and --work-dir are required");
    std::string error;
    if (!loadPins(pinsPath, &args.pins, &error))
        usage(error);
    ::mkdir(args.workDir.c_str(), 0700);

    const std::string buildType = PERFBENCH_BUILD_TYPE;
    const bool release = buildType == "Release";
    std::printf("# pmdb_perfbench workload=%s seed=%llu seconds=%s "
                "trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                jsonNumber(args.seconds).c_str(), args.trace ? 1 : 0);
    const std::string provenance =
        "{\"git_sha\": \"" + pmdb::jsonEscape(gitSha) + "\", " +
        pmdb::hostMetaJson(entry->threads) + ", \"build_type\": \"" +
        buildType + "\", \"non_release\": " +
        (release ? "false" : "true") + "}";
    std::printf("provenance %s\n", provenance.c_str());
    if (!release)
        std::fprintf(stderr, "pmdb_perfbench: WARNING: %s build; figures "
                             "are not comparable to Release\n",
                     buildType.c_str());

    SpanLog spans(args.trace);
    Outcome out;
    pmdb::Stopwatch total;
    entry->run(args, spans, out);
    const double totalSeconds = total.elapsedSeconds();

    const std::size_t samples = out.verdictMs.size();
    if (!args.trace) {
        out.checks.expect(highestReportablePercentile(samples) >= 0.9,
                          "only " + std::to_string(samples) +
                              " verdict samples; p90 needs >= 100");
    }
    out.checks.expect(out.throughputPerS > 0, "no work completed");

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(out.setupSeconds), "s"},
            {"throughput_per_s", out.throughputPerS, "1/s"},
            {"verdict_ms_p50", quantile(out.verdictMs, 0.5), "ms"},
            {"verdict_ms_p90", quantile(out.verdictMs, 0.9), "ms"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    } else {
        const std::map<std::string, double> self = spans.selfSeconds();
        for (const auto &[name, unit] : perLayerMetrics) {
            const auto it = out.layer.find(name);
            metrics.push_back(
                {name, it == out.layer.end() ? 0.0 : it->second, unit});
        }
        for (const char *name : spanNames) {
            const auto it = self.find(name);
            metrics.push_back({std::string("self_s.") + name,
                               it == self.end() ? 0.0 : it->second, "s"});
        }
        const std::string path = args.workDir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        out.checks.expect(spans.writeJson(path, provenance),
                          "cannot write " + path);
        std::printf("spans %zu written to %s\n", spans.size(),
                    path.c_str());
    }

    for (const Metric &metric : metrics)
        printMetric(metric);
    for (const Metric &metric : out.detail)
        printMetric(metric);
    printMetric({"verdict_samples", static_cast<double>(samples), "count"});
    printMetric({"run_s", totalSeconds, "s"});
    const double failedShare =
        static_cast<double>(out.checks.failed()) /
        static_cast<double>(std::max<std::uint64_t>(1,
                                                    out.checks.attempted()));
    printMetric({"failed_share", failedShare, "ratio"});
    const std::vector<std::string> &failures = out.checks.failures();
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        std::printf("check failed: %s\n", failures[i].c_str());
    if (failures.size() > 20)
        std::printf("check failed: ... %zu more\n", failures.size() - 20);

    const bool correct = out.checks.failed() == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.checks.attempted());
    json += ", \"failed\": " + std::to_string(out.checks.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pmdb_perfbench: %s\n", error.what());
        return 2;
    }
}
