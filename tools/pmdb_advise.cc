/**
 * @file
 * pmdb_advise — whole-program fix advisories from a repair corpus.
 *
 * Records one bug-suite case many times over a (seeds × threads ×
 * YCSB-mixes) grid, repairs every trace with the src/repair/ engine,
 * maps each verified edit back to its program site, and prints the
 * ranked per-site advisories ("insert CLWB after store at
 * hashmap_atomic.cc:insert.fill_entry, confirmed in 6/6 traces").
 *
 * Usage:
 *   pmdb_advise case:<name> [options]
 *
 * --workers parallelizes the per-trace repairs; the report is
 * bit-identical for any worker count (single-threaded corpora).
 * --optimize renders the Bentō-style view: deletion (performance)
 * advisories only, ranked by estimated saved flushes/fences.
 *
 * Exit codes match the pmdb_tracetool family: 0 success, 2 usage
 * error, 3 unknown case name (4 bad trace / 5 truncated trace are
 * reserved by pmdb_tracetool; this tool records in-process), 6 target
 * bug not reproduced anywhere in the corpus, 7 corpus ran but no
 * advisory at or above --min-confidence survived the requested view.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "advise/corpus.hh"
#include "advise/report.hh"
#include "common/cli.hh"
#include "repair/case_repair.hh"

namespace
{

/** Parse "9,11,13"; false on any malformed or out-of-range field. */
template <typename T>
bool
parseList(const std::string &text, std::vector<T> *out)
{
    out->clear();
    for (std::size_t at = 0; at <= text.size();) {
        const std::size_t end = std::min(text.find(',', at), text.size());
        std::uint64_t value = 0;
        if (!pmdb::cli::parseUnsigned(text.substr(at, end - at), &value) ||
            value > static_cast<std::uint64_t>(
                        std::numeric_limits<T>::max())) {
            return false;
        }
        out->push_back(static_cast<T>(value));
        at = end + 1;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    CorpusSpec spec;
    bool optimize = false;
    bool json = false;
    double min_confidence = 0.0;
    std::string out_path;
    const auto accept = [](bool ok) {
        return ok ? cli::exitOk : cli::exitUsage;
    };
    cli::FlagSet flags(argv[0], {"case:<name> [options]"});
    flags.option("--seeds A,B,..", "workload seeds",
                 [&](const std::string &text) {
                     return accept(parseList(text, &spec.seeds));
                 })
        .option("--threads N,M", "thread counts",
                [&](const std::string &text) {
                    return accept(parseList(text, &spec.threads));
                })
        .option("--mixes a,b,..", "YCSB mixes (a..f)",
                [&](const std::string &text) {
                    spec.mixes.clear();
                    for (const char c : text) {
                        if (c == ',')
                            continue;
                        if (c < 'a' || c > 'f')
                            return cli::exitUsage;
                        spec.mixes.push_back(c);
                    }
                    return accept(!spec.mixes.empty());
                })
        .option("--ops N", "operations per trace", &spec.operations)
        .option("--workers N", "parallel repairs", &spec.workers)
        .option("--min-confidence F", "advisory confidence bar",
                &min_confidence)
        .option("--max-replays N", "minimization replay cap",
                &spec.minimize.maxReplays)
        .flag("--no-minimize", "repair unminimized traces",
              &spec.minimizeFirst, false)
        .flag("--optimize", "deletion advisories by savings", &optimize)
        .flag("--json", "print the report as JSON", &json)
        .option("--out FILE", "write the report to FILE", &out_path);
    if (const int rc = flags.parse(argc, argv, 2))
        return rc;
    const std::string source = argv[1];
    if (source.rfind("case:", 0) != 0)
        return flags.usage();

    const BugCase *bug_case = findBugCase(source.substr(5));
    if (!bug_case) {
        std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                     source.substr(5).c_str());
        return cli::exitUnknownName;
    }

    AdviseReport report = runAdviseCorpus(*bug_case, spec);
    report.optimize = optimize;
    report.minConfidence = min_confidence;
    if (optimize)
        report.advisories = optimizeView(report.advisories);
    if (min_confidence > 0.0) {
        std::vector<FixAdvisory> kept;
        for (const FixAdvisory &advisory : report.advisories) {
            if (advisory.confidence >= min_confidence)
                kept.push_back(advisory);
        }
        report.advisories = std::move(kept);
    }

    const std::string rendered = json ? adviseReportToJson(report)
                                      : adviseReportToText(report);
    if (out_path.empty()) {
        std::fputs(rendered.c_str(), stdout);
    } else {
        std::FILE *out = std::fopen(out_path.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         out_path.c_str());
            return cli::exitUsage;
        }
        std::fputs(rendered.c_str(), out);
        std::fclose(out);
    }

    bool any_target = false;
    for (const TraceOutcome &trace : report.traces)
        any_target |= trace.targetPresent;
    if (!any_target) {
        std::fprintf(stderr,
                     "case %s: target bug not reproduced on any corpus "
                     "trace\n",
                     bug_case->name.c_str());
        return cli::exitNoRepair;
    }
    if (report.advisories.empty()) {
        std::fprintf(stderr,
                     "case %s: no advisory at or above confidence "
                     "%.4f\n",
                     bug_case->name.c_str(), min_confidence);
        return cli::exitNoAdvisory;
    }
    return 0;
}
