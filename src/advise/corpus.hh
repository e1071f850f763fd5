/**
 * @file
 * Advisory corpus runner: record → minimize → repair → attribute, over
 * a deterministic grid of workload parameters.
 *
 * One corpus is one bug case run many times — every (seed, threads,
 * YCSB mix) combination of the spec records its own trace through the
 * suite's scenario, the repair engine patches each trace independently,
 * and the per-trace edits are resolved to program sites for the
 * clusterer. Repairs fan out over a worker pool, but every trace's
 * outcome lands in its pre-assigned grid slot and the cluster step is a
 * pure function of that vector, so the report is bit-identical for any
 * worker count (given deterministic recordings, i.e. single-threaded
 * workloads).
 */

#ifndef PMDB_ADVISE_CORPUS_HH
#define PMDB_ADVISE_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "advise/advise.hh"
#include "repair/case_repair.hh"
#include "repair/minimize.hh"
#include "repair/patch.hh"
#include "workloads/bug_suite.hh"

namespace pmdb
{

/** On-disk report format version. */
inline const char *adviseReportVersion = "pmdb-advise-v1";

/** The parameter grid and budgets of one advisory corpus. */
struct CorpusSpec
{
    /** Workload seeds to sweep (0 = case default). */
    std::vector<std::uint64_t> seeds{0};
    /** Thread counts to sweep (0 = case default). */
    std::vector<int> threads{0};
    /** YCSB mix letters to sweep (0 = case default). */
    std::vector<char> mixes{0};
    /** Operation-count override for every member (0 = case default). */
    std::size_t operations = 0;
    /** Repair worker threads; 0 or 1 runs inline. */
    std::size_t workers = 1;
    /**
     * Minimize correctness-rule witnesses before repairing (faster).
     * Performance rules always repair the full trace so the cascade
     * deletes every redundant occurrence and the savings estimates
     * cover the whole execution.
     */
    bool minimizeFirst = true;
    MinimizeOptions minimize;

    /** The seeds × threads × mixes grid, in deterministic order. */
    std::vector<CaseParams> enumerate() const;
};

/** The versioned advisory report (JSON/text via advise/report.hh). */
struct AdviseReport
{
    std::string version = adviseReportVersion;
    std::string caseName;
    /** Rule class of the case's expected bug. */
    std::string rule;
    /** Report renders the optimization (deletions-by-savings) view. */
    bool optimize = false;
    /** Advisories below this confidence were filtered out. */
    double minConfidence = 0.0;
    /** Per-trace evidence, in grid order. */
    std::vector<TraceOutcome> traces;
    /** Ranked advisories (already filtered to the requested view). */
    std::vector<FixAdvisory> advisories;
};

/**
 * Record, repair and attribute every grid member of @p spec for
 * @p bug_case, then cluster into ranked advisories. The returned
 * report holds the full ranked advisory list; callers apply
 * optimizeView()/confidence filtering for the requested view.
 */
AdviseReport runAdviseCorpus(const BugCase &bug_case,
                             const CorpusSpec &spec);

} // namespace pmdb

#endif // PMDB_ADVISE_CORPUS_HH
