/**
 * @file
 * Bug-suite integration for the minimize/repair engine.
 *
 * The seeded bug suite (Table 6) is the natural corpus for exercising
 * the minimizer and the repair synthesizer end to end: every case is a
 * self-contained PM program with a known bug of a known type. This
 * module records a case's event stream with *no* detectors attached (a
 * pure trace, exactly what `pmdb_tracetool record` produces), rebuilds
 * the PMDebugger configuration the suite runner would use for it, and
 * resolves the target fingerprint to minimize or repair against.
 */

#ifndef PMDB_REPAIR_CASE_REPAIR_HH
#define PMDB_REPAIR_CASE_REPAIR_HH

#include <string>

#include "repair/oracle.hh"
#include "trace/trace_file.hh"
#include "workloads/bug_suite.hh"

namespace pmdb
{

/** The suite case named @p name, or null. */
const BugCase *findBugCase(const std::string &name);

/**
 * Record the case's event stream with no detectors attached — the
 * trace a recorder/service deployment would hand to offline analysis.
 * Cross-failure hooks no-op when nothing is armed, so every scenario
 * runs cleanly detector-free. @p params (optional) applies corpus
 * overrides (seed / thread count / YCSB mix / operations) on top of
 * the case's defaults; multi-threaded scenarios run thread-safe
 * dispatch automatically.
 */
LoadedTrace recordCaseTrace(const BugCase &bug_case, bool buggy = true,
                            const CaseParams *params = nullptr);

/**
 * Resolve the repair target for @p trace: the first reported bug whose
 * type matches the case's expected type. Returns false when the replay
 * does not reproduce one (e.g. cross-failure cases, whose bugs need
 * live verifiers).
 */
bool caseTarget(const BugCase &bug_case, const LoadedTrace &trace,
                BugFingerprint *out);

} // namespace pmdb

#endif // PMDB_REPAIR_CASE_REPAIR_HH
