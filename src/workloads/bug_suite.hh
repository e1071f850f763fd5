/**
 * @file
 * The 78-case crash-consistency bug suite (Table 6).
 *
 * The paper evaluates detection capability on 78 bugs across ten
 * types: 68 from existing bug evaluation suites (synthetic bugs plus
 * bugs reproduced from PMDK's commit history) and ten extra synthetic
 * cases for the relaxed persistency models. The per-type case counts
 * match Table 6's "Bug cases" row exactly:
 *
 *   no-durability 44, multiple-overwrites 2, no-order 4,
 *   redundant-flush 6, flush-nothing 3, redundant-logging 5,
 *   lack-durability-in-epoch 4, redundant-epoch-fence 4,
 *   lack-ordering-in-strands 2, cross-failure-semantic 4.
 *
 * Every case is a real little PM program (raw pool operations or a
 * workload with a fault injection enabled); detection is measured by
 * actually running each detector on the case's event stream. Each
 * scenario also has a correct variant (buggy = false) used to verify
 * the zero-false-positive property the paper reports.
 */

#ifndef PMDB_WORKLOADS_BUG_SUITE_HH
#define PMDB_WORKLOADS_BUG_SUITE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cross_failure.hh"
#include "core/debugger.hh"
#include "detectors/pmtest.hh"
#include "detectors/xfdetector.hh"
#include "trace/runtime.hh"

namespace pmdb
{

class CrashsimSession;

/**
 * Corpus-variation overrides applied on top of a case's built-in
 * workload options. Zero-valued fields keep the case default. The
 * advisory corpus runner sweeps these to record many executions of the
 * same program, so per-trace repairs can be clustered by program site.
 * Raw (non-workload) scenarios ignore the overrides and simply record
 * identical traces.
 */
struct CaseParams
{
    /** Workload RNG seed; 0 keeps the case default. */
    std::uint64_t seed = 0;
    /** Driver thread count; 0 keeps the case default. */
    int threads = 0;
    /** YCSB mix letter 'a'..'f'; 0 keeps the case default. */
    char ycsbMix = 0;
    /** Operation count; 0 keeps the case default. */
    std::size_t operations = 0;

    /** Deterministic label, e.g. "seed=9,threads=2,mix=b". */
    std::string label() const;
};

/** Read/update set ratio modelled by a YCSB mix letter ('a'..'f'). */
double ycsbMixSetRatio(char mix);

/** Environment a bug-case scenario runs in. */
struct CaseEnv
{
    PmRuntime &runtime;
    /** Null when the case runs without PMTest annotations. */
    PmTestDetector *pmtest = nullptr;
    /** Null when PMDebugger is not attached (single-tool harnesses). */
    PmDebugger *pmdebugger = nullptr;
    /** Null when XFDetector is not attached. */
    XfDetector *xfdetector = nullptr;
    /** Non-null when a crashsim session should capture this case. */
    CrashsimSession *crashsim = nullptr;
    /**
     * Out-of-process sink for externally detected bugs. When
     * PMDebugger runs behind the detection service instead of
     * in-process, manual cross-failure checks report here (the
     * RemoteSink funnels them to the daemon over the control plane).
     */
    CrossFailureChecker::ReportSink externalBugSink;
    /** Corpus-variation overrides; null runs the case defaults. */
    const CaseParams *params = nullptr;
    /** False runs the correct variant (false-positive check). */
    bool buggy = true;

    /**
     * Register a cross-failure verifier with XFDetector (evaluated at
     * each of its failure points against the device's crash image) and
     * with the crashsim session, when one is attached.
     */
    void armCrossFailure(const PmemDevice &device,
                         CrossFailureChecker::Verifier verify);

    /**
     * Invoke the recovery program by hand at this failure point, as
     * the paper does for PMDebugger (Section 7.3).
     */
    void checkCrossFailure(const PmemDevice &device,
                           const CrossFailureChecker::Verifier &verify);
};

/** One case of the suite. */
struct BugCase
{
    int id = 0;
    std::string name;
    BugType expected = BugType::NoDurability;
    PersistencyModel model = PersistencyModel::Epoch;
    /** Order-spec text for the ordering rules (may be empty). */
    std::string orderSpec;
    /** Whether the PMTest developers annotated this case. */
    bool pmtestAnnotated = true;
    /** Enable pmemcheck/XFDetector overwrite detection for this case. */
    bool enableOverwriteDetection = false;
    /**
     * Exact PMDebugger bug identities of the buggy variant, as sorted
     * fingerprint strings (BugFingerprint::toString). Generated by
     * `pmdb_tracetool gen-fingerprints` into
     * bug_suite_fingerprints.inc and asserted by test_bug_suite, so a
     * detector change that silently shifts a bug's identity — not just
     * its count — fails the suite.
     */
    std::vector<std::string> expectedFingerprints;
    std::function<void(CaseEnv &)> scenario;
};

/** The full 78-case suite, in Table 6 type order. */
const std::vector<BugCase> &bugSuite();

/** Cases of one type. */
std::vector<const BugCase *> casesOfType(BugType type);

/** The PMDebugger configuration every runner drives @p bug_case with. */
DebuggerConfig debuggerConfigFor(const BugCase &bug_case);

} // namespace pmdb

#endif // PMDB_WORKLOADS_BUG_SUITE_HH
