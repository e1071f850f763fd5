/**
 * @file
 * Behavioural model of Pmemcheck, Intel's industry-quality Valgrind
 * tool for PM programs.
 *
 * Pmemcheck organizes every tracked store into a tree-like structure
 * keyed by address and re-organizes it continuously: each new store is
 * merged with adjacent tracked regions so the tree records information
 * for larger locations (Section 2.2). That per-store maintenance —
 * bookkeeping is ~82% of its total overhead — is exactly the cost
 * PMDebugger's characterization shows to be unamortizable (Pattern 1:
 * most records die at the very next fence, so tree re-organization
 * rarely pays for itself).
 *
 * Coverage (Table 6): no-durability, multiple overwrites, redundant
 * flushes, flush-nothing — four bug types. No order checking, no
 * relaxed-model rules, no cross-failure testing.
 */

#ifndef PMDB_DETECTORS_PMEMCHECK_HH
#define PMDB_DETECTORS_PMEMCHECK_HH

#include <array>

#include "core/avl_tree.hh"
#include "core/bug.hh"
#include "core/stats.hh"
#include "detectors/detector.hh"

namespace pmdb
{

/** Configuration for the Pmemcheck model. */
struct PmemcheckConfig
{
    /**
     * Pmemcheck "mult-stores" tracking: flag overwrites of dirty data.
     * Off by default, as in the real tool (--mult-stores=no); the bug
     * suite enables it for the overwrite cases.
     */
    bool detectMultipleOverwrite = false;
};

/** The Pmemcheck baseline detector. */
class PmemcheckDetector : public Detector
{
  public:
    explicit PmemcheckDetector(PmemcheckConfig config = {});

    const char *detectorName() const override { return "pmemcheck"; }

    bool isDbiBased() const override { return true; }

    void handle(const Event &event) override;

    /**
     * Batched dispatch: store runs skip the per-event kind switch. The
     * modeled per-store cost (execontext interning, eager tree insert)
     * is unchanged — it is the tool's intrinsic overhead, not dispatch
     * overhead.
     */
    void handleBatch(const Event *events, std::size_t count) override;

    const BugCollector &bugs() const override { return bugs_; }

    void finalize() override;

    DebuggerStats stats() const override;

    /** Live tracked regions (exposed for Fig 11 probing). */
    std::size_t treeNodeCount() const { return tree_.size(); }

  private:
    void simulateExecontext(const Event &event);
    void processStore(const Event &event);
    void processFlush(const Event &event);
    void processFence(const Event &event);

    PmemcheckConfig config_;
    /** Eager merging on every insert: the traditional design. */
    AvlTree tree_;
    /** Interned execution contexts (see simulateExecontext). */
    std::array<std::uint32_t, 1024> execontexts_{};
    BugCollector bugs_;
    DebuggerStats base_;
    int epochDepth_ = 0;
    bool finalized_ = false;
    SeqNum lastSeq_ = 0;
};

} // namespace pmdb

#endif // PMDB_DETECTORS_PMEMCHECK_HH
