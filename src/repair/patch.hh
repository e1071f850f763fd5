/**
 * @file
 * Repair synthesizer: turn a diagnosed bug into a verified trace patch.
 *
 * For each rule class with a patch vocabulary the synthesizer
 * enumerates candidate edits against the recorded event sequence —
 * inserting CLWB/SFENCE events at the durability or ordering boundary
 * the rule found violated, or deleting the redundant operation a
 * performance rule flagged — and verifies each candidate by replaying
 * the fully patched trace through a fresh detector. A patch is
 * *verified* when the target bug is gone, no bug absent from the
 * original run appears, and (for correctness rules) the target range is
 * structurally durable at trace end under the crashsim line-state scan.
 * The cheapest verified candidate (fewest edits) wins.
 */

#ifndef PMDB_REPAIR_PATCH_HH
#define PMDB_REPAIR_PATCH_HH

#include <string>
#include <vector>

#include "repair/oracle.hh"
#include "trace/trace_file.hh"

namespace pmdb
{

/** One edit against the original event sequence. */
struct TraceEdit
{
    enum class Op
    {
        /** Insert `event` immediately before original index `index`. */
        Insert,
        /** Delete the event at original index `index`. */
        Delete,
    };

    Op op = Op::Insert;
    /**
     * Insert: position in the working sequence at insertion time
     * (insert before it); the synthesizer applies edits iteratively,
     * so later edits see earlier ones. Cascade deletes likewise record
     * the working-sequence position at deletion time; the `note` names
     * the event by kind and seq, which is the stable way to identify
     * it.
     */
    std::size_t index = 0;
    /** Insert: the event to add. Delete: a copy of the removed event. */
    Event event;
    /** Human-readable advisory line ("insert CLWB(0x...) ..."). */
    std::string note;

    /** @name Program-site attribution (advisory clustering). */
    /** @{ */

    /** Rule class that motivated the edit. */
    BugType rule = BugType::NoDurability;
    /**
     * Interned name (in the trace's NameTable) of the anchor event's
     * program site: for inserts, the event the edit rides next to (the
     * last store/flush of the repaired range, the governing fence);
     * for deletes, the deleted event itself. noName when the trace was
     * recorded without site annotations — the advisory engine then
     * falls back to a synthetic region-relative label.
     */
    std::uint32_t siteId = noName;
    /** Original sequence number of the anchor event. */
    SeqNum anchorSeq = 0;

    /** @} */
};

/** A candidate (or final) patch: edits sorted by original index. */
struct TracePatch
{
    std::vector<TraceEdit> edits;
    /** One-line strategy description ("insert flush+fence after ..."). */
    std::string strategy;
};

/** Outcome of one repair attempt. */
struct RepairResult
{
    /** The target bug reproduced on the input trace. */
    bool targetPresent = false;
    /** A candidate passed full verification. */
    bool verified = false;
    TracePatch patch;
    /** The patched event sequence (renumbered), when verified. */
    std::vector<Event> patchedEvents;
    /** Advisory lines for the user (one per edit, plus the strategy). */
    std::vector<std::string> advisory;
    std::size_t candidatesTried = 0;
    std::uint64_t replays = 0;
};

/**
 * True if @p type has a patch vocabulary — repairTrace can synthesize
 * candidate patches for it. CrossFailureSemantic bugs need live
 * verifiers and cannot be repaired from a trace.
 */
bool ruleClassHasVocabulary(BugType type);

/**
 * True for rule classes repaired by insertion (correctness bugs);
 * false for the performance rules repaired by deletion.
 */
bool isCorrectnessRule(BugType type);

/**
 * Synthesize and verify a patch for @p target against @p trace,
 * replaying candidates through a PmDebugger configured with @p config.
 */
RepairResult repairTrace(const LoadedTrace &trace,
                         const BugFingerprint &target,
                         const DebuggerConfig &config);

} // namespace pmdb

#endif // PMDB_REPAIR_PATCH_HH
