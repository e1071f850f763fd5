/**
 * @file
 * The instrumented PM event stream.
 *
 * The paper instruments three fundamental operations — memory store,
 * cache-line flush (CLWB / CLFLUSH / CLFLUSHOPT) and memory fence
 * (SFENCE) — with Valgrind, plus the epoch/strand region annotations of
 * Table 2. This module defines that stream as typed events. Every PM
 * program in this repository issues its persistent-memory operations
 * through PmRuntime, which dispatches these events to attached
 * TraceSinks (detectors, the PM device model, recorders).
 */

#ifndef PMDB_TRACE_EVENT_HH
#define PMDB_TRACE_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace pmdb
{

/** The kind of an instrumented PM operation. */
enum class EventKind : std::uint8_t
{
    /** A store to registered persistent memory. */
    Store,
    /**
     * An instrumented read of persistent memory. Only multi-writer
     * shared-pool programs emit these (src/pmem/shared_device.hh):
     * cross-process visibility rules need to see *when* one writer
     * observes another writer's data. Per-session detectors ignore
     * Load events entirely — single-writer detection stays load-free,
     * matching the paper's instrumentation.
     */
    Load,
    /** A cache-line writeback (CLF) instruction. */
    Flush,
    /** An ordering / durability fence (SFENCE). */
    Fence,
    /** Epoch section begin (PMDK TX_BEGIN). */
    EpochBegin,
    /** Epoch section end (PMDK TX_END); implies a durability barrier. */
    EpochEnd,
    /** Strand section begin (strand persistency model). */
    StrandBegin,
    /** Strand section end. */
    StrandEnd,
    /** Explicit cross-strand ordering point (JoinStrand). */
    JoinStrand,
    /**
     * An undo-log append inside a transaction. The address/size denote
     * the *logged data object*, per Section 5.2's redundant-logging rule
     * ("the address of the data object in the log is treated as the
     * address to be stored into").
     */
    TxLog,
    /** Registration of a persistent region or named variable. */
    RegisterPmem,
    /** End of a traced program; detectors run their finalize rules. */
    ProgramEnd,
};

/** Which CLF instruction performed a Flush event. */
enum class FlushKind : std::uint8_t
{
    Clwb,
    Clflush,
    Clflushopt,
};

/** Sentinel: event does not belong to any strand section. */
constexpr StrandId noStrand = -1;

/** Sentinel: event carries no interned name. */
constexpr std::uint32_t noName = ~std::uint32_t(0);

/**
 * One instrumented operation. Events are POD and cheap to copy; string
 * payloads (variable names for RegisterPmem) are interned in the
 * runtime's NameTable and referenced by id.
 */
struct Event
{
    EventKind kind = EventKind::Store;
    FlushKind flushKind = FlushKind::Clwb;
    ThreadId thread = 0;
    /** Strand section the event belongs to; noStrand outside strands. */
    StrandId strand = noStrand;
    /**
     * Interned name id. RegisterPmem: the registered variable's name.
     * All other kinds: the innermost open SiteScope program site at
     * emission time (noName outside any site). Detectors only consult
     * it on RegisterPmem; fingerprints never include it, so annotating
     * a workload with sites cannot change its bug fingerprints.
     */
    std::uint32_t nameId = noName;
    Addr addr = 0;
    std::uint32_t size = 0;
    /** Monotonic per-runtime sequence number. */
    SeqNum seq = 0;
    /**
     * Global shared-pool clock ticket. Zero for every event of a
     * single-writer program. When the program operates on a
     * multi-writer SharedPmemPool, each instrumented operation draws a
     * ticket from the pool's global fence clock *before* touching
     * shared memory, so tickets order operations across all writer
     * processes — the cross-session rule engine merges the per-session
     * streams by this field. Fingerprints and per-session detectors
     * never consult it.
     */
    SeqNum global = 0;

    AddrRange range() const { return AddrRange::fromSize(addr, size); }
};

/** Human-readable event kind, for reports and debugging. */
const char *toString(EventKind kind);

/** Human-readable CLF mnemonic. */
const char *toString(FlushKind kind);

/**
 * Why no PmRuntime could have emitted @p event, or nullptr if one
 * could: an unknown kind or CLF, a range that wraps the address space,
 * or a name id outside the @p name_count names interned so far.
 * readTrace and pmdbd's ring drain check untrusted events with it.
 */
const char *malformedEvent(const Event &event, std::size_t name_count);

} // namespace pmdb

#endif // PMDB_TRACE_EVENT_HH
