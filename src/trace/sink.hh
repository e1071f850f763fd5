/**
 * @file
 * Consumer interface for the instrumented event stream.
 */

#ifndef PMDB_TRACE_SINK_HH
#define PMDB_TRACE_SINK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/event.hh"

namespace pmdb
{

/**
 * Interned string table for event names (registered PM variables).
 * Owned by the runtime; sinks receive a reference when attached.
 */
class NameTable
{
  public:
    /** Intern @p name, returning its stable id. */
    std::uint32_t intern(const std::string &name);

    /** Look up a previously interned name. */
    const std::string &name(std::uint32_t id) const;

    std::size_t size() const { return names_.size(); }

  private:
    std::vector<std::string> names_;
    /** name → id index so intern() is O(1) amortized, not O(n). */
    std::unordered_map<std::string, std::uint32_t> index_;
};

/**
 * A consumer of instrumented events. Detectors, the PM device model and
 * trace recorders all implement this interface, so bug-detection
 * capability and performance measurements come from the same stream.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once when the sink is attached to a runtime. */
    virtual void attached(const NameTable &names) { (void)names; }

    /** Deliver one instrumented event. */
    virtual void handle(const Event &event) = 0;

    /**
     * Deliver a batch of events in stream order. The runtime feeds
     * every non-synchronous sink this way; the default implementation
     * preserves per-event semantics, so sinks only override it when
     * they can process a run of events cheaper than event-by-event.
     */
    virtual void
    handleBatch(const Event *events, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            handle(events[i]);
    }

    /**
     * True for tools that rely on dynamic binary instrumentation
     * (Valgrind in the paper: Nulgrind, Pmemcheck, PMDebugger,
     * XFDetector). While any such sink is attached, the runtime
     * charges the calibrated binary-translation overhead to every
     * event and every application operation — the cost that dominates
     * the paper's Figure 8 slowdowns. Annotation-based tools (PMTest)
     * return false: they pay no translation tax, which is exactly why
     * PMTest is the fastest tool in the comparison.
     */
    virtual bool isDbiBased() const { return false; }

    /**
     * True for sinks whose state is coupled synchronously to the
     * application between events — the PM device model (the program
     * writes its image directly, so dirty/pending tracking must advance
     * in lockstep), PMTest (annotation checkers run mid-stream) and
     * XFDetector (cross-failure verifiers read the device crash image
     * during handling). The runtime delivers to such sinks per event,
     * inline; every other sink is fed through handleBatch().
     */
    virtual bool requiresSynchronousDelivery() const { return false; }
};

} // namespace pmdb

#endif // PMDB_TRACE_SINK_HH
