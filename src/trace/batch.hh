/**
 * @file
 * Fixed-capacity accumulation buffer for instrumented events.
 *
 * Batching is how the runtime amortizes per-event dispatch cost: one
 * virtual handleBatch() call per sink per batch instead of one virtual
 * handle() per sink per event, one DBI cost-model charge per batch, and
 * (in thread-safe mode) one sink-dispatch critical section per batch.
 * The batch never reorders events: sinks observe exactly the per-event
 * stream, just in chunks.
 */

#ifndef PMDB_TRACE_BATCH_HH
#define PMDB_TRACE_BATCH_HH

#include <cstddef>
#include <vector>

#include "trace/event.hh"

namespace pmdb
{

/** Capacity of PmRuntime's batches and RemoteSink's ring frames. */
constexpr std::size_t defaultBatchCapacity = 256;

/** A fixed-capacity, in-order buffer of pending events. */
class EventBatch
{
  public:
    EventBatch() : events_(defaultBatchCapacity) {}

    /** Resize the buffer; only legal while the batch is empty. */
    void
    setCapacity(std::size_t capacity)
    {
        events_.resize(capacity ? capacity : 1);
        size_ = 0;
    }

    std::size_t capacity() const { return events_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= events_.size(); }

    /** Append one event; the caller guarantees the batch is not full. */
    void push(const Event &event) { events_[size_++] = event; }

    const Event *data() const { return events_.data(); }

    void clear() { size_ = 0; }

  private:
    std::vector<Event> events_;
    std::size_t size_ = 0;
};

} // namespace pmdb

#endif // PMDB_TRACE_BATCH_HH
