/**
 * @file
 * On-disk trace format.
 *
 * Recorded event streams can be saved and re-loaded, enabling the
 * record-once / analyze-many workflow that post-mortem tools (Intel's
 * Persistence Inspector) use, offline characterization, and detector
 * regression testing against frozen traces. The same format carries
 * pmdbd's Spill policy: a slow consumer's client appends the live
 * stream to a trace file that the daemon replays at session end.
 *
 * Format (little-endian, append-only):
 *   magic   "PMDBTRS2"                                        (8 bytes)
 *   records, each a tag byte and its body:
 *     'N'   u32 id, u32 len, len name bytes   (interned name)
 *     'E'   packed event                      (48 bytes)
 *
 * A packed event holds every Event field, including the Load kind and
 * the shared-pool `global` clock ticket. Names carry ids in intern
 * order (0, 1, 2, ...), and a writer appends a name before any event
 * that references it, so a file is valid at every record boundary: a
 * writer needs no event count up front, and a reader of a file cut
 * mid-record (a crash, a kill) recovers the longest valid prefix.
 *
 * Readers reject records no writer produces — an unknown tag, event
 * kind or CLF, a range past the end of the address space, a name out
 * of order, an event naming an id not yet interned.
 */

#ifndef PMDB_TRACE_TRACE_FILE_HH
#define PMDB_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/sink.hh"

namespace pmdb
{

/** A loaded trace: events plus the interned names they reference. */
struct LoadedTrace
{
    std::vector<Event> events;
    NameTable names;
};

/**
 * Incremental trace writer: events (and the names they reference) are
 * appended one record at a time, and flush() makes everything written
 * so far durable enough for a concurrent or post-crash reader to
 * recover it. Tools write recorded traces with it, and the detection
 * service's slow-consumer client spills the live stream through it.
 */
class TraceStreamWriter
{
  public:
    TraceStreamWriter() = default;
    ~TraceStreamWriter();

    TraceStreamWriter(const TraceStreamWriter &) = delete;
    TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

    /** Create/truncate @p path and write the header. */
    bool open(const std::string &path, std::string *error = nullptr);

    bool isOpen() const { return file_ != nullptr; }

    /**
     * Append one interned-name record. Ids must arrive in intern order
     * (0, 1, 2, ...) so readers can rebuild the NameTable; appending
     * out of order fails.
     */
    bool appendName(std::uint32_t id, const std::string &name);

    /**
     * Append every name of @p names not yet written. Call before
     * appending an event whose nameId is new.
     */
    bool syncNames(const NameTable &names);

    /** Append one event record. */
    bool append(const Event &event);

    /** Flush buffered records to the OS (record-boundary durability). */
    bool flush();

    /** Flush and close; open() may be called again afterwards. */
    bool close();

    std::uint64_t eventsWritten() const { return events_; }
    std::uint32_t namesWritten() const { return names_; }

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t events_ = 0;
    std::uint32_t names_ = 0;
};

/**
 * Write every name of @p names, then @p events, to @p path through a
 * TraceStreamWriter. Returns false and fills @p error on I/O failure.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<Event> &events,
                    const NameTable &names,
                    std::string *error = nullptr);

/**
 * Load the trace at @p path into @p out, replacing out->events. Name
 * records extend out->names, so a caller whose names travel separately
 * (a pmdbd spill file carries none) seeds it first; every event's
 * nameId must be noName or index out->names as it stands when the
 * event is read.
 *
 * A truncated tail — the writer crashed or was killed mid-record — is
 * not an error: the longest valid record prefix is kept and
 * @p truncated (when non-null) is set. Returns false and fills
 * @p error only for an unopenable file, a bad magic, or a corrupt
 * record.
 */
bool readTrace(const std::string &path, LoadedTrace *out,
               bool *truncated = nullptr, std::string *error = nullptr);

} // namespace pmdb

#endif // PMDB_TRACE_TRACE_FILE_HH
