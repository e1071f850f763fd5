/**
 * @file
 * On-disk trace format.
 *
 * Recorded event streams can be saved and re-loaded, enabling the
 * record-once / analyze-many workflow that post-mortem tools (Intel's
 * Persistence Inspector) use, offline characterization, and detector
 * regression testing against frozen traces.
 *
 * Format (little-endian, version 2):
 *   magic   "PMDBTRC2"                      (8 bytes)
 *   u32     name count                       + each: u32 len, bytes
 *   u64     event count                      + each: packed event
 *
 * A packed event holds every Event field, including the Load kind and
 * the shared-pool `global` clock ticket that version 2 added; version-1
 * files are rejected by magic.
 *
 * The batch format above needs the full event vector up front. The
 * *stream* format ("PMDBTRS2") is an append-only sibling for writers
 * that cannot know the final event count — live spill-to-disk under
 * backpressure, long-running recorders: a magic header followed by
 * tagged records ('N' interned name, 'E' packed event), flushable at
 * any record boundary. Because a crash can truncate the file
 * mid-record, readTraceStream recovers the longest valid prefix
 * instead of failing.
 *
 * Readers reject records no writer produces — an unknown event kind or
 * CLF, a range past the end of the address space — and a batch header
 * promising more events than the file holds.
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
 * Write @p events (and @p names, which their nameIds index) to
 * @p path. Returns false and fills @p error on I/O failure.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<Event> &events,
                    const NameTable &names,
                    std::string *error = nullptr);

/**
 * Load a trace written by writeTraceFile. Returns false and fills
 * @p error on I/O failure, format mismatch, a corrupt record, or an
 * event whose nameId is neither noName nor a loaded name.
 */
bool readTraceFile(const std::string &path, LoadedTrace *out,
                   std::string *error = nullptr);

/**
 * Incremental writer for the stream trace format: events (and the
 * names they reference) are appended one record at a time, and flush()
 * makes everything written so far durable enough for a concurrent or
 * post-crash reader to recover it. This is the degradation path of the
 * detection service (a slow consumer spills the live stream to disk)
 * and works standalone for record-as-you-go tracing.
 */
class TraceStreamWriter
{
  public:
    TraceStreamWriter() = default;
    ~TraceStreamWriter();

    TraceStreamWriter(const TraceStreamWriter &) = delete;
    TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

    /** Create/truncate @p path and write the stream header. */
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
 * Load a stream trace written by TraceStreamWriter. A truncated tail —
 * the writer crashed or was killed mid-record — is not an error: the
 * longest valid record prefix is returned and @p truncated (when
 * non-null) is set. Returns false only for I/O failures, a bad header,
 * or structural corruption (an unknown record tag, a corrupt event).
 * Event nameIds are not checked: a pmdbd spill file carries none of
 * the names, which reach the daemon over the control socket.
 */
bool readTraceStream(const std::string &path, LoadedTrace *out,
                     bool *truncated = nullptr,
                     std::string *error = nullptr);

/**
 * Load a trace of either format, dispatching on the file's magic:
 * "PMDBTRC2" (batch) or "PMDBTRS2" (stream). For stream traces a
 * truncated tail sets @p truncated exactly as readTraceStream does;
 * batch traces never set it (a short batch file is a hard error, since
 * its header promised a count it cannot deliver). Both formats get
 * readTraceFile's nameId check.
 */
bool readAnyTrace(const std::string &path, LoadedTrace *out,
                  bool *truncated = nullptr,
                  std::string *error = nullptr);

} // namespace pmdb

#endif // PMDB_TRACE_TRACE_FILE_HH
