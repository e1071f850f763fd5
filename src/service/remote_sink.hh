/**
 * @file
 * Client side of the detection service: a TraceSink that ships the
 * instrumented event stream to a pmdbd daemon instead of running a
 * detector in-process.
 *
 * Attach a RemoteSink to a PmRuntime like any detector; events
 * accumulate in a client-side EventBatch (the PR-1 batch machinery)
 * and cross the shared-memory ring (spsc_ring.hh) as whole batch
 * frames with the configured slow-consumer policy. Names and
 * externally detected bugs go over the control socket, and finish()
 * flushes the pending batch, completes the session and returns the
 * daemon's merged report.
 */

#ifndef PMDB_SERVICE_REMOTE_SINK_HH
#define PMDB_SERVICE_REMOTE_SINK_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "core/bug.hh"
#include "service/protocol.hh"
#include "service/spsc_ring.hh"
#include "trace/batch.hh"
#include "trace/sink.hh"
#include "trace/trace_file.hh"

namespace pmdb
{

/** TraceSink speaking the service ring protocol. */
class RemoteSink : public TraceSink
{
  public:
    struct Options
    {
        /** Daemon control socket. */
        std::string socketPath;
        /** Where to create this session's ring file. */
        std::string ringPath;
        /** Ring capacity in events — the producer's credits. */
        std::uint32_t ringSlots = 4096;
        SlowConsumerPolicy policy = SlowConsumerPolicy::Block;
        /** Spill trace path (required for the Spill policy). */
        std::string spillPath;
        /** Mirrors the in-process DebuggerConfig the daemon builds. */
        PersistencyModel model = PersistencyModel::Epoch;
        std::string orderSpecText;
        /** connectUnix retry budget (daemon may still be starting). */
        int connectTimeoutMs = 2000;
        /**
         * Multi-writer shared pool this client maps (empty = ordinary
         * session). Announced in the Hello so the daemon groups this
         * session with the pool's other writers for cross-session
         * detection.
         */
        std::string sharedPoolPath;
        /** Writer id within the shared pool (1-based). */
        std::uint32_t sharedWriterId = 0;
    };

    RemoteSink() = default;
    ~RemoteSink() override;

    RemoteSink(const RemoteSink &) = delete;
    RemoteSink &operator=(const RemoteSink &) = delete;

    /** Create the ring, connect and complete the Hello handshake. */
    bool connect(const Options &options, std::string *error = nullptr);

    bool connected() const { return fd_ >= 0; }

    SessionId sessionId() const { return session_; }

    /** @name TraceSink */
    /** @{ */
    void attached(const NameTable &names) override { names_ = &names; }
    void handle(const Event &event) override;
    void handleBatch(const Event *events, std::size_t count) override;

    /**
     * The sink reads the runtime's live NameTable while interning
     * names ahead of the events that reference them, so delivery must
     * stay on the instrumenting thread.
     */
    bool requiresSynchronousDelivery() const override { return true; }
    /** @} */

    /**
     * Funnel an externally detected bug (the manual cross-failure
     * check) to the daemon, mirroring PmDebugger::reportBug.
     */
    void reportBug(const BugReport &report);

    /**
     * Flush the pending batch, mark the stream complete, send Bye and
     * block for the daemon's report. The sink is disconnected
     * afterwards.
     */
    bool finish(ReportBody *out, std::string *error = nullptr);

    std::uint64_t ringEvents() const { return pushed_; }
    std::uint64_t spillEvents() const { return spilled_; }
    /** Batch frames published into the ring. */
    std::uint64_t ringFrames() const { return frames_; }

  private:
    bool ensureNamesSent(std::uint32_t name_id);
    void append(const Event &event);
    void flushBatch();
    void disconnect();

    EventRing ring_;
    EventBatch batch_;
    TraceStreamWriter spill_;
    Options options_;
    const NameTable *names_ = nullptr;
    int fd_ = -1;
    SessionId session_ = 0;
    std::uint32_t namesSent_ = 0;
    std::uint64_t pushed_ = 0;
    std::uint64_t spilled_ = 0;
    std::uint64_t frames_ = 0;
    /** Once spilling starts, everything spills (order preservation). */
    bool spilling_ = false;
    bool dead_ = false;
    std::mutex mutex_;
};

} // namespace pmdb

#endif // PMDB_SERVICE_REMOTE_SINK_HH
