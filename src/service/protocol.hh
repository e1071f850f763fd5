/**
 * @file
 * Wire protocol of the out-of-process detection service.
 *
 * A client session uses two channels:
 *
 *  - a **control plane** over a Unix-domain socket carrying framed
 *    messages (MsgHeader + payload): handshake, interned-name sync,
 *    externally detected bugs, shutdown, and the final report;
 *  - a **data plane**: a shared-memory single-producer/single-consumer
 *    event ring (see spsc_ring.hh) through which the instrumented
 *    event stream flows without any per-event syscall.
 *
 * Name-sync ordering contract: the client sends InternName and waits
 * for NameAck *before* pushing the first ring event that references
 * the name. The daemon enqueues the name to its shard workers before
 * acknowledging, so a shard always interns a name before it processes
 * an event referencing it.
 *
 * All integers are host-endian (client and daemon share the machine —
 * they already share memory).
 */

#ifndef PMDB_SERVICE_PROTOCOL_HH
#define PMDB_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/bug.hh"
#include "core/config.hh"

namespace pmdb
{

/** Protocol version; bumped on any wire-incompatible change.
 *  v2: HelloBody gained the shared-pool membership fields. */
constexpr std::uint32_t serviceProtocolVersion = 2;

/** Session identifier assigned by the daemon. */
using SessionId = std::uint32_t;

/** Control-plane message types. */
enum class MsgType : std::uint32_t
{
    /** client → daemon: open a session (HelloBody). */
    Hello = 1,
    /** daemon → client: session accepted (u32 sessionId). */
    Welcome = 2,
    /** client → daemon: interned name (u32 id, string). */
    InternName = 3,
    /** daemon → client: name delivered to shards (u32 id). */
    NameAck = 4,
    /** client → daemon: externally detected bug (packed BugReport). */
    ReportBug = 5,
    /** client → daemon: stream complete (u64 pushed, u64 spilled). */
    Bye = 6,
    /** daemon → client: final report (packed bugs + stats + JSON). */
    Report = 7,
    /** either direction: fatal error (string). */
    Error = 8,
};

/** Framing header preceding every control-plane payload. */
struct MsgHeader
{
    std::uint32_t type = 0;
    std::uint32_t length = 0;
};

/** What the producer does when the event ring is full (backpressure). */
enum class SlowConsumerPolicy : std::uint32_t
{
    /** Wait (yield/sleep) until the consumer frees a slot. */
    Block = 0,
    /**
     * Divert to an append-only stream trace file. Once the first event
     * spills, *all* subsequent events spill too, so the daemon can
     * replay the file after the ring drains and still observe every
     * event in program order.
     */
    Spill = 2,
};

const char *toString(SlowConsumerPolicy policy);

/** Parse a policy name (block|spill). */
bool parseSlowConsumerPolicy(const std::string &name,
                             SlowConsumerPolicy *out);

/** Append-only little serializer for variable-length payloads. */
class WireWriter
{
  public:
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *bytes = reinterpret_cast<const std::uint8_t *>(&value);
        buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
    }

    void
    putString(const std::string &text)
    {
        put(static_cast<std::uint32_t>(text.size()));
        buf_.insert(buf_.end(), text.begin(), text.end());
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Cursor-based reader matching WireWriter. Reads fail-soft: ok()
 *  turns false on underflow and subsequent reads return zeros. */
class WireReader
{
  public:
    explicit WireReader(const std::vector<std::uint8_t> &buf)
        : buf_(buf)
    {
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (pos_ + sizeof(T) > buf_.size()) {
            ok_ = false;
            return value;
        }
        std::memcpy(&value, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    std::string
    getString()
    {
        const auto len = get<std::uint32_t>();
        if (pos_ + len > buf_.size()) {
            ok_ = false;
            return {};
        }
        std::string text(reinterpret_cast<const char *>(buf_.data()) +
                             pos_,
                         len);
        pos_ += len;
        return text;
    }

    bool ok() const { return ok_; }

  private:
    const std::vector<std::uint8_t> &buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Hello payload: everything the daemon needs to mirror the client's
 *  in-process detector configuration. */
struct HelloBody
{
    std::uint32_t version = serviceProtocolVersion;
    PersistencyModel model = PersistencyModel::Epoch;
    SlowConsumerPolicy policy = SlowConsumerPolicy::Block;
    /** Order-spec text (OrderSpec::fromText grammar); may be empty. */
    std::string orderSpecText;
    /** Path of the client-created shared-memory ring file. */
    std::string ringPath;
    /** Path of the spill trace (empty unless policy == Spill). */
    std::string spillPath;
    /**
     * Path of the multi-writer shared pool this session maps (empty for
     * ordinary single-writer sessions). Sessions announcing the same
     * path form a cross-session detection group: the daemon's
     * CrossprocEngine merges their event streams by global clock ticket
     * and runs the inter-writer rules when the whole group completes.
     */
    std::string sharedPoolPath;
    /** This session's writer id within the shared pool (1-based). */
    std::uint32_t sharedWriterId = 0;

    std::vector<std::uint8_t> serialize() const;
    static bool deserialize(const std::vector<std::uint8_t> &payload,
                            HelloBody *out);
};

/** Bye payload: producer-side stream accounting. */
struct ByeBody
{
    /** Events pushed into the ring. */
    std::uint64_t ringEvents = 0;
    /** Events diverted to the spill file (Spill policy only). */
    std::uint64_t spillEvents = 0;

    std::vector<std::uint8_t> serialize() const;
    static bool deserialize(const std::vector<std::uint8_t> &payload,
                            ByeBody *out);
};

/** Final report payload: the session's merged verdict. */
struct ReportBody
{
    std::vector<BugReport> bugs;
    /** Events the daemon consumed (ring + spill replay). */
    std::uint64_t eventsProcessed = 0;
    /** Always 0: no policy loses events. Kept because perfbench/
     *  reads it. */
    std::uint64_t eventsDropped = 0;
    /** Ready-to-print JSON document (reportToJson shape). */
    std::string json;

    std::vector<std::uint8_t> serialize() const;
    static bool deserialize(const std::vector<std::uint8_t> &payload,
                            ReportBody *out);
};

/** Serialize one BugReport into @p out (shared by ReportBug/Report). */
void putBugReport(WireWriter &out, const BugReport &bug);

/** Inverse of putBugReport. */
BugReport getBugReport(WireReader &in);

} // namespace pmdb

#endif // PMDB_SERVICE_PROTOCOL_HH
