/**
 * @file
 * Address-range-sharded detector state served by a work-stealing
 * worker pool.
 *
 * The daemon partitions each session's event stream across shard
 * indices. Every (session, shard) pair owns an independent PmDebugger,
 * so shards never contend on bookkeeping state:
 *
 *  - **addressed** events (Store, Flush, TxLog) route by address
 *    stripe: shard = (addr / stripeBytes + sessionId) % shards. A
 *    stripe is large (64 MiB default), so a PM pool maps to one shard
 *    and a store and the CLF that persists it always land together;
 *  - **boundary** events (Fence, Epoch*, Strand*, JoinStrand,
 *    RegisterPmem, ProgramEnd) are broadcast: each shard observes
 *    every fence in order relative to its own addressed events, which
 *    is exactly what the fence-interval bookkeeping needs. Fences are
 *    shard-local — no cross-shard synchronization on the hot path;
 *  - sessions that need global order (a non-empty order spec, or the
 *    strand model's cross-strand rules) are **pinned**: their whole
 *    stream goes to one shard, the degenerate global-order barrier.
 *
 * Execution model (the PR-6 rework): detector state no longer lives
 * inside a dedicated per-shard thread. Each (session, shard) pair is a
 * **task queue** — a bounded FIFO of Open/Name/Events/Close tasks plus
 * the pair's NameTable + PmDebugger — and a shared pool of workers
 * leases ready queues. A worker prefers queues whose shard index
 * matches its own (cache affinity), but an idle worker **steals** a
 * ready queue of any other shard: since every queue carries its own
 * debugger, any worker may serve any queue, as long as at most one
 * worker holds a lease at a time. A lease drains the queue's whole
 * backlog, so stealing granularity is coarse and the per-task
 * bookkeeping cost stays amortized.
 *
 * Invariants this preserves:
 *  - **per-(session,shard) event order**: tasks enter each queue in
 *    stream order (one router per session), queues are FIFO, and the
 *    lease makes processing mutually exclusive — so each debugger
 *    observes exactly the subsequence an in-process detector would;
 *  - **bounded queues**: Events tasks respect a per-queue cap;
 *    tryRouteEvents refuses what does not fit and the caller retries
 *    later (backpressure propagates to the client ring). Control
 *    tasks (Open/Name/Close) bypass the cap — rejecting them could
 *    deadlock a session;
 *  - **merge determinism**: closeSession merges per-shard bug lists
 *    by a stable sequence-number sort with the session's home shard
 *    (the one stripe 0 maps to) first, then re-collects through a
 *    fresh BugCollector — preserving chronological order and
 *    first-detection dedup, independent of which worker ran which
 *    queue. Context-only rules (redundant epoch fence) are enabled on
 *    the home shard only so broadcasting cannot duplicate them.
 *
 * Why sharding pays even on one core: each shard's fence-interval
 * working set stays within its own fixed-capacity memory-location
 * array. A single bookkeeping space overflows the array on large
 * working sets and falls back to expensive AVL-tree insertion
 * (Section 4.2); partitioned spaces stay on the O(1) array path.
 */

#ifndef PMDB_SERVICE_SHARD_HH
#define PMDB_SERVICE_SHARD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/bug.hh"
#include "core/config.hh"
#include "core/debugger.hh"
#include "core/stats.hh"
#include "service/protocol.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Shard-pool shape. */
struct ShardPoolConfig
{
    /** Number of shard indices == detector workers. */
    std::size_t shards = 1;
    /** Address-stripe granularity for routing addressed events. */
    Addr stripeBytes = 64ull << 20;
    /** Per-shard debugger array capacity (Section 4.1). */
    std::size_t arrayCapacity = 100000;
    /** Max queued Events tasks per (session, shard) queue. */
    std::size_t queueCapacity = 64;
    /**
     * Test hook: a worker processing an Events task whose queue lives
     * on @p slowShard sleeps @p slowShardDelayUs first — a
     * deterministically slow detector for the work-stealing stress
     * test. Disabled by default.
     */
    std::size_t slowShard = ~static_cast<std::size_t>(0);
    std::uint32_t slowShardDelayUs = 0;
};

/** Merged per-session result returned by closeSession. */
struct SessionVerdict
{
    /** Deduplicated bugs in chronological (seq) order. */
    std::vector<BugReport> bugs;
    /** Aggregated bookkeeping statistics across shards. */
    DebuggerStats stats;
};

/** Per-shard execution counters (ingest observability). */
struct ShardStats
{
    /** Event batches (tasks) processed. */
    std::uint64_t batches = 0;
    /** Events processed. */
    std::uint64_t events = 0;
    /** Queue leases taken by a worker of a different shard index. */
    std::uint64_t steals = 0;
    /** Tasks currently enqueued across this shard's queues. */
    std::uint64_t queueDepth = 0;
};

/**
 * Routed per-shard event subsequences that did not fit their target
 * queues. Order within each part is stream order; the owner must
 * retry (tryFlushPending) before routing newer events of the same
 * session.
 */
struct PendingRoute
{
    std::vector<std::pair<std::size_t, std::vector<Event>>> parts;

    bool empty() const { return parts.empty(); }
};

/** Work-stealing pool over per-(session, shard) detector queues. */
class ShardPool
{
  public:
    explicit ShardPool(ShardPoolConfig config = {});
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    /** Spawn the worker threads. */
    void start();

    /** Drain queues and join the workers. */
    void stop();

    std::size_t shardCount() const { return config_.shards; }
    Addr stripeBytes() const { return config_.stripeBytes; }

    /**
     * Open a session on every shard. @p pinned forces the whole
     * stream to the session's home shard.
     */
    void openSession(SessionId session, const DebuggerConfig &config,
                     bool pinned);

    /**
     * Deliver one interned name to every shard of @p session. Ids must
     * arrive in intern order; the call returns after *enqueueing*, and
     * FIFO queues guarantee shards intern the name before any
     * subsequently routed event that references it.
     */
    void internName(SessionId session, std::uint32_t nameId,
                    std::string name);

    /**
     * Partition @p events into per-shard subsequences (preserving
     * relative order) and enqueue them, respecting the per-queue
     * Events cap. Parts that do not fit are appended to @p overflow
     * (created in shard order); returns true when everything was
     * enqueued. The caller must not route newer events for this
     * session until tryFlushPending has emptied @p overflow.
     */
    bool tryRouteEvents(SessionId session, const Event *events,
                        std::size_t count, PendingRoute *overflow);

    /** Retry a previous overflow; true once all parts are enqueued. */
    bool tryFlushPending(SessionId session, PendingRoute *overflow);

    /**
     * Blocking convenience for tests and the shard-scaling bench:
     * route and retry until everything is enqueued.
     */
    void routeEvents(SessionId session, const Event *events,
                     std::size_t count);

    /**
     * Enqueue the session's Close on every shard and return
     * immediately. When the last shard has finalized, the merged
     * verdict (per-shard bug lists merged home-first by stable seq
     * sort, external client-reported bugs last at equal seq, stats
     * aggregated) is passed to @p done on the finalizing worker's
     * thread. The session is released afterwards.
     */
    void closeSessionAsync(SessionId session,
                           std::vector<BugReport> external,
                           std::function<void(SessionVerdict &&)> done);

    /** Blocking closeSession: closeSessionAsync + wait. */
    SessionVerdict closeSession(SessionId session,
                                const std::vector<BugReport> &external);

    /** Addressed events whose range straddled a stripe boundary. */
    std::uint64_t straddleCount() const;

    /** Snapshot of per-shard execution counters. */
    std::vector<ShardStats> shardStats() const;

    /** Total queue leases stolen across shard indices. */
    std::uint64_t stealCount() const;

  private:
    struct CloseState;
    struct Task;
    struct SessionShard;

    std::size_t homeShard(SessionId session) const;
    std::size_t shardOf(SessionId session, Addr addr) const;
    SessionShard *queueOf(SessionId session, std::size_t shard);
    /** Enqueue under queuesMutex_; marks the queue ready and wakes a
     *  worker. Control tasks ignore the Events cap. */
    void enqueueLocked(SessionShard &queue, Task task);
    void markReadyLocked(SessionShard &queue);
    void workerLoop(std::size_t index);
    void runTask(SessionShard &queue, Task &task);
    void mergeAndFinish(CloseState &close);

    ShardPoolConfig config_;
    std::vector<std::thread> workers_;

    /** Guards queues_, ready_, and every SessionShard's queue/lease. */
    mutable std::mutex queuesMutex_;
    std::condition_variable wake_;
    /** (session, shard) → queue; key = session * shards + shard. */
    std::unordered_map<std::uint64_t, std::unique_ptr<SessionShard>>
        queues_;
    /** Ready (non-empty, unleased) queues per shard index. */
    std::vector<std::deque<SessionShard *>> ready_;
    bool stopping_ = false;

    /** pinned flag per open session, read by the routing thread. */
    std::unordered_map<SessionId, bool> pinned_;
    mutable std::mutex pinnedMutex_;

    std::atomic<std::uint64_t> straddles_{0};
    /** Per-shard counters on their own cache lines. */
    struct alignas(64) Counters
    {
        std::atomic<std::uint64_t> batches{0};
        std::atomic<std::uint64_t> events{0};
        std::atomic<std::uint64_t> steals{0};
        /** Live depth: bumped at enqueue, dropped when a lease takes
         *  the backlog (whole-backlog granularity, like the lease). */
        std::atomic<std::uint64_t> queueDepth{0};
    };
    std::vector<std::unique_ptr<Counters>> counters_;
    bool running_ = false;
};

} // namespace pmdb

#endif // PMDB_SERVICE_SHARD_HH
