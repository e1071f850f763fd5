/**
 * @file
 * Tests for the batched event-dispatch pipeline: equivalence with
 * per-event handle() delivery (batched must produce bit-identical
 * detector results), batch flush points, the multi-producer drain
 * barrier, ProgramEnd ordering, per-thread strand tracking and the
 * O(1) NameTable.
 */

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "detectors/pmdebugger_detector.hh"
#include "trace/recorder.hh"
#include "trace/runtime.hh"
#include "workloads/bug_suite.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

/** Everything a PMDebugger run reports, in comparable form. */
struct RunSignature
{
    std::vector<std::tuple<BugType, Addr, Addr, SeqNum>> bugs;
    std::uint64_t stores = 0;
    std::uint64_t flushes = 0;
    std::uint64_t fences = 0;
    std::uint64_t epochs = 0;
    ArrayStats array;
    TreeStats tree;

    bool
    operator==(const RunSignature &other) const
    {
        return bugs == other.bugs && stores == other.stores &&
               flushes == other.flushes && fences == other.fences &&
               epochs == other.epochs &&
               array.collectiveInvalidations ==
                   other.array.collectiveInvalidations &&
               array.recordsCollectivelyFreed ==
                   other.array.recordsCollectivelyFreed &&
               array.recordsMovedToTree ==
                   other.array.recordsMovedToTree &&
               array.recordsDroppedIndividually ==
                   other.array.recordsDroppedIndividually &&
               array.overflowStores == other.array.overflowStores &&
               array.maxUsage == other.array.maxUsage &&
               tree.insertions == other.tree.insertions &&
               tree.removals == other.tree.removals &&
               tree.reorganizations == other.tree.reorganizations &&
               tree.merges == other.tree.merges;
    }
};

RunSignature
signatureOf(const Detector &detector)
{
    RunSignature sig;
    for (const BugReport &bug : detector.bugs().bugs()) {
        sig.bugs.emplace_back(bug.type, bug.range.start, bug.range.end,
                              bug.seq);
    }
    std::sort(sig.bugs.begin(), sig.bugs.end());
    const DebuggerStats stats = detector.stats();
    sig.stores = stats.stores;
    sig.flushes = stats.flushes;
    sig.fences = stats.fences;
    sig.epochs = stats.epochs;
    sig.array = stats.array;
    sig.tree = stats.tree;
    return sig;
}

/**
 * The reference delivery: a synchronous sink gets handle() once per
 * event, inline, so forwarding it to a detector replays the stream
 * event by event — what batched delivery must match.
 */
class SyncForwarder : public TraceSink
{
  public:
    explicit SyncForwarder(TraceSink &inner) : inner_(inner) {}

    void attached(const NameTable &names) override
    {
        inner_.attached(names);
    }
    void handle(const Event &event) override { inner_.handle(event); }
    bool requiresSynchronousDelivery() const override { return true; }

  private:
    TraceSink &inner_;
};

/**
 * Run one bug-suite case under PMDebugger, fed per event through a
 * SyncForwarder when @p per_event, else in batches.
 */
RunSignature
runCase(const BugCase &bug_case, bool per_event, bool buggy)
{
    PmRuntime runtime;
    CaseEnv env{runtime};
    env.buggy = buggy;

    DebuggerConfig config;
    config.model = bug_case.model;
    if (!bug_case.orderSpec.empty())
        config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
    PmDebuggerDetector tool(std::move(config));
    env.pmdebugger = &tool.debugger();
    SyncForwarder forwarder(tool);
    TraceSink *sink = per_event ? static_cast<TraceSink *>(&forwarder)
                                : &tool;

    runtime.attach(sink);
    bug_case.scenario(env);
    runtime.programEnd();
    tool.finalize();
    runtime.detach(sink);
    return signatureOf(tool);
}

/**
 * Every case of the 78-case suite (buggy and correct variant) must
 * report exactly the same bugs and bookkeeping counters whether the
 * detector is fed per event or in batches.
 */
TEST(DispatchEquivalence, BugSuiteIdenticalAcrossModes)
{
    for (const BugCase &bug_case : bugSuite()) {
        for (const bool buggy : {true, false}) {
            const RunSignature per = runCase(bug_case, true, buggy);
            const RunSignature bat = runCase(bug_case, false, buggy);
            EXPECT_TRUE(per == bat)
                << "case " << bug_case.id << " (" << bug_case.name
                << "), buggy=" << buggy << ": batched != per-event";
        }
    }
}

RunSignature
runWorkload(const std::string &name, bool per_event,
            bool threadSafe = false)
{
    auto workload = makeWorkload(name);
    PmRuntime runtime;
    PmDebuggerDetector tool{[&] {
        DebuggerConfig config;
        config.model = workload->model();
        if (!workload->orderSpecText().empty())
            config.orderSpec = OrderSpec::fromText(workload->orderSpecText());
        return config;
    }()};
    SyncForwarder forwarder(tool);
    TraceSink *sink = per_event ? static_cast<TraceSink *>(&forwarder)
                                : &tool;
    runtime.attach(sink);
    runtime.setThreadSafe(threadSafe);

    WorkloadOptions options;
    options.operations = 3000;
    options.seed = 42;
    workload->run(runtime, options);
    runtime.drain();
    tool.finalize();
    runtime.detach(sink);
    return signatureOf(tool);
}

/**
 * A real data-structure workload (fence intervals, CLF patterns,
 * array/tree migration) reports identical stats fed per event and in
 * batches — including every ArrayStats counter, which proves the
 * batched store fast path performs exactly the per-event bookkeeping —
 * and under thread-safe (per-thread batch) dispatch.
 */
TEST(DispatchEquivalence, BTreeWorkloadIdenticalAcrossModes)
{
    const RunSignature per = runWorkload("b_tree", true);
    const RunSignature bat = runWorkload("b_tree", false);
    const RunSignature safe = runWorkload("b_tree", false, true);

    EXPECT_GT(per.stores, 0u);
    EXPECT_EQ(per.array.recordsCollectivelyFreed,
              bat.array.recordsCollectivelyFreed);
    EXPECT_EQ(per.array.maxUsage, bat.array.maxUsage);
    EXPECT_EQ(per.tree.insertions, bat.tree.insertions);
    EXPECT_TRUE(per == bat);
    EXPECT_TRUE(per == safe);
}

TEST(DispatchPipeline, BatchedFlushesAtBoundary)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.store(0x100, 8);
    runtime.store(0x108, 8);
    runtime.flush(0x100, 64);
    EXPECT_EQ(recorder.events().size(), 0u)
        << "stores and flushes buffer until a boundary";

    runtime.fence();
    ASSERT_EQ(recorder.events().size(), 4u)
        << "a fence is an ordering boundary and flushes the batch";
    EXPECT_EQ(recorder.events()[0].kind, EventKind::Store);
    EXPECT_EQ(recorder.events()[3].kind, EventKind::Fence);
    // Events keep their per-event sequence numbers.
    EXPECT_EQ(recorder.events()[0].seq, 1u);
    EXPECT_EQ(recorder.events()[3].seq, 4u);
}

TEST(DispatchPipeline, BatchedFlushesAtCapacity)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    for (std::size_t i = 0; i + 1 < defaultBatchCapacity; ++i)
        runtime.store(0x100 + 8 * i, 8);
    EXPECT_EQ(recorder.events().size(), 0u);
    runtime.store(0x100 + 8 * defaultBatchCapacity, 8);
    EXPECT_EQ(recorder.events().size(), defaultBatchCapacity)
        << "a full batch flushes without waiting for a boundary";
}

TEST(DispatchPipeline, DetachAndDrainFlushPendingEvents)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.store(0x100, 8);
    EXPECT_EQ(recorder.events().size(), 0u);
    runtime.drain();
    EXPECT_EQ(recorder.events().size(), 1u);

    runtime.store(0x108, 8);
    runtime.detach(&recorder);
    EXPECT_EQ(recorder.events().size(), 2u)
        << "detach drains so no event is lost";
}

TEST(DispatchPipeline, ThreadSafeBatchedKeepsPerThreadOrder)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    constexpr int threads = 4;
    constexpr int storesPerThread = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&runtime, t] {
            for (int i = 0; i < storesPerThread; ++i) {
                runtime.store(0x1000 * (t + 1) + 8 * (i % 32), 8,
                              static_cast<ThreadId>(t));
                if (i % 32 == 31)
                    runtime.fence(static_cast<ThreadId>(t));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    runtime.drain();

    const auto &events = recorder.events();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(threads) *
                  (storesPerThread + storesPerThread / 32));

    // Per-thread subsequences stay in program order even though
    // cross-thread interleaving is batch-granular.
    std::vector<SeqNum> lastSeq(threads, 0);
    for (const Event &event : events) {
        ASSERT_GE(event.thread, 0);
        ASSERT_LT(event.thread, threads);
        EXPECT_GT(event.seq, lastSeq[static_cast<std::size_t>(
                                 event.thread)]);
        lastSeq[static_cast<std::size_t>(event.thread)] = event.seq;
    }
}

TEST(DispatchPipeline, OverflowThreadIdsUseTheSharedPath)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    // ThreadIds beyond the lock-free per-thread array still dispatch
    // correctly (shared batch under the mutex).
    runtime.store(0x100, 8, 1000);
    runtime.store(0x108, 8, 1000);
    runtime.fence(1000);
    runtime.drain();
    ASSERT_EQ(recorder.events().size(), 3u);
    EXPECT_EQ(recorder.events()[0].thread, 1000);
}

/**
 * Four producer threads feed thread-safe Batched dispatch through their
 * per-thread lock-free batches, across several produce/join/drain
 * rounds: every drain must deliver everything produced so far (partial
 * per-thread batches included), sequence numbers must be unique and
 * gap-free, and per-thread order must survive batch-granular delivery.
 */
TEST(DispatchPipeline, BatchedDrainUnderMultipleProducerThreads)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    constexpr int threads = 4;
    constexpr int storesPerThread = 1500; // not a batch multiple
    constexpr int rounds = 3;

    for (int round = 0; round < rounds; ++round) {
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&runtime, t] {
                for (int i = 0; i < storesPerThread; ++i) {
                    runtime.store(0x1000 * (t + 1) + 8 * (i % 64), 8,
                                  static_cast<ThreadId>(t));
                    if (i % 100 == 99)
                        runtime.fence(static_cast<ThreadId>(t));
                }
            });
        }
        for (auto &worker : workers)
            worker.join();
        runtime.drain();

        const auto expected =
            static_cast<std::size_t>(round + 1) * threads *
            (storesPerThread + storesPerThread / 100);
        ASSERT_EQ(recorder.events().size(), expected)
            << "drain after round " << round
            << " must deliver every event produced so far";
    }

    // Sequence numbers: unique and gap-free across all threads.
    std::vector<SeqNum> seqs;
    seqs.reserve(recorder.events().size());
    for (const Event &event : recorder.events())
        seqs.push_back(event.seq);
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t i = 0; i < seqs.size(); ++i)
        ASSERT_EQ(seqs[i], i + 1) << "duplicate or missing seq";

    // Per-thread subsequences keep program order.
    std::vector<SeqNum> lastSeq(threads, 0);
    for (const Event &event : recorder.events()) {
        ASSERT_GE(event.thread, 0);
        ASSERT_LT(event.thread, threads);
        const auto t = static_cast<std::size_t>(event.thread);
        EXPECT_GT(event.seq, lastSeq[t]);
        lastSeq[t] = event.seq;
    }
}

/**
 * Worker threads can end on a partial batch that no boundary flushed
 * (mc_bug_4 leaves stores after each thread's last fence). ProgramEnd
 * runs the detector's finalize rules, so it must reach the sinks after
 * every one of those events, not before them.
 */
TEST(DispatchPipeline, ThreadedProgramEndIsDeliveredLast)
{
    auto workload = makeWorkload("memcached");
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    WorkloadOptions options;
    options.operations = 4000;
    options.threads = 4;
    options.setRatio = 0.5;
    options.faults.enable("mc_bug_4");
    workload->run(runtime, options);

    const auto &events = recorder.events();
    ASSERT_EQ(events.size(), runtime.eventCount());
    EXPECT_EQ(events.back().kind, EventKind::ProgramEnd);
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const Event &event) {
                                return event.kind ==
                                       EventKind::ProgramEnd;
                            }),
              1);
}

TEST(StrandTracking, PerThreadStrandsDoNotInterfere)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.strandBegin(7, /*thread=*/1);
    runtime.store(0x100, 8, /*thread=*/1);
    runtime.store(0x200, 8, /*thread=*/2); // no strand open on thread 2
    runtime.strandBegin(9, /*thread=*/2);
    runtime.store(0x208, 8, /*thread=*/2);
    runtime.strandEnd(7, /*thread=*/1);
    runtime.store(0x108, 8, /*thread=*/1); // strand closed again
    runtime.drain();

    const auto &events = recorder.events();
    ASSERT_EQ(events.size(), 7u);
    EXPECT_EQ(events[1].strand, 7);
    EXPECT_EQ(events[2].strand, noStrand)
        << "thread 2 must not see thread 1's open strand";
    EXPECT_EQ(events[4].strand, 9);
    EXPECT_EQ(events[6].strand, noStrand);

    EXPECT_EQ(runtime.strandOf(2), 9);
    EXPECT_EQ(runtime.strandOf(1), noStrand);
}

TEST(StrandTracking, OverflowThreadIdsTrackStrandsToo)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.strandBegin(3, /*thread=*/5000);
    runtime.store(0x100, 8, /*thread=*/5000);
    runtime.drain();
    ASSERT_EQ(recorder.events().size(), 2u);
    EXPECT_EQ(recorder.events()[1].strand, 3);
    EXPECT_EQ(runtime.strandOf(5000), 3);
    runtime.strandEnd(3, /*thread=*/5000);
    EXPECT_EQ(runtime.strandOf(5000), noStrand);
}

TEST(NameTableTest, InternIsStableAndDeduplicates)
{
    NameTable names;
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < 10000; ++i)
        ids.push_back(names.intern("var" + std::to_string(i)));
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(names.intern("var" + std::to_string(i)),
                  ids[static_cast<std::size_t>(i)]);
        EXPECT_EQ(names.name(ids[static_cast<std::size_t>(i)]),
                  "var" + std::to_string(i));
    }
    EXPECT_EQ(names.size(), 10000u);
}

} // namespace
} // namespace pmdb
