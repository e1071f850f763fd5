/**
 * @file
 * Tests for the out-of-process detection service: the shared-memory
 * event ring, the wire protocol, and — the core guarantee — report
 * identity: every bug-suite case detected through a pmdbd daemon
 * (any shard count, either backpressure policy) must produce exactly
 * the bug report an in-process PmDebugger produces — and a client
 * that sends what no runtime produces ends only its own session.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "core/debugger.hh"
#include "json_check.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/remote_sink.hh"
#include "service/spsc_ring.hh"
#include "workloads/bug_suite.hh"

namespace pmdb
{
namespace
{

std::atomic<int> pathCounter{0};

/** Unique per-test scratch path (cleaned up by the owner objects).
 *  Includes the pid: ctest runs each case as its own process, and
 *  concurrent processes must not collide on socket/ring paths —
 *  listenUnix unlinks and rebinds an existing path. */
std::string
scratchPath(const std::string &stem)
{
    return ::testing::TempDir() + "pmdb_svc_" +
           std::to_string(::getpid()) + "_" + stem + "_" +
           std::to_string(pathCounter.fetch_add(1));
}

/** Structural equality of two bug lists, with a useful diff. */
::testing::AssertionResult
sameBugs(const std::vector<BugReport> &local,
         const std::vector<BugReport> &remote)
{
    if (local.size() != remote.size()) {
        return ::testing::AssertionFailure()
               << "bug count differs: local " << local.size()
               << ", remote " << remote.size();
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
        const BugReport &a = local[i];
        const BugReport &b = remote[i];
        if (a.type != b.type || a.range.start != b.range.start ||
            a.range.end != b.range.end || a.seq != b.seq ||
            a.cause != b.cause || a.detail != b.detail) {
            return ::testing::AssertionFailure()
                   << "bug " << i << " differs:\n  local:  "
                   << a.toString() << "\n  remote: " << b.toString();
        }
    }
    return ::testing::AssertionSuccess();
}

/** Run one suite case with an in-process PmDebugger (the baseline). */
std::vector<BugReport>
runLocal(const BugCase &bug_case)
{
    PmRuntime runtime;
    DebuggerConfig config;
    config.model = bug_case.model;
    if (!bug_case.orderSpec.empty())
        config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
    PmDebugger debugger(config);
    runtime.attach(&debugger);
    CaseEnv env{runtime};
    env.pmdebugger = &debugger;
    bug_case.scenario(env);
    runtime.programEnd();
    debugger.finalize();
    return debugger.bugs().bugs();
}

/** Run one suite case through a daemon via RemoteSink. */
std::vector<BugReport>
runRemote(const BugCase &bug_case, const std::string &socket_path,
          SlowConsumerPolicy policy = SlowConsumerPolicy::Block,
          std::uint32_t ring_slots = 1024,
          ReportBody *report_out = nullptr)
{
    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = socket_path;
    options.ringPath = scratchPath("ring");
    options.ringSlots = ring_slots;
    options.policy = policy;
    if (policy == SlowConsumerPolicy::Spill)
        options.spillPath = scratchPath("spill");
    options.model = bug_case.model;
    options.orderSpecText = bug_case.orderSpec;
    std::string error;
    EXPECT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    CaseEnv env{runtime};
    env.externalBugSink = [&sink](const BugReport &bug) {
        sink.reportBug(bug);
    };
    bug_case.scenario(env);
    runtime.programEnd();
    ReportBody report;
    EXPECT_TRUE(sink.finish(&report, &error)) << error;
    if (report_out)
        *report_out = report;
    return report.bugs;
}

TEST(EventRingTest, PushPopAndWraparound)
{
    const std::string path = scratchPath("ringunit");
    EventRing producer;
    std::string error;
    ASSERT_TRUE(producer.create(path, 8, &error)) << error;
    EventRing consumer;
    ASSERT_TRUE(consumer.open(path, &error)) << error;

    // Several laps around the 8-slot ring.
    Event out[4];
    SeqNum next_push = 1;
    SeqNum next_pop = 1;
    for (int lap = 0; lap < 10; ++lap) {
        for (int i = 0; i < 6; ++i) {
            Event event;
            event.addr = 0x100;
            event.seq = next_push++;
            ASSERT_TRUE(producer.tryPush(event));
        }
        while (next_pop < next_push) {
            const std::size_t popped = consumer.tryPop(out, 4);
            ASSERT_GT(popped, 0u);
            for (std::size_t i = 0; i < popped; ++i)
                EXPECT_EQ(out[i].seq, next_pop++);
        }
    }
    EXPECT_EQ(consumer.size(), 0u);
}

TEST(EventRingTest, FullRingRejectsUntilDrained)
{
    const std::string path = scratchPath("ringfull");
    EventRing ring;
    ASSERT_TRUE(ring.create(path, 4));
    Event event;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.tryPush(event));
    EXPECT_FALSE(ring.tryPush(event)); // out of credits
    Event out[2];
    EXPECT_EQ(ring.tryPop(out, 2), 2u);
    EXPECT_TRUE(ring.tryPush(event));
    EXPECT_EQ(ring.size(), 3u);
}

TEST(EventRingTest, BatchPushPopInWholeFramesAcrossWraparound)
{
    const std::string path = scratchPath("ringbatch");
    EventRing producer;
    std::string error;
    ASSERT_TRUE(producer.create(path, 16, &error)) << error;
    EventRing consumer;
    ASSERT_TRUE(consumer.open(path, &error)) << error;

    // Offset the cursors so batch frames straddle the wrap point.
    Event seed;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(producer.tryPush(seed));
    Event out[16];
    ASSERT_EQ(consumer.tryPop(out, 16), 5u);

    SeqNum next_push = 1;
    SeqNum next_pop = 1;
    Event batch[6];
    for (int lap = 0; lap < 8; ++lap) {
        for (auto &event : batch) {
            event.addr = 0x40;
            event.seq = next_push++;
        }
        // 6 of 6 fit: a frame is all-or-prefix, and an empty 16-slot
        // ring always has room for 6.
        ASSERT_EQ(producer.tryPushBatch(batch, 6), 6u);
        const std::size_t popped = consumer.popBatch(out, 16);
        ASSERT_EQ(popped, 6u);
        for (std::size_t i = 0; i < popped; ++i)
            EXPECT_EQ(out[i].seq, next_pop++);
    }

    // A batch larger than the free space publishes the fitting prefix.
    for (auto &event : batch)
        event.seq = next_push++;
    ASSERT_EQ(producer.tryPushBatch(batch, 6), 6u);
    Event big[20];
    for (auto &event : big)
        event.seq = 0;
    EXPECT_EQ(producer.tryPushBatch(big, 20), 10u); // 16 - 6 queued
    EXPECT_EQ(consumer.size(), 16u);
    EXPECT_EQ(producer.tryPushBatch(big, 4), 0u); // full
    std::size_t drained = 0;
    while (drained < 16)
        drained += consumer.popBatch(out, 16);
    EXPECT_EQ(drained, 16u);
    EXPECT_EQ(consumer.size(), 0u);
}

TEST(EventRingTest, OpenRejectsGarbageFile)
{
    const std::string path = scratchPath("ringbad");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite("this is not a ring", 1, 18, file);
    std::fclose(file);
    EventRing ring;
    std::string error;
    EXPECT_FALSE(ring.open(path, &error));
    std::remove(path.c_str());
}

TEST(ProtocolTest, HelloRoundTrip)
{
    HelloBody hello;
    hello.model = PersistencyModel::Strand;
    hello.policy = SlowConsumerPolicy::Spill;
    hello.orderSpecText = "a < b";
    hello.ringPath = "/tmp/ring";
    hello.spillPath = "/tmp/spill";
    HelloBody parsed;
    ASSERT_TRUE(HelloBody::deserialize(hello.serialize(), &parsed));
    EXPECT_EQ(parsed.model, PersistencyModel::Strand);
    EXPECT_EQ(parsed.policy, SlowConsumerPolicy::Spill);
    EXPECT_EQ(parsed.orderSpecText, "a < b");
    EXPECT_EQ(parsed.ringPath, "/tmp/ring");
    EXPECT_EQ(parsed.spillPath, "/tmp/spill");
}

TEST(ProtocolTest, ReportRoundTripAndTruncationFails)
{
    ReportBody report;
    BugReport bug;
    bug.type = BugType::RedundantFlush;
    bug.range = AddrRange(64, 128);
    bug.seq = 42;
    bug.cause = DurabilityCause::MissingFence;
    bug.detail = "line flushed twice";
    report.bugs.push_back(bug);
    report.eventsProcessed = 1000;
    report.eventsDropped = 3;
    report.json = "{}";

    const std::vector<std::uint8_t> wire = report.serialize();
    ReportBody parsed;
    ASSERT_TRUE(ReportBody::deserialize(wire, &parsed));
    ASSERT_EQ(parsed.bugs.size(), 1u);
    EXPECT_EQ(parsed.bugs[0].type, BugType::RedundantFlush);
    EXPECT_EQ(parsed.bugs[0].range, AddrRange(64, 128));
    EXPECT_EQ(parsed.bugs[0].seq, 42u);
    EXPECT_EQ(parsed.bugs[0].detail, "line flushed twice");
    EXPECT_EQ(parsed.eventsProcessed, 1000u);
    EXPECT_EQ(parsed.eventsDropped, 3u);

    std::vector<std::uint8_t> cut(wire.begin(), wire.end() - 3);
    EXPECT_FALSE(ReportBody::deserialize(cut, &parsed));
}

TEST(ProtocolTest, PolicyNames)
{
    SlowConsumerPolicy policy;
    EXPECT_TRUE(parseSlowConsumerPolicy("block", &policy));
    EXPECT_EQ(policy, SlowConsumerPolicy::Block);
    EXPECT_TRUE(parseSlowConsumerPolicy("spill", &policy));
    EXPECT_EQ(policy, SlowConsumerPolicy::Spill);
    EXPECT_FALSE(parseSlowConsumerPolicy("lossy", &policy));
    EXPECT_FALSE(parseSlowConsumerPolicy("drop", &policy));
    EXPECT_STREQ(toString(SlowConsumerPolicy::Spill), "spill");
}

/** Identity over the full 78-case suite at a given shard count. */
void
suiteIdentityAtShards(std::size_t shards)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = shards;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    for (const BugCase &bug_case : bugSuite()) {
        const std::vector<BugReport> local = runLocal(bug_case);
        const std::vector<BugReport> remote =
            runRemote(bug_case, config.socketPath);
        EXPECT_TRUE(sameBugs(local, remote))
            << "case " << bug_case.id << " (" << bug_case.name
            << ") at " << shards << " shard(s)";
    }
    daemon.stop();
}

TEST(ServiceIdentityTest, FullBugSuiteOneShard)
{
    suiteIdentityAtShards(1);
}

TEST(ServiceIdentityTest, FullBugSuiteThreeShards)
{
    suiteIdentityAtShards(3);
}

/**
 * Identity under real concurrency: @p clients threads stream the
 * full 78-case suite (dealt round-robin, every case covered) into one
 * daemon at @p shards shards, and every session's report must equal
 * its in-process baseline. This is the multiplexing stress: pollers
 * interleave rings mid-stream, and shard workers steal queues across
 * sessions.
 */
void
concurrentSuiteIdentity(std::size_t shards, std::size_t clients)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = shards;
    config.pollers = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::vector<BugCase> &suite = bugSuite();
    std::vector<std::vector<BugReport>> locals(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        locals[i] = runLocal(suite[i]);

    std::vector<std::vector<BugReport>> remotes(suite.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < suite.size(); i += clients)
                remotes[i] = runRemote(suite[i], config.socketPath);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_TRUE(sameBugs(locals[i], remotes[i]))
            << "case " << suite[i].id << " (" << suite[i].name
            << ") at " << shards << " shard(s), " << clients
            << " concurrent clients";
    }
    // The finalize worker sends a session's Report to the client
    // before appending its summary, so the last summary can trail the
    // last client's return — wait instead of sampling.
    EXPECT_TRUE(daemon.waitForSessions(suite.size(), 10000));
    EXPECT_EQ(daemon.completedSessions(), suite.size());
    daemon.stop();
}

TEST(ServiceIdentityTest, FourConcurrentClientsFullSuiteOneShard)
{
    concurrentSuiteIdentity(1, 4);
}

TEST(ServiceIdentityTest, FourConcurrentClientsFullSuiteFourShards)
{
    concurrentSuiteIdentity(4, 4);
}

TEST(ServiceIdentityTest, SpillPolicyWithTinyRingStaysExact)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // A workload-backed case generates thousands of events; a 16-slot
    // ring forces nearly the whole stream through the spill file.
    int checked = 0;
    for (const BugCase &bug_case : bugSuite()) {
        if (bug_case.id % 13 != 0)
            continue; // a sample is plenty: spilling is case-agnostic
        ReportBody report;
        const std::vector<BugReport> local = runLocal(bug_case);
        const std::vector<BugReport> remote =
            runRemote(bug_case, config.socketPath,
                      SlowConsumerPolicy::Spill, 16, &report);
        EXPECT_TRUE(sameBugs(local, remote))
            << "case " << bug_case.id << " (" << bug_case.name << ")";
        ++checked;
    }
    EXPECT_GT(checked, 2);
    daemon.stop();
}

TEST(ServiceTest, TwoConcurrentClientsGetTheirOwnReports)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Two different cases with different expected verdicts, streamed
    // concurrently: the session mux must never cross the streams.
    const BugCase &case_a = *casesOfType(BugType::NoDurability)[0];
    const BugCase &case_b = *casesOfType(BugType::RedundantFlush)[0];
    const std::vector<BugReport> local_a = runLocal(case_a);
    const std::vector<BugReport> local_b = runLocal(case_b);

    std::vector<BugReport> remote_a;
    std::vector<BugReport> remote_b;
    std::thread client_a([&] {
        remote_a = runRemote(case_a, config.socketPath);
    });
    std::thread client_b([&] {
        remote_b = runRemote(case_b, config.socketPath);
    });
    client_a.join();
    client_b.join();

    EXPECT_TRUE(sameBugs(local_a, remote_a)) << "client A";
    EXPECT_TRUE(sameBugs(local_b, remote_b)) << "client B";

    // Summaries are appended after the Report reaches the client.
    EXPECT_TRUE(daemon.waitForSessions(2, 10000));
    const std::vector<SessionSummary> sessions = daemon.summaries();
    ASSERT_EQ(sessions.size(), 2u);
    EXPECT_NE(sessions[0].id, sessions[1].id);
    const std::string json = daemon.aggregatedJson();
    EXPECT_NE(json.find("\"sessions\""), std::string::npos);
    EXPECT_TRUE(parsesAsJson(json)) << json;
    daemon.stop();
}

/**
 * Run @p bad_client (given the daemon's socket; it returns whether its
 * session got a report) next to a clean client: the bad session must
 * end aborted with no report, while the clean client's report — and a
 * later client's — equals a solo run's byte for byte.
 */
void
expectOnlyBadSessionAborts(
    const std::function<bool(const std::string &)> &bad_client)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const BugCase &clean = *casesOfType(BugType::NoDurability)[0];
    ReportBody solo;
    runRemote(clean, config.socketPath, SlowConsumerPolicy::Block, 1024,
              &solo);

    bool badFinished = true;
    std::thread bad([&] { badFinished = bad_client(config.socketPath); });
    ReportBody concurrent;
    std::thread good([&] {
        runRemote(clean, config.socketPath, SlowConsumerPolicy::Block,
                  1024, &concurrent);
    });
    bad.join();
    good.join();

    EXPECT_FALSE(badFinished) << "an aborted session sends no report";
    EXPECT_EQ(concurrent.serialize(), solo.serialize());

    // The daemon is still up and serving.
    ReportBody after;
    runRemote(clean, config.socketPath, SlowConsumerPolicy::Block, 1024,
              &after);
    EXPECT_EQ(after.serialize(), solo.serialize());

    EXPECT_TRUE(daemon.waitForSessions(4, 10000));
    std::size_t aborted = 0;
    for (const SessionSummary &session : daemon.summaries())
        aborted += session.aborted ? 1 : 0;
    EXPECT_EQ(aborted, 1u);
    daemon.stop();
}

/** A RegisterPmem naming id 424242, never interned by its client. */
Event
uninternedRegistration()
{
    Event event;
    event.kind = EventKind::RegisterPmem;
    event.nameId = 424242;
    event.size = 8;
    return event;
}

TEST(ServiceTest, BadSpilledNameIdAbortsOnlyItsSession)
{
    // The bad client floods a 16-slot ring until the Spill policy
    // diverts the stream (spilling is sticky once it starts), then
    // spills a RegisterPmem naming an id it never interned: the sink
    // is attached to no runtime, so it sends no names at all.
    expectOnlyBadSessionAborts([](const std::string &socket) {
        RemoteSink sink;
        RemoteSink::Options options;
        options.socketPath = socket;
        options.ringPath = scratchPath("ring");
        options.ringSlots = 16;
        options.policy = SlowConsumerPolicy::Spill;
        options.spillPath = scratchPath("spill");
        std::string err;
        EXPECT_TRUE(sink.connect(options, &err)) << err;
        Event event;
        event.kind = EventKind::Store;
        event.size = 8;
        for (SeqNum seq = 1; sink.spillEvents() == 0 && seq < 1000000;
             ++seq) {
            event.seq = seq;
            event.addr = 0x1000 + 8 * (seq % 64);
            sink.handle(event);
        }
        EXPECT_GT(sink.spillEvents(), 0u);
        sink.handle(uninternedRegistration());
        ReportBody report;
        return sink.finish(&report, &err);
    });
}

TEST(ServiceTest, BadRingNameIdAbortsOnlyItsSession)
{
    // The same unnamed RegisterPmem, published through the ring under
    // the Block policy: the poller must reject the drained batch
    // before any shard looks the id up.
    expectOnlyBadSessionAborts([](const std::string &socket) {
        RemoteSink sink;
        RemoteSink::Options options;
        options.socketPath = socket;
        options.ringPath = scratchPath("ring");
        std::string err;
        EXPECT_TRUE(sink.connect(options, &err)) << err;
        sink.handle(uninternedRegistration());
        ReportBody report;
        return sink.finish(&report, &err);
    });
}

TEST(ServiceTest, ForgedRingHeadAbortsOnlyItsSession)
{
    // The client owns the ring mapping: moving head 1000 events past
    // tail on a 16-slot ring claims more than the slots hold, which
    // popBatch must refuse rather than copy past the slot array.
    expectOnlyBadSessionAborts([](const std::string &socket) {
        RemoteSink sink;
        RemoteSink::Options options;
        options.socketPath = socket;
        options.ringPath = scratchPath("ring");
        options.ringSlots = 16;
        std::string err;
        EXPECT_TRUE(sink.connect(options, &err)) << err;
        const int fd = ::open(options.ringPath.c_str(), O_RDWR);
        void *map = fd < 0 ? MAP_FAILED
                           : ::mmap(nullptr, sizeof(RingHeader),
                                    PROT_READ | PROT_WRITE, MAP_SHARED,
                                    fd, 0);
        if (fd >= 0)
            ::close(fd);
        if (map == MAP_FAILED) {
            ADD_FAILURE() << "cannot map " << options.ringPath;
            return true;
        }
        static_cast<RingHeader *>(map)->head.fetch_add(1000);
        ::munmap(map, sizeof(RingHeader));
        ReportBody report;
        return sink.finish(&report, &err);
    });
}

TEST(ServiceTest, MultiStripeStreamShardsByAddressRange)
{
    // Small stripes force a single session's stores across all three
    // shards; the merged report must still equal in-process detection.
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 3;
    config.pool.stripeBytes = 4096;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const auto drive = [](PmRuntime &runtime) {
        // 8 stripes; even stripes are flushed+fenced, odd are left
        // unflushed -> one NoDurability site per odd stripe.
        for (int round = 0; round < 3; ++round) {
            for (Addr stripe = 0; stripe < 8; ++stripe) {
                const Addr base = stripe * 4096;
                runtime.store(base, 64);
                if (stripe % 2 == 0)
                    runtime.flush(base, 64);
            }
            runtime.fence();
        }
        runtime.programEnd();
    };

    PmRuntime localRuntime;
    PmDebugger local;
    localRuntime.attach(&local);
    drive(localRuntime);
    local.finalize();

    PmRuntime remoteRuntime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    remoteRuntime.attach(&sink);
    drive(remoteRuntime);
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;

    // Shards finalize independently, so same-seq bugs may merge in a
    // different relative order than one debugger's finalize pass;
    // compare as sorted multisets.
    const auto canonical = [](std::vector<BugReport> bugs) {
        std::sort(bugs.begin(), bugs.end(),
                  [](const BugReport &a, const BugReport &b) {
                      return std::tie(a.seq, a.range.start,
                                      a.range.end) <
                             std::tie(b.seq, b.range.start,
                                      b.range.end);
                  });
        return bugs;
    };
    EXPECT_TRUE(sameBugs(canonical(local.bugs().bugs()),
                         canonical(report.bugs)));
    EXPECT_EQ(local.bugs().countOf(BugType::NoDurability), 4u);
    daemon.stop();
}

TEST(ServiceTest, ClientSurvivesMissingDaemon)
{
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = scratchPath("nonexistent.sock");
    options.ringPath = scratchPath("ring");
    options.connectTimeoutMs = 50;
    std::string error;
    EXPECT_FALSE(sink.connect(options, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(sink.connected());
}

/** A fully persisted stream spread over @p stripes 4 KiB stripes. */
std::vector<Event>
stripedCleanStream(std::size_t rounds, std::size_t stripes)
{
    std::vector<Event> events;
    SeqNum seq = 1;
    auto emit = [&](EventKind kind, Addr addr, std::uint32_t size) {
        Event event;
        event.kind = kind;
        event.addr = addr;
        event.size = size;
        event.seq = seq++;
        events.push_back(event);
    };
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t stripe = 0; stripe < stripes; ++stripe) {
            const Addr base = static_cast<Addr>(stripe) * 4096;
            const Addr addr = base + 64 * (round % 16);
            emit(EventKind::Store, addr, 64);
            emit(EventKind::Flush, addr, 64);
        }
        emit(EventKind::Fence, 0, 0);
    }
    emit(EventKind::ProgramEnd, 0, 0);
    return events;
}

TEST(ShardPoolTest, WorkStealingCoversDeliberatelySlowShard)
{
    // Shard 0's worker sleeps on every Events task; its queues keep
    // turning ready while it is busy, so other workers must steal
    // them or the run crawls. Verify steals happen and the verdict
    // still equals an unhandicapped pool's.
    const auto runPool = [](bool slow) {
        ShardPoolConfig config;
        config.shards = 4;
        config.stripeBytes = 4096;
        config.queueCapacity = 4;
        if (slow) {
            config.slowShard = 0;
            config.slowShardDelayUs = 200;
        }
        ShardPool pool(config);
        pool.start();
        pool.openSession(1, DebuggerConfig{}, /*pinned=*/false);
        const std::vector<Event> events =
            stripedCleanStream(400, config.shards);
        // Small chunks -> many Events tasks per shard queue.
        constexpr std::size_t chunk = 32;
        for (std::size_t at = 0; at < events.size(); at += chunk) {
            pool.routeEvents(1, events.data() + at,
                             std::min(chunk, events.size() - at));
        }
        SessionVerdict verdict = pool.closeSession(1, {});
        const std::uint64_t steals = pool.stealCount();
        pool.stop();
        return std::make_pair(std::move(verdict), steals);
    };

    auto [fastVerdict, fastSteals] = runPool(false);
    auto [slowVerdict, slowSteals] = runPool(true);
    (void)fastSteals;
    EXPECT_GT(slowSteals, 0u) << "no queue was ever stolen from the "
                                 "slow shard";
    EXPECT_TRUE(sameBugs(fastVerdict.bugs, slowVerdict.bugs));
    EXPECT_EQ(fastVerdict.stats.stores, slowVerdict.stats.stores);
    EXPECT_EQ(fastVerdict.stats.flushes, slowVerdict.stats.flushes);
}

TEST(ServiceTest, IngestCountersSurfaceInSummariesAndJson)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    config.pollers = 1;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    for (int i = 0; i < 4096; ++i) {
        runtime.store(0x1000 + 64u * (i % 32), 64);
        runtime.flush(0x1000 + 64u * (i % 32), 64);
        if (i % 32 == 31)
            runtime.fence();
    }
    runtime.programEnd();
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;

    // Summaries are appended after the Report reaches the client.
    EXPECT_TRUE(daemon.waitForSessions(1, 10000));
    const std::vector<SessionSummary> sessions = daemon.summaries();
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_GT(sessions[0].batchesDrained, 0u);
    EXPECT_GT(sessions[0].eventsProcessed, 0u);
    EXPECT_GT(sessions[0].seconds, 0.0);

    const IngestStats ingest = daemon.ingestStats();
    EXPECT_GT(ingest.polls, 0u);

    const std::vector<ShardStats> shards = daemon.shardStats();
    ASSERT_EQ(shards.size(), 2u);
    std::uint64_t shardEvents = 0;
    for (const ShardStats &shard : shards)
        shardEvents += shard.events;
    EXPECT_GE(shardEvents, sessions[0].eventsProcessed);

    const std::string json = daemon.aggregatedJson();
    for (const char *key :
         {"\"pollers\"", "\"idle_poll_ratio\"", "\"steals\"",
          "\"shard_stats\"", "\"batches_drained\"",
          "\"queue_full_stalls\"", "\"events_per_sec\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    daemon.stop();
}

} // namespace
} // namespace pmdb
