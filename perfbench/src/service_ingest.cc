/**
 * @file
 * service_ingest: two closed-loop clients replay recorded b_tree and
 * hashmap_tx traces through RemoteSink (Block policy) into an
 * in-process ServiceDaemon with one poller and one shard — four busy
 * threads. Closed loop because a pmdb_run client under Block stalls
 * until the daemon catches up. The traces are recorded during set-up,
 * so the timed phase exercises the service's transport (ring, poller,
 * routing) and the shard, not the application.
 *
 * Each client replays cycles of three b_tree sessions and one
 * hashmap_tx session, in a seeded order. A cycle is the job whose time
 * to verdict is reported: the sum over its sessions of the time from
 * finish() to the report. Per session, the two kinds differ ~100x and a
 * b_tree verdict waits whenever the other client's hashmap_tx backlog
 * holds the shard, so a percentile over single sessions lands on the
 * edge of one of those modes and jumps between runs; the per-kind
 * percentiles are printed as details instead.
 */

#include <unistd.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"
#include "inprocess.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "workloads/workload.hh"

namespace perfbench
{
namespace
{

constexpr int clients = 2;
constexpr std::uint64_t btreeOps = 1500;
constexpr std::uint64_t hashmapTxOps = 6000;
/** Sessions per client cycle: three b_tree and one hashmap_tx. */
constexpr int cycleLength = 4;

struct Trace
{
    std::string name;
    std::string orderSpecText;
    Recording recording;
};

struct State
{
    std::vector<Trace> traces; // [0] b_tree, [1] hashmap_tx
    std::string socketPath;
    std::unique_ptr<pmdb::ServiceDaemon> daemon;
};

struct Session
{
    int kind = 0;
    bool traced = false;
    pmdb::SessionId id = 0;
    std::uint64_t events = 0;
    std::uint64_t frames = 0;
    double publishSeconds = 0.0;
    double verdictSeconds = 0.0;
    double sessionSeconds = 0.0;
};

struct ClientResult
{
    std::vector<Session> sessions;
    /** Summed finish-to-report time of each completed cycle. */
    std::vector<double> cycleSeconds;
    Checks checks;
};

std::atomic<std::uint64_t> nextPathId{0};

std::string
uniquePath(const std::string &dir, const char *suffix)
{
    return dir + "/" + std::to_string(::getpid()) + "-" +
           std::to_string(nextPathId++) + suffix;
}

/** One session: connect, publish the trace, finish, check the verdict. */
Session
runSession(const State &state, const std::string &workDir, int kind,
           SpanLog &spans, std::uint64_t id, Checks &checks)
{
    const Trace &trace = state.traces[static_cast<std::size_t>(kind)];
    const Recording &recording = trace.recording;
    Session session;
    session.kind = kind;
    pmdb::Stopwatch total;
    ScopedSpan root(spans, "service.session", id);

    pmdb::RemoteSink sink;
    pmdb::RemoteSink::Options options;
    options.socketPath = state.socketPath;
    options.ringPath = uniquePath(workDir, ".ring");
    options.policy = pmdb::SlowConsumerPolicy::Block;
    options.model = recording.config.model;
    options.orderSpecText = trace.orderSpecText;
    std::string error;
    bool connected = false;
    {
        ScopedSpan span(spans, "service.connect", id, root.handle());
        connected = sink.connect(options, &error);
    }
    ::unlink(options.ringPath.c_str()); // the daemon has it mapped now
    if (!checks.expect(connected, trace.name + ": connect: " + error))
        return session;
    sink.attached(recording.names);
    session.id = sink.sessionId();

    pmdb::Stopwatch watch;
    {
        ScopedSpan span(spans, "service.publish", id, root.handle());
        std::size_t at = 0;
        for (const std::uint32_t size : recording.batches) {
            sink.handleBatch(recording.events.data() + at, size);
            at += size;
        }
    }
    session.publishSeconds = watch.elapsedSeconds();
    session.frames = sink.ringFrames();

    pmdb::ReportBody report;
    watch.reset();
    bool finished = false;
    {
        ScopedSpan span(spans, "service.finish", id, root.handle());
        finished = sink.finish(&report, &error);
    }
    session.verdictSeconds = watch.elapsedSeconds();
    session.sessionSeconds = total.elapsedSeconds();
    session.events = report.eventsProcessed;
    if (!checks.expect(finished, trace.name + ": finish: " + error))
        return session;
    const std::string diff = compareFingerprints(
        recording.reference.bugs, fingerprintSet(report.bugs));
    checks.expect(diff.empty(), trace.name +
                                    ": service verdict differs from the "
                                    "in-process replay: " + diff);
    checks.expect(report.eventsProcessed == recording.events.size() &&
                      report.eventsDropped == 0,
                  trace.name + ": daemon consumed " +
                      std::to_string(report.eventsProcessed) + " of " +
                      std::to_string(recording.events.size()) +
                      " events, dropped " +
                      std::to_string(report.eventsDropped));
    return session;
}

State
setUp(const RunArgs &args)
{
    State state;
    pmdb::Rng rng(args.seed);
    for (const auto &[name, ops] :
         {std::pair<const char *, std::uint64_t>{"b_tree", btreeOps},
          {"hashmap_tx", hashmapTxOps}}) {
        const Program program = workloadProgram(name, ops, rng.next());
        Trace trace;
        trace.name = name;
        trace.orderSpecText = pmdb::makeWorkload(name)->orderSpecText();
        trace.recording = record(program.run, program.config);
        state.traces.push_back(std::move(trace));
    }

    pmdb::ServiceConfig config;
    config.socketPath = uniquePath(args.workDir, ".sock");
    config.pool.shards = 1;
    config.pollers = 1;
    state.socketPath = config.socketPath;
    state.daemon = std::make_unique<pmdb::ServiceDaemon>(config);
    std::string error;
    if (!state.daemon->start(&error))
        throw std::runtime_error("daemon start: " + error);

    SpanLog off(false);
    Checks warmup;
    for (int kind = 0; kind < 2; ++kind)
        runSession(state, args.workDir, kind, off, 0, warmup);
    if (warmup.failed())
        throw std::runtime_error("warm-up session: " +
                                 warmup.failures().front());
    return state;
}

} // namespace

void
runServiceIngest(const RunArgs &args, SpanLog &spans, Outcome &out)
{
    State state = repeatedSetup(out, [&] { return setUp(args); });
    pmdb::ServiceDaemon &daemon = *state.daemon;

    const pmdb::IngestStats pollsBefore = daemon.ingestStats();
    const std::uint64_t shardBefore = daemon.shardStats().at(0).events;
    const double budget = args.trace ? args.seconds / 2 : args.seconds;

    std::vector<ClientResult> results(clients);
    std::vector<std::thread> threads;
    resetPeakRss();
    pmdb::Stopwatch wall;
    std::atomic<std::uint64_t> cycles{0};
    pmdb::Rng seeds(args.seed);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c, orderSeed = seeds.next()] {
            SpanLog off(false);
            ClientResult &result = results[static_cast<std::size_t>(c)];
            // A seeded slot for the hashmap_tx session in each cycle, so
            // the two clients' long sessions overlap at random instead
            // of locking into one phase for a whole run.
            pmdb::Rng order(orderSeed);
            std::uint64_t longSlot = 0;
            double cycle = 0.0;
            for (std::uint64_t n = 0;
                 keepTiming(wall.elapsedSeconds(), budget, cycles); ++n) {
                if (n % cycleLength == 0)
                    longSlot = order.nextBounded(cycleLength);
                // Traced runs alternate cycles with and without spans.
                const bool traced = args.trace && n / cycleLength % 2 == 1;
                const int kind = n % cycleLength == longSlot ? 1 : 0;
                Session session = runSession(
                    state, args.workDir, kind, traced ? spans : off,
                    n * clients + static_cast<std::uint64_t>(c),
                    result.checks);
                session.traced = traced;
                result.sessions.push_back(session);
                cycle += session.verdictSeconds;
                if (n % cycleLength == cycleLength - 1) {
                    result.cycleSeconds.push_back(cycle);
                    ++cycles;
                    cycle = 0.0;
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const double wallSeconds = wall.elapsedSeconds();

    double events = 0, frames = 0, publish = 0;
    std::set<pmdb::SessionId> ids;
    std::vector<double> traced, untraced;
    std::vector<double> kindMs[2];
    for (ClientResult &result : results) {
        out.checks.merge(result.checks);
        for (const double seconds : result.cycleSeconds)
            out.verdictMs.push_back(seconds * 1e3);
        for (const Session &session : result.sessions) {
            events += static_cast<double>(session.events);
            frames += static_cast<double>(session.frames);
            publish += session.publishSeconds;
            ids.insert(session.id);
            kindMs[session.kind].push_back(session.verdictSeconds * 1e3);
            if (session.kind == 0)
                (session.traced ? traced : untraced)
                    .push_back(session.sessionSeconds);
        }
    }
    out.throughputPerS = events / wallSeconds;
    out.detail.push_back({"ingest_events_per_s", out.throughputPerS, "1/s"});
    for (int kind = 0; kind < 2; ++kind) {
        const std::string name =
            state.traces[static_cast<std::size_t>(kind)].name;
        const std::vector<double> &ms = kindMs[kind];
        out.detail.push_back({"sessions." + name,
                              static_cast<double>(ms.size()), "count"});
        out.detail.push_back(
            {"session_verdict_ms_p50." + name, quantile(ms, 0.5), "ms"});
        if (highestReportablePercentile(ms.size()) >= 0.9)
            out.detail.push_back({"session_verdict_ms_p90." + name,
                                  quantile(ms, 0.9), "ms"});
    }

    double stalls = 0, dropped = 0, aborted = 0;
    for (const pmdb::SessionSummary &summary : daemon.summaries()) {
        if (!ids.count(summary.id))
            continue;
        stalls += static_cast<double>(summary.queueFullStalls);
        dropped += static_cast<double>(summary.eventsDropped);
        aborted += summary.aborted ? 1 : 0;
    }
    out.checks.expect(dropped == 0 && aborted == 0,
                      "service dropped events or aborted sessions");
    if (!args.trace)
        return;

    const pmdb::IngestStats pollsAfter = daemon.ingestStats();
    const double polls =
        static_cast<double>(pollsAfter.polls - pollsBefore.polls);
    auto &layer = out.layer;
    layer["service.publish_ns_per_event"] =
        events > 0 ? publish * 1e9 / events : 0.0;
    layer["service.events_per_frame"] = frames > 0 ? events / frames : 0.0;
    layer["service.queue_full_stalls"] = stalls;
    layer["service.idle_poll_ratio"] =
        polls > 0 ? static_cast<double>(pollsAfter.idlePolls -
                                        pollsBefore.idlePolls) /
                        polls
                  : 0.0;
    layer["service.shard_events"] = static_cast<double>(
        daemon.shardStats().at(0).events - shardBefore);
    layer["service.events_dropped"] = dropped;
    layer["service.sessions_aborted"] = aborted;
    layer["tracing.overhead_ratio"] = tracingOverhead(traced, untraced);

    // Core and input figures per client cycle.
    addStreamLayers({{&state.traces[0].recording, cycleLength - 1, btreeOps},
                     {&state.traces[1].recording, 1, hashmapTxOps}},
                    3, layer);
}

} // namespace perfbench
