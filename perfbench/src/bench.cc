#include "bench.hh"

#include <algorithm>

namespace perfbench
{
namespace
{

/** Records the stream and the batch boundaries the runtime delivered. */
class BatchRecorder : public pmdb::TraceSink
{
  public:
    void
    handle(const pmdb::Event &event) override
    {
        events.push_back(event);
        batches.push_back(1);
    }

    void
    handleBatch(const pmdb::Event *batch, std::size_t count) override
    {
        events.insert(events.end(), batch, batch + count);
        batches.push_back(static_cast<std::uint32_t>(count));
    }

    std::vector<pmdb::Event> events;
    std::vector<std::uint32_t> batches;
};

/** Mean cost of one steady_clock read pair, in seconds. */
double
clockPairSeconds()
{
    static const double cost = [] {
        constexpr int pairs = 20000;
        Clock::duration sink{};
        pmdb::Stopwatch watch;
        for (int i = 0; i < pairs; ++i) {
            const auto a = Clock::now();
            sink += Clock::now() - a;
        }
        return watch.elapsedSeconds() / pairs;
    }();
    return cost;
}

/** One replay of @p recording; returns {batch seconds, finalize seconds}. */
std::pair<double, double>
replayOnce(const Recording &recording, const pmdb::DebuggerConfig &config)
{
    pmdb::PmDebugger debugger(config);
    debugger.attached(recording.names);
    // The trailing ProgramEnd would finalize inside handleBatch; hold
    // it back so finalize() is timed on its own.
    std::size_t end = recording.events.size();
    if (end && recording.events[end - 1].kind == pmdb::EventKind::ProgramEnd)
        --end;
    const pmdb::Event *events = recording.events.data();
    pmdb::Stopwatch watch;
    std::size_t at = 0;
    for (const std::uint32_t size : recording.batches) {
        const std::size_t n = std::min<std::size_t>(size, end - at);
        if (n)
            debugger.handleBatch(events + at, n);
        at += n;
    }
    const double batches = watch.elapsedSeconds();
    watch.reset();
    debugger.finalize();
    return {batches, watch.elapsedSeconds()};
}

/** Replay split at kind changes; returns the time spent on flush runs. */
double
flushRunSeconds(const Recording &recording)
{
    pmdb::PmDebugger debugger(recording.config);
    debugger.attached(recording.names);
    const std::vector<pmdb::Event> &events = recording.events;
    double flush = 0.0;
    std::size_t flushCalls = 0;
    std::size_t at = 0;
    for (const std::uint32_t size : recording.batches) {
        const std::size_t end = std::min(events.size(), at + size);
        while (at < end) {
            std::size_t run = at + 1;
            while (run < end && events[run].kind == events[at].kind)
                ++run;
            if (events[at].kind == pmdb::EventKind::Flush) {
                const auto start = Clock::now();
                debugger.handleBatch(events.data() + at, run - at);
                flush += std::chrono::duration<double>(Clock::now() - start)
                             .count();
                ++flushCalls;
            } else {
                debugger.handleBatch(events.data() + at, run - at);
            }
            at = run;
        }
    }
    return std::max(0.0, flush - static_cast<double>(flushCalls) *
                                     clockPairSeconds());
}

/** Knock-out timings of one recorded stream, in seconds. */
struct StreamCost
{
    /** handleBatch replay, rules on. */
    double core = 0.0;
    /** The same with every detect* rule off. */
    double rulesOff = 0.0;
    /** Flush runs in a replay split at every change of kind. */
    double flush = 0.0;
    /** finalize() after the replayed stream. */
    double finalize = 0.0;
};

StreamCost
measureStream(const Recording &recording, int reps)
{
    std::vector<double> core, off, flush, finalize;
    const pmdb::DebuggerConfig quiet = rulesOff(recording.config);
    for (int i = 0; i < reps; ++i) {
        const auto on = replayOnce(recording, recording.config);
        core.push_back(on.first);
        finalize.push_back(on.second);
        off.push_back(replayOnce(recording, quiet).first);
        flush.push_back(flushRunSeconds(recording));
    }
    StreamCost cost;
    cost.core = median(core);
    cost.rulesOff = median(off);
    cost.flush = median(flush);
    cost.finalize = median(finalize);
    return cost;
}

} // namespace

pmdb::DebuggerConfig
rulesOff(pmdb::DebuggerConfig config)
{
    config.detectNoDurability = false;
    config.detectMultipleOverwrite = false;
    config.detectNoOrderGuarantee = false;
    config.detectRedundantFlush = false;
    config.detectFlushNothing = false;
    config.detectRedundantLogging = false;
    config.detectLackDurabilityInEpoch = false;
    config.detectRedundantEpochFence = false;
    config.detectLackOrderingInStrands = false;
    return config;
}

Recording
record(const std::function<void(pmdb::PmRuntime &)> &program,
       const pmdb::DebuggerConfig &config)
{
    Recording recording;
    {
        pmdb::PmRuntime runtime;
        BatchRecorder recorder;
        runtime.attach(&recorder);
        configureRuntime(runtime);
        program(runtime);
        runtime.detach(&recorder);
        // Exact-size copies: how far a doubling vector overshot must
        // not show in peak RSS.
        recording.events.assign(recorder.events.begin(),
                                recorder.events.end());
        recording.batches.assign(recorder.batches.begin(),
                                 recorder.batches.end());
        recording.names = runtime.names();
    }
    recording.config = config;

    pmdb::PmDebugger debugger(config);
    debugger.attached(recording.names);
    for (const pmdb::Event &event : recording.events)
        debugger.handle(event);
    debugger.finalize();
    recording.reference.bugs = fingerprintSet(debugger.bugs().bugs());
    recording.reference.stats = debugger.stats();
    return recording;
}

bool
sameStats(const pmdb::DebuggerStats &a, const pmdb::DebuggerStats &b)
{
    return a.stores == b.stores && a.flushes == b.flushes &&
           a.fences == b.fences && a.epochs == b.epochs &&
           a.treeNodeSampleSum == b.treeNodeSampleSum &&
           a.treeNodeSamples == b.treeNodeSamples &&
           a.tree.insertions == b.tree.insertions &&
           a.tree.removals == b.tree.removals &&
           a.tree.reorganizations == b.tree.reorganizations &&
           a.tree.merges == b.tree.merges &&
           a.array.recordsCollectivelyFreed ==
               b.array.recordsCollectivelyFreed &&
           a.array.recordsMovedToTree == b.array.recordsMovedToTree &&
           a.array.overflowStores == b.array.overflowStores;
}

void
addInputProfile(const InputProfile &profile, std::uint64_t ops,
                std::map<std::string, double> &layer)
{
    layer["input.flushes_per_fence_p50"] =
        quantile(profile.flushesPerFence, 0.5);
    layer["input.flushes_per_fence_max"] =
        quantile(profile.flushesPerFence, 1.0);
    layer["input.events_per_op"] =
        ops ? static_cast<double>(profile.events) / static_cast<double>(ops)
            : 0.0;
}

void
addStreamLayers(const std::vector<JobStream> &streams, int reps,
                std::map<std::string, double> &layer)
{
    double events = 0, batches = 0, ops = 0, bugSites = 0;
    pmdb::DebuggerStats sum;
    StreamCost job;
    InputProfile profile;
    for (const JobStream &stream : streams) {
        const Recording &recording = *stream.recording;
        const pmdb::DebuggerStats &stats = recording.reference.stats;
        const StreamCost cost = measureStream(recording, reps);
        for (int i = 0; i < stream.count; ++i) {
            events += static_cast<double>(recording.events.size());
            batches += static_cast<double>(recording.batches.size());
            ops += static_cast<double>(stream.ops);
            bugSites += static_cast<double>(recording.reference.bugs.size());
            job.core += cost.core;
            job.rulesOff += cost.rulesOff;
            job.flush += cost.flush;
            job.finalize += cost.finalize;
            sum.stores += stats.stores;
            sum.flushes += stats.flushes;
            sum.treeNodeSampleSum += stats.treeNodeSampleSum;
            sum.treeNodeSamples += stats.treeNodeSamples;
            sum.tree.insertions += stats.tree.insertions;
            sum.tree.reorganizations += stats.tree.reorganizations;
            sum.tree.merges += stats.tree.merges;
            sum.array.recordsCollectivelyFreed +=
                stats.array.recordsCollectivelyFreed;
            sum.array.recordsMovedToTree += stats.array.recordsMovedToTree;
            sum.array.overflowStores += stats.array.overflowStores;
            profileEvents(recording.events, &profile);
        }
    }
    const auto ratio = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    const auto count = [](std::uint64_t value) {
        return static_cast<double>(value);
    };
    layer["trace.events_per_batch"] = ratio(events, batches);
    layer["core.ns_per_event"] = ratio(job.core * 1e9, events);
    layer["core.rules_ns_per_event"] =
        ratio((job.core - job.rulesOff) * 1e9, events);
    layer["core.ns_per_flush"] = ratio(job.flush * 1e9, count(sum.flushes));
    layer["core.finalize_ms"] = job.finalize * 1e3;
    layer["core.collective_free_ratio"] =
        ratio(count(sum.array.recordsCollectivelyFreed), count(sum.stores));
    layer["core.moved_to_tree"] = count(sum.array.recordsMovedToTree);
    layer["core.array_overflow_stores"] = count(sum.array.overflowStores);
    layer["core.tree_insertions"] = count(sum.tree.insertions);
    layer["core.tree_reorganizations"] = count(sum.tree.reorganizations);
    layer["core.tree_merges"] = count(sum.tree.merges);
    layer["core.avg_tree_nodes_per_fence"] = sum.avgTreeNodesPerFenceInterval();
    layer["core.bug_sites"] = bugSites;
    addInputProfile(profile, static_cast<std::uint64_t>(ops), layer);
}

double
tracingOverhead(const std::vector<double> &traced,
                const std::vector<double> &untraced)
{
    const double base = median(untraced);
    return base > 0 ? median(traced) / base - 1.0 : 0.0;
}

} // namespace perfbench
