#include "inprocess.hh"

#include <memory>
#include <stdexcept>

#include "core/order_spec.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

namespace perfbench
{
namespace
{

/** Nulgrind that the runtime charges DBI costs for. */
class DbiNulgrind : public pmdb::NulgrindSink
{
  public:
    bool isDbiBased() const override { return true; }
};

struct Prepared
{
    Program program;
    Recording recording;
};

struct State
{
    std::vector<Prepared> programs;
    /** In-process verdicts of the pinned programs, by position. */
    std::vector<FingerprintSet> pinned;
};

struct CheckedRun
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    FingerprintSet bugs;
    pmdb::DebuggerStats stats;
};

/** One timed run of @p program under a PmDebugger, to its verdict. */
CheckedRun
checkRun(const Program &program, SpanLog &spans, std::uint64_t id,
         std::uint32_t parent)
{
    pmdb::PmRuntime runtime;
    pmdb::PmDebugger debugger(program.config);
    runtime.attach(&debugger);
    configureRuntime(runtime);
    CheckedRun run;
    pmdb::Stopwatch watch;
    {
        ScopedSpan span(spans, "workloads.run", id, parent);
        program.run(runtime);
    }
    run.seconds = watch.elapsedSeconds();
    run.events = runtime.eventCount();
    run.bugs = fingerprintSet(debugger.bugs().bugs());
    run.stats = debugger.stats();
    return run;
}

/** Median time of @p reps runs of @p program with only @p sink attached. */
double
sinkRunSeconds(const Program &program, pmdb::TraceSink *sink, bool dbi,
               int reps)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        pmdb::PmRuntime runtime;
        if (sink)
            runtime.attach(sink);
        runtime.setDispatchMode(pmdb::DispatchMode::Batched);
        if (!dbi)
            runtime.setDbiCosts(0, 0, 0);
        pmdb::Stopwatch watch;
        program.run(runtime);
        times.push_back(watch.elapsedSeconds());
        if (sink)
            runtime.detach(sink);
    }
    return median(times);
}

/** Check @p run against the reference verdict of @p prepared. */
void
checkVerdict(const Prepared &prepared, const CheckedRun &run,
             Checks &checks)
{
    const Program &program = prepared.program;
    const std::string diff =
        compareFingerprints(prepared.recording.reference.bugs, run.bugs);
    checks.expect(diff.empty(), program.name +
                                    ": verdict differs from the per-event "
                                    "replay: " + diff);
    checks.expect(sameStats(prepared.recording.reference.stats, run.stats),
                  program.name + ": DebuggerStats differ from the "
                                 "per-event replay");
    checks.expect(run.events == prepared.recording.events.size(),
                  program.name + ": event count differs from the "
                                 "recording");
    if (program.expect) {
        const std::string why = program.expect(run.bugs);
        checks.expect(why.empty(), program.name + ": " + why);
    }
}

/** Knock-out passes and per-layer figures of the traced run. */
void
measureLayers(const State &state,
              const std::vector<std::vector<double>> &detectorSeconds,
              Outcome &out)
{
    constexpr int reps = 3;
    double events = 0, native = 0, nulgrind = 0, dbi = 0, detector = 0;
    std::vector<JobStream> streams;
    for (std::size_t i = 0; i < state.programs.size(); ++i) {
        const Prepared &prepared = state.programs[i];
        events += static_cast<double>(prepared.recording.events.size());
        streams.push_back({&prepared.recording, 1, prepared.program.ops});
        native += sinkRunSeconds(prepared.program, nullptr, false, reps);
        pmdb::NulgrindSink plain;
        nulgrind += sinkRunSeconds(prepared.program, &plain, false, reps);
        DbiNulgrind charged;
        dbi += sinkRunSeconds(prepared.program, &charged, true, reps);
        detector += median(detectorSeconds[i]);
    }
    auto &layer = out.layer;
    const double perEvent = events > 0 ? 1e9 / events : 0.0;
    layer["workloads.native_ns_per_event"] = native * perEvent;
    layer["workloads.slowdown_x"] = native > 0 ? detector / native : 0.0;
    layer["trace.dispatch_ns_per_event"] = (nulgrind - native) * perEvent;
    layer["trace.dbi_ns_per_event"] = (dbi - nulgrind) * perEvent;
    addStreamLayers(streams, reps, layer);
}

} // namespace

Program
workloadProgram(const std::string &workload, std::uint64_t ops,
                std::uint64_t seed, const std::string &fault,
                std::size_t pool_bytes)
{
    std::shared_ptr<pmdb::Workload> instance = pmdb::makeWorkload(workload);
    if (!instance)
        throw std::runtime_error("unknown workload " + workload);
    Program program;
    program.name = fault.empty() ? workload : workload + "+" + fault;
    program.buggy = !fault.empty();
    program.ops = ops;
    program.config.model = instance->model();
    if (!instance->orderSpecText().empty()) {
        program.config.orderSpec =
            pmdb::OrderSpec::fromText(instance->orderSpecText());
    }
    pmdb::WorkloadOptions options;
    options.operations = ops;
    options.seed = seed;
    options.poolBytes = pool_bytes;
    // The device's persistence tracking models what PM hardware does
    // for free; it is not part of the checked program.
    options.trackPersistence = false;
    if (!fault.empty())
        options.faults.enable(fault);
    program.run = [instance, options](pmdb::PmRuntime &runtime) {
        instance->run(runtime, options);
    };
    return program;
}

void
runInProcess(const RunArgs &args,
             const std::function<std::vector<Program>()> &programs,
             const std::vector<Program> &pinned, bool split,
             SpanLog &spans, Outcome &out)
{
    SpanLog off(false);
    const State state = repeatedSetup(out, [&] {
        State s;
        for (Program &program : programs()) {
            Prepared prepared;
            prepared.recording = record(program.run, program.config);
            prepared.program = std::move(program);
            s.programs.push_back(std::move(prepared));
        }
        for (const Program &program : pinned)
            s.pinned.push_back(
                checkRun(program, off, 0, SpanLog::noParent).bugs);
        for (const Prepared &prepared : s.programs)
            checkRun(prepared.program, off, 0, SpanLog::noParent); // warm-up
        return s;
    });

    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const std::string why =
            checkPin(args.pins, args.workload + "." + pinned[i].name,
                     state.pinned[i]);
        out.checks.expect(why.empty(), "pinned verdict: " + why);
    }
    for (const Prepared &prepared : state.programs) {
        if (prepared.program.expect) {
            const std::string why =
                prepared.program.expect(prepared.recording.reference.bugs);
            out.checks.expect(why.empty(), prepared.program.name +
                                               " reference: " + why);
        }
    }

    // Rounds of one run of every program; in a traced run, odd rounds
    // carry spans and even rounds measure the same work without them.
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    double events[2] = {0, 0};
    double seconds[2] = {0, 0};
    std::vector<std::vector<double>> perProgram(state.programs.size());
    std::vector<double> traced, untraced, rates;
    resetPeakRss();
    pmdb::Stopwatch wall;
    for (std::uint64_t round = 0;
         keepTiming(wall.elapsedSeconds(), budget, round); ++round) {
        const bool withSpans = args.trace && round % 2 == 1;
        SpanLog &log = withSpans ? spans : off;
        ScopedSpan roundSpan(log, "bench.round", round);
        double roundSeconds = 0.0;
        double roundEvents = 0.0;
        for (std::size_t i = 0; i < state.programs.size(); ++i) {
            const Prepared &prepared = state.programs[i];
            const CheckedRun run =
                checkRun(prepared.program, log, round, roundSpan.handle());
            checkVerdict(prepared, run, out.checks);
            roundSeconds += run.seconds;
            roundEvents += static_cast<double>(run.events);
            perProgram[i].push_back(run.seconds);
            const int cls = prepared.program.buggy ? 1 : 0;
            events[cls] += static_cast<double>(run.events);
            seconds[cls] += run.seconds;
        }
        out.verdictMs.push_back(roundSeconds * 1e3);
        rates.push_back(roundEvents / roundSeconds);
        (withSpans ? traced : untraced).push_back(roundSeconds);
    }

    // The median round's rate: a burst of host noise moves few rounds.
    out.throughputPerS = median(rates);
    if (split) {
        out.detail.push_back({"check_events_per_s.clean",
                              events[0] / seconds[0], "1/s"});
        out.detail.push_back({"check_events_per_s.buggy",
                              events[1] / seconds[1], "1/s"});
    } else {
        out.detail.push_back({"check_events_per_s",
                              (events[0] + events[1]) /
                                  (seconds[0] + seconds[1]),
                              "1/s"});
    }
    if (args.trace) {
        measureLayers(state, perProgram, out);
        out.layer["tracing.overhead_ratio"] =
            tracingOverhead(traced, untraced);
    }
}

} // namespace perfbench
