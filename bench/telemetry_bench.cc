/**
 * @file
 * Telemetry-overhead benchmark: the dispatch-path cost of the
 * always-on metrics substrate.
 *
 * Part 1 measures the primitives in isolation (striped counter add,
 * histogram record, the enabled() gate) in ns/op. Part 2 runs a
 * dispatch micro-stream (fence intervals of 64 stores + collective
 * flush + fence, batched mode — the production pipeline) with
 * telemetry enabled and disabled in
 * drift-cancelling OFF-ON-OFF / ON-OFF-ON triplets, and reports the
 * median relative overhead across triplets. The gate: enabled
 * dispatch must stay within 2% of disabled at full scale (scaled
 * smoke runs report the number but only warn — sub-second runs
 * measure noise, not cost). Bug verdicts must be identical either
 * way.
 *
 * Emits a JSON row to BENCH_telemetry.json (and stdout).
 */

#include <cstdio>
#include <random>

#include "bench/bench_util.hh"
#include "core/debugger.hh"
#include "telemetry/metrics.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

struct MicroResult
{
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t events = 0;
    std::size_t bugs = 0;
};

/** A dispatch-dominated stream: little detector work per event. */
MicroResult
runMicro(std::size_t fence_intervals)
{
    constexpr std::size_t storesPerInterval = 64;
    constexpr std::size_t bytesPerStore = 8;
    constexpr std::size_t regionBytes = 1 << 20;

    PmRuntime runtime;
    const auto debugger = makeDetector("pmdebugger", DebuggerConfig{});
    runtime.attach(debugger.get());
    runtime.setThreadSafe(true);

    Stopwatch watch;
    Addr base = 0;
    for (std::size_t i = 0; i < fence_intervals; ++i) {
        for (std::size_t s = 0; s < storesPerInterval; ++s)
            runtime.store(base + s * bytesPerStore, bytesPerStore);
        const std::size_t spanBytes = storesPerInterval * bytesPerStore;
        runtime.flush(base, static_cast<std::uint32_t>(spanBytes));
        runtime.fence();
        base = (base + spanBytes) % regionBytes;
    }
    runtime.programEnd();

    MicroResult result;
    result.seconds = watch.elapsedSeconds();
    debugger->finalize();
    result.events = runtime.eventCount();
    result.eventsPerSec =
        result.seconds > 0.0
            ? static_cast<double>(result.events) / result.seconds
            : 0.0;
    result.bugs = debugger->bugs().total();
    return result;
}

/**
 * Fastest repetition: the run least disturbed by the scheduler. Under
 * preemption noise (shared single-vCPU hosts) the minimum is the
 * honest estimator of the code's cost — medians still carry whatever
 * interruptions landed in half the runs.
 */
MicroResult
fastestOf(std::vector<MicroResult> runs)
{
    std::sort(runs.begin(), runs.end(),
              [](const MicroResult &a, const MicroResult &b) {
                  return a.seconds < b.seconds;
              });
    return runs.front();
}

/** ns/op over @p iters calls of @p op (called with the iteration). */
template <typename Op>
double
nsPerOp(std::size_t iters, Op &&op)
{
    Stopwatch watch;
    for (std::size_t i = 0; i < iters; ++i)
        op(i);
    return watch.elapsedSeconds() * 1e9 /
           static_cast<double>(iters);
}

int
benchMain()
{
    std::printf("=== Telemetry overhead: dispatch path with metrics "
                "on vs off ===\n\n");

    // --- primitives ---------------------------------------------------
    const std::size_t iters = scaled(4000000);
    telemetry::Registry::global().resetForTest();
    telemetry::Counter &counter =
        telemetry::Registry::global().counter("bench.counter");
    telemetry::Histogram &hist =
        telemetry::Registry::global().histogram("bench.hist");
    const double counterNs =
        nsPerOp(iters, [&](std::size_t i) { counter.add(i & 1); });
    const double histNs =
        nsPerOp(iters, [&](std::size_t i) { hist.record(i); });
    volatile bool sink = false;
    const double gateNs = nsPerOp(iters, [&](std::size_t) {
        sink = telemetry::enabled();
    });
    telemetry::Registry::global().resetForTest();
    std::printf("primitives: counter add %.2f ns, histogram record "
                "%.2f ns, enabled() gate %.2f ns\n\n",
                counterNs, histNs, gateNs);

    // --- dispatch path ------------------------------------------------
    // Shared hosts drift: load ramps up and down over seconds, so any
    // estimator that compares "the on runs" against "the off runs" in
    // aggregate measures the drift, not the instrumentation. Each
    // repetition is therefore a drift-cancelling TRIPLET — OFF-ON-OFF
    // or ON-OFF-ON — where the middle run is compared against the mean
    // of the two outer runs: a linear speed ramp across the triplet
    // contributes equally to the middle and the outer mean, so it
    // cancels to first order (pairs only cancel constant offsets).
    // Orientations are exactly balanced (half each) and shuffled with
    // a fixed seed so any second-order position effect also cancels
    // and a strict alternation can't lock onto periodic host activity.
    // The median across triplets then discards the repetitions where a
    // scheduler interruption landed inside one run.
    const std::size_t intervals =
        benchScale() >= 1.0
            ? scaled(40000) / 4
            : std::max<std::size_t>(64, scaled(40000) / 8);
    const bool wasEnabled = telemetry::enabled();

    // Gated full-scale runs buy a tight median with more triplets;
    // smoke runs keep the step cheap.
    const int reps = benchScale() >= 1.0 ? 80 : 12;
    telemetry::setEnabled(false);
    runMicro(std::max<std::size_t>(64, intervals / 4));
    telemetry::setEnabled(true);
    runMicro(std::max<std::size_t>(64, intervals / 4));

    std::vector<bool> onMiddle(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        onMiddle[static_cast<std::size_t>(r)] = (r & 1) != 0;
    std::minstd_rand orderRng(12345);
    std::shuffle(onMiddle.begin(), onMiddle.end(), orderRng);

    std::vector<MicroResult> offRuns, onRuns;
    std::vector<double> tripletDiffPct;
    for (int r = 0; r < reps; ++r) {
        const bool middleOn = onMiddle[static_cast<std::size_t>(r)];
        double outerSec = 0.0;
        double middleSec = 0.0;
        for (int leg = 0; leg < 3; ++leg) {
            const bool runOn = (leg == 1) == middleOn;
            telemetry::setEnabled(runOn);
            MicroResult run = runMicro(intervals);
            (leg == 1 ? middleSec : outerSec) += run.seconds;
            (runOn ? onRuns : offRuns).push_back(std::move(run));
        }
        outerSec /= 2.0;
        // middleOn: on vs off-mean; else: off vs on-mean — both are
        // (on - off) / off up to the drift-free approximation.
        const double onSec = middleOn ? middleSec : outerSec;
        const double offSec = middleOn ? outerSec : middleSec;
        if (offSec > 0.0)
            tripletDiffPct.push_back((onSec - offSec) / offSec *
                                     100.0);
    }
    telemetry::setEnabled(wasEnabled);

    const MicroResult off = fastestOf(std::move(offRuns));
    const MicroResult on = fastestOf(std::move(onRuns));
    std::sort(tripletDiffPct.begin(), tripletDiffPct.end());
    const double overheadPct =
        tripletDiffPct.empty()
            ? 0.0
            : tripletDiffPct[tripletDiffPct.size() / 2];
    const bool identical =
        on.events == off.events && on.bugs == off.bugs;

    TextTable table;
    table.setHeader({"telemetry", "seconds", "events/sec"});
    table.addRow({"off", fmtDouble(off.seconds, 4),
                  fmtDouble(off.eventsPerSec, 0)});
    table.addRow({"on", fmtDouble(on.seconds, 4),
                  fmtDouble(on.eventsPerSec, 0)});
    std::printf("--- %llu events/run, batched dispatch, %d "
                "drift-cancelling triplets ---\n%s\n",
                static_cast<unsigned long long>(off.events), reps,
                table.render().c_str());
    std::printf("overhead: %.2f%% (gate: < 2%%)\n", overheadPct);
    std::printf("verdicts identical on vs off: %s\n",
                identical ? "yes" : "NO — BUG");

    // Scaled smoke runs finish in milliseconds and measure scheduler
    // noise; only hold the full-scale run to the 2% gate.
    const bool gated = benchScale() >= 1.0;
    const bool overheadOk = overheadPct < 2.0;
    if (!overheadOk && !gated) {
        std::printf("note: PMDB_BENCH_SCALE=%.3f — overhead gate "
                    "reported but not enforced at reduced scale\n",
                    benchScale());
    }

    BenchJson json("telemetry");
    json.field("events", on.events)
        .field("events_per_sec_off", off.eventsPerSec)
        .field("events_per_sec_on", on.eventsPerSec)
        .field("overhead_pct", overheadPct)
        .field("counter_add_ns", counterNs)
        .field("histogram_record_ns", histNs)
        .field("enabled_gate_ns", gateNs)
        .field("results_identical", identical)
        .field("overhead_ok", overheadOk);
    json.emit();

    return identical && (overheadOk || !gated) ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
