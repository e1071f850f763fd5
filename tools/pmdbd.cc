/**
 * @file
 * pmdbd — the out-of-process detection daemon.
 *
 * Listens on a Unix-domain socket for trace-stream sessions (see
 * src/service/), runs each through the sharded detector pool, and
 * replies to every client with its merged bug report.
 *
 * Usage: pmdbd --socket PATH [options]
 *
 * Without --once it runs until SIGINT/SIGTERM. --json prints the
 * aggregated per-session report on exit, including ingest counters
 * (batches drained, events/s, steals, queue-full stalls, idle-poll
 * ratio) and the live metrics snapshot. --metrics-sock serves live
 * snapshots: clients send "json" or "prom" and get one snapshot back
 * (see tools/pmdb_stat).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.hh"
#include "service/daemon.hh"

namespace
{

std::atomic<bool> interrupted{false};

void
onSignal(int)
{
    interrupted.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    ServiceConfig config;
    long once = -1;
    bool json = false;
    cli::FlagSet flags(argv[0], {"--socket PATH [options]"});
    flags.option("--socket PATH", "control socket", &config.socketPath)
        .option("--shards N", "detector shards", &config.pool.shards)
        .option("--stripe-bytes B", "address stripe per shard",
                &config.pool.stripeBytes)
        .option("--array-capacity N", "per-shard location-array capacity",
                &config.pool.arrayCapacity)
        .option("--pollers N", "ring-poller threads", &config.pollers)
        .option("--metrics-sock PATH", "serve live metrics snapshots",
                &config.metricsSocketPath)
        .option("--stats-interval SEC", "log an ingest summary line",
                &config.statsIntervalSec)
        .option("--trace-out FILE", "write a Chrome trace on exit",
                &config.traceOutPath)
        .option("--once N", "exit after N sessions complete", &once)
        .flag("--json", "print the aggregated report on exit", &json);
    if (const int rc = flags.parse(argc, argv, 1))
        return rc;
    if (config.socketPath.empty())
        return flags.usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    ServiceDaemon daemon(config);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "pmdbd: %s\n", error.c_str());
        return cli::exitFailure;
    }
    std::fprintf(stderr,
                 "pmdbd: listening on %s (%zu shards, %zu pollers)\n",
                 config.socketPath.c_str(), config.pool.shards,
                 config.pollers ? config.pollers : 1);

    if (once >= 0) {
        while (!interrupted.load() &&
               !daemon.waitForSessions(static_cast<std::size_t>(once),
                                       200)) {
        }
    } else {
        while (!interrupted.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    }
    daemon.stop();

    if (json)
        std::printf("%s\n", daemon.aggregatedJson().c_str());
    std::fprintf(stderr, "pmdbd: served %zu session(s)\n",
                 daemon.completedSessions());
    return 0;
}
