/**
 * @file
 * pmdb_crossproc — two-writer shared-pool detection, end to end.
 *
 * Hosts a detection daemon in-process, creates a multi-writer
 * SharedPmemPool file, forks two client processes (producer and
 * consumer of the shared_queue workload), and prints the daemon's
 * cross-session verdict: the bugs only the merged two-writer event
 * stream can expose.
 *
 * Usage:
 *   pmdb_crossproc [options]
 *   pmdb_crossproc --list-cases
 *   pmdb_crossproc --create-pool PATH [--ops N]
 *
 * --create-pool only lays out a shared_queue pool file sized for --ops
 * operations, for driving the writers by hand via
 * pmdb_run --shared-pool.
 *
 * Exit codes (shared tool family, see README):
 *   0  run complete, no cross-session bugs
 *   1  infrastructure failure (daemon, client, or pool setup)
 *   2  usage error
 *   3  unknown fault/case name
 *   8  cross-session bugs detected (the seeded-case success code)
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/json.hh"
#include "pmem/shared_device.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "workloads/shared_queue.hh"

namespace
{

/**
 * One forked writer: connect to the daemon (retrying while it boots),
 * run the shared_queue role, and ship the report handshake. The
 * process exits 0 on success — its event stream and verdict live in
 * the daemon.
 */
int
childMain(const std::string &socket_path, const std::string &pool_path,
          std::uint32_t writer, std::size_t ops, std::uint64_t seed,
          const std::string &fault)
{
    using namespace pmdb;

    SharedQueueWorkload workload;
    WorkloadOptions options;
    options.operations = ops;
    options.seed = seed;
    options.sharedPoolPath = pool_path;
    options.sharedWriter = writer;
    if (!fault.empty())
        options.faults.enable(fault);

    RemoteSink::Options ropts;
    ropts.socketPath = socket_path;
    ropts.ringPath = pool_path + ".w" + std::to_string(writer) + ".ring";
    ropts.model = workload.model();
    ropts.sharedPoolPath = pool_path;
    ropts.sharedWriterId = writer;

    RemoteSink sink;
    std::string error;
    bool connected = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
        if (sink.connect(ropts, &error)) {
            connected = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!connected) {
        std::fprintf(stderr, "writer %u: connect failed: %s\n", writer,
                     error.c_str());
        return 1;
    }

    PmRuntime runtime;
    runtime.attach(&sink);
    workload.run(runtime, options);

    ReportBody report;
    if (!sink.finish(&report, &error)) {
        std::fprintf(stderr, "writer %u: session failed: %s\n", writer,
                     error.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    std::size_t ops = 64;
    std::uint64_t seed = 42;
    std::size_t shards = 4;
    std::string fault;
    std::string dir = "/tmp";
    std::string create_pool;
    bool json = false;
    bool list_cases = false;
    cli::FlagSet flags(argv[0],
                       {"[options]", "--list-cases",
                        "--create-pool PATH [--ops N]"});
    flags.flag("--list-cases", "print the seeded cases", &list_cases)
        .option("--ops N", "operations (default 64)", &ops)
        .option("--seed S", "workload seed (default 42)", &seed)
        .option("--shards N", "daemon shards (default 4)", &shards)
        .option("--fault NAME", "shared_queue fault for both writers",
                &fault)
        .option("--case NAME", "a seeded case's fault",
                [&](const std::string &name) {
                    for (const CrossprocCase &c : crossprocCases()) {
                        if (c.name == name) {
                            fault = c.fault;
                            return cli::exitOk;
                        }
                    }
                    std::fprintf(stderr,
                                 "unknown case '%s' (--list-cases)\n",
                                 name.c_str());
                    return cli::exitUnknownName;
                })
        .option("--dir PATH", "pool/ring/socket directory", &dir)
        .option("--create-pool PATH", "only lay out a pool file",
                &create_pool)
        .flag("--json", "print the verdict as JSON", &json);
    if (const int rc = flags.parse(argc, argv, 1))
        return rc;
    if (list_cases) {
        for (const CrossprocCase &c : crossprocCases()) {
            std::printf("%s  (fault %s -> %s)\n", c.name.c_str(),
                        c.fault.c_str(), c.rule.c_str());
        }
        return 0;
    }
    if (!fault.empty()) {
        bool known = false;
        for (const CrossprocCase &c : crossprocCases())
            known = known || c.fault == fault;
        if (!known) {
            std::fprintf(stderr, "unknown fault '%s' (--list-cases)\n",
                         fault.c_str());
            return cli::exitUnknownName;
        }
    }

    if (!create_pool.empty()) {
        std::string err;
        if (!SharedPmemPool::createPoolFile(
                create_pool, SharedQueueWorkload::poolBytesFor(ops),
                &err)) {
            std::fprintf(stderr, "pool create failed: %s\n",
                         err.c_str());
            return cli::exitFailure;
        }
        std::printf("created %s (%zu ops)\n", create_pool.c_str(), ops);
        return 0;
    }

    const std::string base =
        dir + "/pmdb_crossproc." + std::to_string(::getpid());
    const std::string pool_path = base + ".pool";
    const std::string socket_path = base + ".sock";

    std::string error;
    if (!SharedPmemPool::createPoolFile(
            pool_path, SharedQueueWorkload::poolBytesFor(ops), &error)) {
        std::fprintf(stderr, "pool create failed: %s\n", error.c_str());
        return cli::exitFailure;
    }

    // Fork both writers *before* the daemon's threads exist, so the
    // children start from a clean single-threaded state; they retry
    // the connect while the daemon boots.
    std::vector<pid_t> children;
    for (const std::uint32_t writer :
         {SharedQueueWorkload::producerWriter,
          SharedQueueWorkload::consumerWriter}) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "fork failed: %s\n",
                         std::strerror(errno));
            return cli::exitFailure;
        }
        if (pid == 0) {
            std::_Exit(childMain(socket_path, pool_path, writer, ops,
                                 seed, fault));
        }
        children.push_back(pid);
    }

    ServiceConfig config;
    config.socketPath = socket_path;
    config.pool.shards = shards;
    ServiceDaemon daemon(config);
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "daemon start failed: %s\n", error.c_str());
        for (const pid_t pid : children)
            ::kill(pid, SIGKILL);
        return cli::exitFailure;
    }

    bool childFailed = false;
    for (const pid_t pid : children) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            childFailed = true;
        }
    }
    while (!daemon.waitForSessions(2, 200)) {
        if (childFailed)
            break;
    }
    daemon.stop();
    const auto results = daemon.crossprocResults();
    ::unlink(pool_path.c_str());
    if (childFailed) {
        std::fprintf(stderr, "a writer process failed\n");
        return cli::exitFailure;
    }

    std::size_t crossBugs = 0;
    for (const auto &group : results)
        crossBugs += group.bugs.size();
    if (json) {
        JsonWriter out;
        out.beginObject()
            .field("tool", "crossproc")
            .field("ops", ops)
            .field("shards", shards)
            .field("fault", fault)
            .key("groups");
        writeCrossGroupsJson(out, results);
        std::printf("%s\n", out.endObject().str().c_str());
    } else {
        std::printf("shared_queue: %zu ops, 2 writers, %zu shard(s)%s%s\n",
                    ops, shards,
                    fault.empty() ? "" : ", fault ", fault.c_str());
        for (const auto &group : results) {
            std::printf("pool %s: %llu shared events merged, "
                        "%zu cross-session bug(s)\n",
                        group.pool.c_str(),
                        static_cast<unsigned long long>(
                            group.eventsReplayed),
                        group.bugs.size());
            for (const CrossBug &bug : group.bugs)
                std::printf("  %s\n", bug.toString().c_str());
        }
        if (results.empty())
            std::printf("no shared-pool session group formed\n");
    }
    return crossBugs > 0 ? cli::exitCrossBugs : 0;
}
