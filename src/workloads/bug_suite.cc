#include "workloads/bug_suite.hh"

#include <cstring>

#include "common/logging.hh"
#include "crashsim/capture.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/hashmap_atomic.hh"
#include "workloads/memcached.hh"
#include "workloads/synth_strand.hh"
#include "workloads/workload.hh"

namespace pmdb
{

std::string
CaseParams::label() const
{
    std::string out;
    auto append = [&](const std::string &part) {
        if (!out.empty())
            out += ',';
        out += part;
    };
    if (seed)
        append("seed=" + std::to_string(seed));
    if (threads)
        append("threads=" + std::to_string(threads));
    if (ycsbMix)
        append(std::string("mix=") + ycsbMix);
    if (operations)
        append("ops=" + std::to_string(operations));
    return out.empty() ? "default" : out;
}

double
ycsbMixSetRatio(char mix)
{
    // The YCSB core mixes, collapsed to the single update-fraction
    // knob the key-value workloads expose: A 50/50 update, B 95/5,
    // C read-only, D read-latest with 5% inserts, E scan-heavy with 5%
    // inserts, F read-modify-write (an RMW touches the store path like
    // an update).
    switch (mix) {
      case 'a': return 0.5;
      case 'b': return 0.05;
      case 'c': return 0.0;
      case 'd': return 0.05;
      case 'e': return 0.05;
      case 'f': return 0.5;
      default:
        panic(std::string("ycsbMixSetRatio: unknown mix '") + mix +
              "'");
    }
}

void
CaseEnv::armCrossFailure(const PmemDevice &device,
                         CrossFailureChecker::Verifier verify)
{
    // Crash-state exploration captures from the moment the verifier is
    // armed: initialization persists before this point are part of the
    // durable baseline, matching XFDetector's verifier semantics.
    if (crashsim)
        crashsim->adopt(device, verify);
    if (!xfdetector)
        return;
    const PmemDevice *dev = &device;
    xfdetector->setCrossFailureVerifier(
        [dev, verify = std::move(verify)]() -> std::string {
            CrashSimulator sim(*dev);
            const std::vector<std::uint8_t> image =
                sim.crashImage(CrashPolicy::DropPending);
            return verify(image);
        });
}

void
CaseEnv::checkCrossFailure(const PmemDevice &device,
                           const CrossFailureChecker::Verifier &verify)
{
    // The crash image must reflect every event issued so far; under
    // batched dispatch the device sink may still have events in
    // flight, so force delivery before simulating the crash.
    runtime.drain();
    if (pmdebugger) {
        CrossFailureChecker::check(*pmdebugger, device, verify,
                                   {.seq = runtime.eventCount()});
    } else if (externalBugSink) {
        CrossFailureChecker::check(externalBugSink, device, verify,
                                   {.seq = runtime.eventCount()});
    }
}

namespace
{

using Scenario = std::function<void(CaseEnv &)>;

constexpr std::size_t casePoolBytes = 1 << 20;

/** Fill a buffer with a recognizable pattern. */
void
fillPattern(std::uint8_t *buf, std::size_t size, std::uint64_t seed)
{
    for (std::size_t i = 0; i < size; ++i)
        buf[i] = static_cast<std::uint8_t>((seed + i * 131) & 0xff);
}

/** Scenario: run a workload with one fault enabled. */
Scenario
wlScenario(std::string workload, std::string fault, std::size_t ops,
           std::size_t cache_capacity = 0, double set_ratio = -1.0)
{
    return [workload = std::move(workload), fault = std::move(fault),
            ops, cache_capacity, set_ratio](CaseEnv &env) {
        auto wl = makeWorkload(workload);
        if (!wl)
            panic("bug suite: unknown workload " + workload);
        WorkloadOptions options;
        options.operations = ops;
        options.seed = 7;
        options.pmtest = env.pmtest;
        options.cacheCapacity = cache_capacity;
        if (set_ratio >= 0.0)
            options.setRatio = set_ratio;
        if (env.params) {
            // Corpus-variation overrides: the advisory engine records
            // the same program under many parameters and expects the
            // fault — hence the bug's program site — to survive all of
            // them.
            if (env.params->seed)
                options.seed = env.params->seed;
            if (env.params->threads)
                options.threads = env.params->threads;
            if (env.params->operations)
                options.operations = env.params->operations;
            if (env.params->ycsbMix)
                options.setRatio = ycsbMixSetRatio(env.params->ycsbMix);
        }
        if (env.buggy)
            options.faults.enable(fault);
        wl->run(env.runtime, options);
    };
}

/** Scenario: @p locs stores of @p size bytes; buggy variant skips CLFs. */
Scenario
missingFlush(int locs, std::uint32_t size)
{
    return [locs, size](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr base = pool.alloc(static_cast<std::size_t>(locs) * 256);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[256];
        for (int i = 0; i < locs; ++i) {
            fillPattern(buf, size, i);
            pool.writeBytes(base + i * 256, buf, size);
            if (!env.buggy)
                pool.flush(base + i * 256, size);
        }
        pool.fence();
        if (env.pmtest) {
            for (int i = 0; i < locs; ++i)
                env.pmtest->isPersist(base + i * 256, size);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: stores and CLFs but no fence in the buggy variant. */
Scenario
missingFence(int locs, std::uint32_t size)
{
    return [locs, size](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr base = pool.alloc(static_cast<std::size_t>(locs) * 256);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[256];
        for (int i = 0; i < locs; ++i) {
            fillPattern(buf, size, i);
            pool.writeBytes(base + i * 256, buf, size);
            pool.flush(base + i * 256, size);
        }
        if (!env.buggy)
            pool.fence();
        if (env.pmtest) {
            for (int i = 0; i < locs; ++i)
                env.pmtest->isPersist(base + i * 256, size);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: 128-byte object, buggy variant flushes only one half. */
Scenario
partialFlush(bool low_half)
{
    return [low_half](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(128);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[128];
        fillPattern(buf, sizeof(buf), 3);
        pool.writeBytes(obj, buf, sizeof(buf));
        if (env.buggy)
            pool.flush(low_half ? obj : obj + 64, 64);
        else
            pool.flush(obj, 128);
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 128);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: the CLF targets a different (durable) line. */
Scenario
flushWrongLine()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(256);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 0x11);
        pool.flush(env.buggy ? obj + 128 : obj, 8);
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: 192-byte store, buggy variant misses the middle line. */
Scenario
missingMiddleLine()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(192);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[192];
        fillPattern(buf, sizeof(buf), 9);
        pool.writeBytes(obj, buf, sizeof(buf));
        pool.flush(obj, 64);
        if (!env.buggy)
            pool.flush(obj + 64, 64);
        pool.flush(obj + 128, 64);
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 192);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: re-dirty after the CLF; buggy variant never re-flushes. */
Scenario
storeAfterFlush()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 1);
        pool.flush(obj, 8);
        pool.fence();
        pool.store<std::uint64_t>(obj, 2);
        if (!env.buggy) {
            pool.flush(obj, 8);
        }
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: store after the transaction commits, never persisted. */
Scenario
storeAfterCommit()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        {
            Transaction tx(pool);
            tx.begin();
            tx.addRange(obj, 8);
            pool.store<std::uint64_t>(obj, 1);
            tx.commit();
        }
        pool.store<std::uint64_t>(obj + 8, 2);
        if (!env.buggy)
            pool.persist(obj + 8, 8);
        if (env.pmtest) {
            env.pmtest->isPersist(obj + 8, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: a strand section whose store is never flushed. */
Scenario
strandStoreNoFlush()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        env.runtime.strandBegin(0);
        pool.store<std::uint64_t>(obj, 5);
        if (!env.buggy) {
            pool.flush(obj, 8);
            pool.fence();
        }
        env.runtime.strandEnd(0);
        env.runtime.joinStrand();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: fence issued before the CLF (flush never fenced). */
Scenario
fenceBeforeFlush()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 7);
        if (env.buggy) {
            pool.fence();
            pool.flush(obj, 8);
        } else {
            pool.flush(obj, 8);
            pool.fence();
        }
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: loop persists all but the last element. */
Scenario
loopMissingLast(int locs)
{
    return [locs](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr base = pool.alloc(static_cast<std::size_t>(locs) * 64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        const int flushed = env.buggy ? locs - 1 : locs;
        for (int i = 0; i < locs; ++i) {
            pool.store<std::uint64_t>(base + i * 64, i);
            if (i < flushed)
                pool.flush(base + i * 64, 8);
        }
        pool.fence();
        if (env.pmtest) {
            for (int i = 0; i < locs; ++i)
                env.pmtest->isPersist(base + i * 64, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: two interleaved objects; buggy variant flushes only one. */
Scenario
interleavedMissing()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr a = pool.alloc(64);
        const Addr b = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(a, 1);
        pool.store<std::uint64_t>(b, 2);
        pool.flush(a, 8);
        if (!env.buggy)
            pool.flush(b, 8);
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(a, 8);
            env.pmtest->isPersist(b, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: 1 KiB object; buggy variant misses one interior line. */
Scenario
bigObjectMissingLine()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(1024);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[1024];
        fillPattern(buf, sizeof(buf), 21);
        pool.writeBytes(obj, buf, sizeof(buf));
        for (int line = 0; line < 16; ++line) {
            if (env.buggy && line == 5)
                continue;
            pool.flush(obj + line * 64, 64);
        }
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 1024);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: CLFLUSHOPT without the required SFENCE. */
Scenario
clflushoptMissingFence()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 77);
        pool.flush(obj, 8, FlushKind::Clflushopt);
        if (!env.buggy)
            pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: multiline object where one piece escapes every CLF. */
Scenario
splitEscape()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(256);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[160];
        fillPattern(buf, sizeof(buf), 33);
        pool.writeBytes(obj + 32, buf, sizeof(buf)); // spans 3 lines
        pool.flush(obj, 64);
        if (!env.buggy) {
            pool.flush(obj + 64, 64);
            pool.flush(obj + 128, 64);
        } else {
            pool.flush(obj + 128, 64);
        }
        pool.fence();
        if (env.pmtest) {
            env.pmtest->isPersist(obj + 32, 160);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: overwrite whose final store is never flushed. */
Scenario
overwriteThenMissingFlush()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 1);
        pool.persist(obj, 8);
        pool.store<std::uint64_t>(obj, 2);
        if (!env.buggy)
            pool.persist(obj, 8);
        if (env.pmtest) {
            env.pmtest->isPersist(obj, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: overwrite before any CLF (strict model). */
Scenario
overwriteBeforeFlush()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 1);
        if (!env.buggy)
            pool.persist(obj, 8);
        pool.store<std::uint64_t>(obj, 2);
        pool.persist(obj, 8);
        if (env.pmtest)
            env.pmtest->pmTestEnd();
    };
}

/** Scenario: overwrite after the CLF but before the fence. */
Scenario
overwriteAfterFlush()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 1);
        pool.flush(obj, 8);
        if (!env.buggy)
            pool.fence();
        pool.store<std::uint64_t>(obj, 2);
        pool.flush(obj, 8);
        pool.fence();
        if (env.pmtest)
            env.pmtest->pmTestEnd();
    };
}

/** Scenario: B becomes durable before A despite the A-before-B spec. */
Scenario
orderBFirst()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr a = pool.alloc(64);
        const Addr b = pool.alloc(64);
        pool.registerVariable("case.A", a, 8);
        pool.registerVariable("case.B", b, 8);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(a, 1);
        pool.store<std::uint64_t>(b, 2);
        if (env.buggy) {
            pool.persist(b, 8);
            pool.persist(a, 8);
        } else {
            pool.persist(a, 8);
            pool.persist(b, 8);
        }
        if (env.pmtest) {
            env.pmtest->isOrderedBefore(a, 8, b, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: A and B ride the same fence (ambiguous persist order). */
Scenario
orderSameFence()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr a = pool.alloc(64);
        const Addr b = pool.alloc(64);
        pool.registerVariable("case.A", a, 8);
        pool.registerVariable("case.B", b, 8);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(a, 1);
        pool.store<std::uint64_t>(b, 2);
        if (env.buggy) {
            pool.flush(a, 8);
            pool.flush(b, 8);
            pool.fence();
        } else {
            pool.persist(a, 8);
            pool.persist(b, 8);
        }
        if (env.pmtest) {
            env.pmtest->isOrderedBefore(a, 8, b, 8);
            env.pmtest->pmTestEnd();
        }
    };
}

/** Scenario: the same line flushed repeatedly before the fence. */
Scenario
doubleFlush(int extra_flushes)
{
    return [extra_flushes](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 1);
        pool.flush(obj, 8);
        if (env.buggy) {
            for (int i = 0; i < extra_flushes; ++i)
                pool.flush(obj, 8);
        }
        pool.fence();
        if (env.pmtest)
            env.pmtest->pmTestEnd();
    };
}

/** Scenario: a fully flushed 128B object has a line re-flushed. */
Scenario
reflushSubrange()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(128);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        std::uint8_t buf[128];
        fillPattern(buf, sizeof(buf), 8);
        pool.writeBytes(obj, buf, sizeof(buf));
        pool.flush(obj, 128);
        if (env.buggy)
            pool.flush(obj, 64);
        pool.fence();
        if (env.pmtest)
            env.pmtest->pmTestEnd();
    };
}

/** Scenario: a CLF aimed at memory no store ever touched. */
Scenario
flushUntouched()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(128);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        pool.store<std::uint64_t>(obj, 1);
        pool.flush(obj, 8);
        if (env.buggy)
            pool.flush(obj + 64, 8); // the second line was never stored
        pool.fence();
        if (env.pmtest)
            env.pmtest->pmTestEnd();
    };
}

/** Scenario: the same object undo-logged twice in one transaction. */
Scenario
txDoubleLog(bool overlap_subrange)
{
    return [overlap_subrange](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        if (env.pmtest)
            env.pmtest->pmTestStart();
        Transaction tx(pool);
        tx.begin();
        tx.addRange(obj, 32);
        if (env.pmtest)
            env.pmtest->txChecker(obj, 32);
        if (env.buggy) {
            // Exact duplicates are deduped by the tx layer (as PMDK
            // does); buggy code re-logs overlapping sub-ranges.
            const Addr again = overlap_subrange ? obj + 8 : obj;
            const std::size_t size = overlap_subrange ? 8 : 24;
            tx.addRange(again, size);
            if (env.pmtest)
                env.pmtest->txChecker(again, size);
        }
        pool.store<std::uint64_t>(obj, 3);
        tx.commit();
        if (env.pmtest)
            env.pmtest->pmTestEnd();
    };
}

/** Scenario: an epoch store that no CLF covers by epoch end. */
Scenario
epochUnloggedStore()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        Transaction tx(pool);
        tx.begin();
        if (!env.buggy)
            tx.addRange(obj, 8);
        pool.store<std::uint64_t>(obj, 4);
        tx.commit();
    };
}

/** Scenario: an explicit persist (extra fence) inside the epoch. */
Scenario
epochExtraFence()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr obj = pool.alloc(64);
        Transaction tx(pool);
        tx.begin();
        tx.addRange(obj, 8);
        pool.store<std::uint64_t>(obj, 4);
        if (env.buggy)
            pool.persist(obj, 8); // Figure 7a's redundant fence
        tx.commit();
    };
}

/** Scenario: Figure 7b — strand 1 persists B before strand 0's A. */
Scenario
strandCrossPersist()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr shared = pool.alloc(128);
        const Addr a = shared;
        const Addr b = shared + 64;
        pool.registerVariable("case.A", a, 8);
        pool.registerVariable("case.B", b, 8);

        if (env.buggy) {
            // Strand 0 writes A and B but has only flushed A (no
            // barrier yet) when strand 1 jumps in and persists B.
            env.runtime.strandBegin(0);
            pool.store<std::uint64_t>(a, 1);
            pool.store<std::uint64_t>(b, 2);
            pool.flush(a, 8);
            env.runtime.strandEnd(0);

            env.runtime.strandBegin(1);
            pool.flush(b, 8); // persists B while A is not yet durable
            pool.fence();
            env.runtime.strandEnd(1);

            env.runtime.strandBegin(0);
            pool.fence();
            pool.flush(b, 8);
            pool.fence();
            env.runtime.strandEnd(0);
        } else {
            env.runtime.strandBegin(0);
            pool.store<std::uint64_t>(a, 1);
            pool.store<std::uint64_t>(b, 2);
            pool.flush(a, 8);
            pool.fence();
            pool.flush(b, 8);
            pool.fence();
            env.runtime.strandEnd(0);
        }
        env.runtime.joinStrand();
    };
}

/** Scenario: committed key published while its value never persisted. */
Scenario
xfKvPublish()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr value = pool.alloc(64);
        const Addr key = pool.alloc(64);
        const std::uint64_t payload = 0x1234abcdULL;

        auto verify =
            [value, key, payload](
                const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t k = 0, v = 0;
            std::memcpy(&k, image.data() + key, 8);
            std::memcpy(&v, image.data() + value, 8);
            if (k == 1 && v != payload)
                return "recovery reads a committed key whose value "
                       "never persisted";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        pool.store<std::uint64_t>(value, payload);
        if (!env.buggy)
            pool.persist(value, 8);
        pool.store<std::uint64_t>(key, 1);
        pool.persist(key, 8);
        pool.fence(); // shutdown fence: XFDetector's failure point

        env.checkCrossFailure(pool.device(), verify);
    };
}

/** Scenario: transaction with an unlogged field breaking an invariant. */
Scenario
xfTxUnloggedField()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        // Fields a and b live on different cache lines (a CLF of one
        // cannot incidentally persist the other); invariant: a == b.
        const Addr obj = pool.alloc(128);
        const Addr field_b = obj + 64;

        pool.store<std::uint64_t>(obj, 1);
        pool.store<std::uint64_t>(field_b, 1);
        pool.persist(obj, 128);

        auto verify =
            [obj, field_b](
                const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t a = 0, b = 0;
            std::memcpy(&a, image.data() + obj, 8);
            std::memcpy(&b, image.data() + field_b, 8);
            if (a != b)
                return "recovery reads a torn object (a != b)";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        Transaction tx(pool);
        tx.begin();
        if (env.buggy) {
            tx.addRange(obj, 8); // only field a is logged/flushed
        } else {
            tx.addRange(obj, 8);
            tx.addRange(field_b, 8);
        }
        pool.store<std::uint64_t>(obj, 2);
        pool.store<std::uint64_t>(field_b, 2);
        tx.commit();
        pool.fence(); // shutdown fence

        env.checkCrossFailure(pool.device(), verify);
    };
}

/** Scenario: paired counters persisted independently. */
Scenario
xfCounterPair()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr c1 = pool.alloc(64);
        const Addr c2 = pool.alloc(64);
        pool.store<std::uint64_t>(c1, 1);
        pool.store<std::uint64_t>(c2, 1);
        pool.persist(c1, 8);
        pool.persist(c2, 8);

        auto verify =
            [c1, c2](const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t v1 = 0, v2 = 0;
            std::memcpy(&v1, image.data() + c1, 8);
            std::memcpy(&v2, image.data() + c2, 8);
            if (v1 != v2)
                return "recovery reads unbalanced counters";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        if (env.buggy) {
            pool.store<std::uint64_t>(c1, 2);
            pool.persist(c1, 8);
            pool.fence(); // failure window: c1 == 2, c2 == 1
            env.checkCrossFailure(pool.device(), verify);
            pool.store<std::uint64_t>(c2, 2);
            pool.persist(c2, 8);
        } else {
            Transaction tx(pool);
            tx.begin();
            tx.addRange(c1, 8);
            tx.addRange(c2, 8);
            pool.store<std::uint64_t>(c1, 2);
            pool.store<std::uint64_t>(c2, 2);
            tx.commit();
            env.checkCrossFailure(pool.device(), verify);
        }
    };
}

/** Scenario: list head published before the node persists. */
Scenario
xfListAppend()
{
    return [](CaseEnv &env) {
        constexpr std::uint64_t magic = 0x600dda7aULL;
        PmemPool pool(env.runtime, casePoolBytes, "case.pool");
        const Addr head = pool.alloc(64);
        const Addr node = pool.alloc(64);
        // head == 0 and durable already (alloc persists the zeroes)

        auto verify =
            [head, magic](
                const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t h = 0;
            std::memcpy(&h, image.data() + head, 8);
            if (h == 0)
                return "";
            std::uint64_t m = 0;
            std::memcpy(&m, image.data() + h, 8);
            if (m != magic)
                return "recovery follows a head pointer into an "
                       "unpersisted node";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        if (env.buggy) {
            pool.store<std::uint64_t>(head, node);
            pool.persist(head, 8);
            pool.fence(); // failure window: head set, node garbage
            env.checkCrossFailure(pool.device(), verify);
            pool.store<std::uint64_t>(node, magic);
            pool.persist(node, 8);
        } else {
            pool.store<std::uint64_t>(node, magic);
            pool.persist(node, 8);
            pool.store<std::uint64_t>(head, node);
            pool.persist(head, 8);
            env.checkCrossFailure(pool.device(), verify);
        }
    };
}

std::vector<BugCase>
buildSuite()
{
    std::vector<BugCase> suite;
    int next_id = 1;

    auto add = [&](std::string name, BugType type, PersistencyModel model,
                   Scenario scenario) -> BugCase & {
        BugCase bug_case;
        bug_case.id = next_id++;
        bug_case.name = std::move(name);
        bug_case.expected = type;
        bug_case.model = model;
        // Every event of a case carries at least this scenario-level
        // program site; workload-internal SiteScopes nest inside it and
        // win. Detectors ignore the name on non-RegisterPmem events, so
        // reports and fingerprints are unchanged.
        bug_case.scenario = [site_name = "bug_suite.cc:" + bug_case.name,
                             inner =
                                 std::move(scenario)](CaseEnv &env) {
            SiteScope site(env.runtime, site_name);
            inner(env);
        };
        suite.push_back(std::move(bug_case));
        return suite.back();
    };

    const auto epoch = PersistencyModel::Epoch;
    const auto strict = PersistencyModel::Strict;
    const auto strand = PersistencyModel::Strand;
    const auto durability = BugType::NoDurability;

    // ---- No durability guarantee (44 cases) -------------------------
    add("missing_flush_1x8", durability, epoch, missingFlush(1, 8));
    add("missing_flush_2x8", durability, epoch, missingFlush(2, 8));
    add("missing_flush_4x8", durability, epoch, missingFlush(4, 8));
    add("missing_flush_8x8", durability, epoch, missingFlush(8, 8));
    add("missing_flush_1x64", durability, epoch, missingFlush(1, 64));
    add("missing_flush_2x64", durability, epoch, missingFlush(2, 64));
    add("missing_flush_4x128", durability, epoch, missingFlush(4, 128));
    add("missing_flush_8x128", durability, epoch, missingFlush(8, 128));
    add("missing_fence_1x8", durability, epoch, missingFence(1, 8));
    add("missing_fence_2x8", durability, epoch, missingFence(2, 8));
    add("missing_fence_1x128", durability, epoch, missingFence(1, 128));
    add("missing_fence_4x64", durability, epoch, missingFence(4, 64));
    add("partial_flush_low", durability, epoch, partialFlush(true));
    add("partial_flush_high", durability, epoch, partialFlush(false));
    add("flush_wrong_line", durability, epoch, flushWrongLine());
    add("missing_middle_line", durability, epoch, missingMiddleLine());
    add("store_after_flush", durability, epoch, storeAfterFlush());
    add("store_after_commit", durability, epoch, storeAfterCommit());
    add("strand_store_no_flush", durability, strand, strandStoreNoFlush());
    add("fence_before_flush", durability, epoch, fenceBeforeFlush());
    add("loop_missing_last", durability, epoch, loopMissingLast(8));
    add("interleaved_missing", durability, epoch, interleavedMissing());
    add("big_object_missing_line", durability, epoch,
        bigObjectMissingLine());
    add("clflushopt_missing_fence", durability, epoch,
        clflushoptMissingFence());
    // Enough inserts to cross a statistics batch boundary, where the
    // workload's PMTest annotation asserts the counters' durability.
    add("hashmap_tx_stats_never_flushed", durability, epoch,
        wlScenario("hashmap_tx", "hmtx_skip_stats_flush", 1200));
    add("hashmap_atomic_entry_not_flushed", durability, epoch,
        wlScenario("hashmap_atomic", "hmatomic_skip_entry_flush", 100));
    add("synth_strand_missing_barrier", durability, strand,
        wlScenario("synth_strand", "strand_missing_barrier", 128));
    for (int mc_bug : {1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 18, 19}) {
        // A write-heavy mix exercises both set paths; bug 8 needs a
        // tiny capacity so evictions actually happen.
        const std::size_t capacity = mc_bug == 8 ? 64 : 0;
        BugCase &bug_case = add(
            "memcached_bug_" + std::to_string(mc_bug), durability, strict,
            wlScenario("memcached", "mc_bug_" + std::to_string(mc_bug),
                       400, capacity, 0.5));
        bug_case.orderSpec = MemcachedWorkload().orderSpecText();
    }
    add("missing_flush_3x32", durability, epoch, missingFlush(3, 32));
    add("missing_fence_3x32", durability, epoch, missingFence(3, 32));
    add("split_escape", durability, epoch, splitEscape());
    add("overwrite_then_missing_flush", durability, epoch,
        overwriteThenMissingFlush());

    // ---- Multiple overwrites (2 cases) ------------------------------
    {
        BugCase &c1 = add("overwrite_before_flush",
                          BugType::MultipleOverwrite, strict,
                          overwriteBeforeFlush());
        c1.enableOverwriteDetection = true;
        BugCase &c2 = add("overwrite_after_flush",
                          BugType::MultipleOverwrite, strict,
                          overwriteAfterFlush());
        c2.enableOverwriteDetection = true;
    }

    // ---- No order guarantee (4 cases) -------------------------------
    {
        BugCase &c1 = add("order_b_before_a", BugType::NoOrderGuarantee,
                          strict, orderBFirst());
        c1.orderSpec = "persist_before case.A case.B\n";
        BugCase &c2 = add("order_same_fence", BugType::NoOrderGuarantee,
                          strict, orderSameFence());
        c2.orderSpec = "persist_before case.A case.B\n";
        BugCase &c3 = add(
            "hashmap_atomic_bucket_first", BugType::NoOrderGuarantee,
            epoch,
            wlScenario("hashmap_atomic", "hmatomic_bucket_before_entry",
                       100));
        c3.orderSpec = HashmapAtomicWorkload().orderSpecText();
        BugCase &c4 = add("memcached_publish_first",
                          BugType::NoOrderGuarantee, strict,
                          wlScenario("memcached", "mc_bug_13", 400, 0, 0.5));
        c4.orderSpec = MemcachedWorkload().orderSpecText();
    }

    // ---- Redundant flushes (6 cases) ---------------------------------
    add("double_flush", BugType::RedundantFlush, epoch, doubleFlush(1));
    add("triple_flush", BugType::RedundantFlush, epoch, doubleFlush(2));
    add("reflush_subrange", BugType::RedundantFlush, epoch,
        reflushSubrange());
    add("hashmap_atomic_double_flush", BugType::RedundantFlush, epoch,
        wlScenario("hashmap_atomic", "hmatomic_double_flush", 100));
    add("memcached_item_reflushed", BugType::RedundantFlush, strict,
        wlScenario("memcached", "mc_bug_9", 400, 0, 0.5));
    add("memcached_value_reflushed", BugType::RedundantFlush, strict,
        wlScenario("memcached", "mc_bug_10", 400, 0, 0.5));

    // ---- Flush nothing (3 cases) -------------------------------------
    {
        BugCase &c1 = add("flush_untouched_line", BugType::FlushNothing,
                          epoch, flushUntouched());
        c1.pmtestAnnotated = false;
        BugCase &c2 = add(
            "hashmap_atomic_flush_empty", BugType::FlushNothing, epoch,
            wlScenario("hashmap_atomic", "hmatomic_flush_empty", 100));
        c2.pmtestAnnotated = false;
        BugCase &c3 = add("memcached_flush_scratch",
                          BugType::FlushNothing, strict,
                          wlScenario("memcached", "mc_bug_12", 400, 0, 0.5));
        c3.pmtestAnnotated = false;
    }

    // ---- Redundant logging (5 cases) ----------------------------------
    add("tx_double_log", BugType::RedundantLogging, epoch,
        txDoubleLog(false));
    add("tx_overlap_log", BugType::RedundantLogging, epoch,
        txDoubleLog(true));
    add("btree_double_log", BugType::RedundantLogging, epoch,
        wlScenario("b_tree", "btree_double_log", 100));
    add("hashmap_tx_double_log", BugType::RedundantLogging, epoch,
        wlScenario("hashmap_tx", "hmtx_double_log", 100));
    add("redis_double_log", BugType::RedundantLogging, epoch,
        wlScenario("redis", "redis_double_log", 200));

    // ---- Lack durability in epoch (4 cases) ---------------------------
    for (auto &[name, scenario] :
         std::vector<std::pair<std::string, Scenario>>{
             {"epoch_unlogged_store", epochUnloggedStore()},
             {"btree_unlogged_meta",
              wlScenario("b_tree", "btree_skip_log_meta", 100)},
             {"ctree_unlogged_parent",
              wlScenario("c_tree", "ctree_skip_log_parent", 100)},
             {"redis_unlogged_dict",
              wlScenario("redis", "redis_skip_log_dict", 200)}}) {
        BugCase &bug_case = add(name, BugType::LackDurabilityInEpoch,
                                epoch, scenario);
        bug_case.pmtestAnnotated = false;
    }

    // ---- Redundant epoch fence (4 cases) ------------------------------
    for (auto &[name, scenario] :
         std::vector<std::pair<std::string, Scenario>>{
             {"epoch_extra_fence", epochExtraFence()},
             {"btree_persist_in_tx",
              wlScenario("b_tree", "btree_persist_in_tx", 100)},
             {"pmdk_create_hashmap_fence",
              wlScenario("hashmap_atomic", "pmdk_create_bug", 50)},
             {"redis_persist_in_tx",
              wlScenario("redis", "redis_persist_in_tx", 200)}}) {
        BugCase &bug_case = add(name, BugType::RedundantEpochFence, epoch,
                                scenario);
        bug_case.pmtestAnnotated = false;
    }

    // ---- Lack ordering in strands (2 cases) ---------------------------
    {
        BugCase &c1 = add("strand_cross_persist_raw",
                          BugType::LackOrderingInStrands, strand,
                          strandCrossPersist());
        c1.orderSpec = "persist_before case.A case.B\n";
        c1.pmtestAnnotated = false;
        BugCase &c2 = add(
            "synth_strand_cross_persist", BugType::LackOrderingInStrands,
            strand, wlScenario("synth_strand", "strand_cross_persist", 128));
        c2.orderSpec = SynthStrandWorkload().orderSpecText();
        c2.pmtestAnnotated = false;
    }

    // ---- Cross-failure semantic (4 cases) -----------------------------
    for (auto &[name, scenario] :
         std::vector<std::pair<std::string, Scenario>>{
             {"xf_kv_publish", xfKvPublish()},
             {"xf_tx_unlogged_field", xfTxUnloggedField()},
             {"xf_counter_pair", xfCounterPair()},
             {"xf_list_append", xfListAppend()}}) {
        BugCase &bug_case = add(name, BugType::CrossFailureSemantic,
                                epoch, scenario);
        bug_case.pmtestAnnotated = false;
    }

    // Attach the generated expected-fingerprint table (sorted strings,
    // one row per (case, fingerprint)). Regenerate with
    // `pmdb_tracetool gen-fingerprints` after any change that moves a
    // bug's identity.
    static const std::vector<std::pair<const char *, const char *>>
        expected_rows = {
#include "workloads/bug_suite_fingerprints.inc"
        };
    for (const auto &[case_name, fingerprint] : expected_rows) {
        for (BugCase &bug_case : suite) {
            if (bug_case.name == case_name) {
                bug_case.expectedFingerprints.emplace_back(fingerprint);
                break;
            }
        }
    }

    return suite;
}

} // namespace

const std::vector<BugCase> &
bugSuite()
{
    static const std::vector<BugCase> suite = buildSuite();
    return suite;
}

std::vector<const BugCase *>
casesOfType(BugType type)
{
    std::vector<const BugCase *> cases;
    for (const BugCase &bug_case : bugSuite()) {
        if (bug_case.expected == type)
            cases.push_back(&bug_case);
    }
    return cases;
}

DebuggerConfig
debuggerConfigFor(const BugCase &bug_case)
{
    DebuggerConfig config;
    config.model = bug_case.model;
    if (!bug_case.orderSpec.empty())
        config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
    return config;
}

} // namespace pmdb
