/**
 * @file
 * Integration tests for PmDebugger: bookkeeping statistics, strand
 * spaces, ablation bookkeeping modes, array overflow, and a
 * randomized property test comparing the debugger's end-of-program
 * durability report against a naive reference tracker.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "core/debugger.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

TEST(DebuggerTest, CountsEvents)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    runtime.store(0, 8);
    runtime.store(64, 8);
    runtime.flush(0, 64);
    runtime.fence();
    const DebuggerStats stats = debugger.stats();
    EXPECT_EQ(stats.stores, 2u);
    EXPECT_EQ(stats.flushes, 1u);
    EXPECT_EQ(stats.fences, 1u);
}

TEST(DebuggerTest, TreeStaysEmptyForNearestFencePattern)
{
    // Pattern 1: when durability comes from the nearest fence, records
    // die in the array and the tree is never touched.
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    for (int i = 0; i < 100; ++i) {
        runtime.store(i * 64, 8);
        runtime.flush(i * 64, 64);
        runtime.fence();
    }
    const DebuggerStats stats = debugger.stats();
    EXPECT_EQ(stats.tree.insertions, 0u);
    EXPECT_DOUBLE_EQ(stats.avgTreeNodesPerFenceInterval(), 0.0);
    EXPECT_EQ(stats.array.collectiveInvalidations, 100u);
}

TEST(DebuggerTest, LateFlushedRecordsMigrateToTree)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    runtime.store(0x1000, 8); // flushed only much later
    for (int i = 0; i < 10; ++i) {
        runtime.store(i * 64, 8);
        runtime.flush(i * 64, 64);
        runtime.fence();
    }
    EXPECT_EQ(debugger.treeNodeCount(), 1u);
    runtime.flush(0x1000, 64);
    runtime.fence();
    EXPECT_EQ(debugger.treeNodeCount(), 0u);
    EXPECT_GT(debugger.stats().avgTreeNodesPerFenceInterval(), 0.0);
}

TEST(DebuggerTest, ArrayOverflowFallsBackToTree)
{
    DebuggerConfig config;
    config.arrayCapacity = 4;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);
    for (int i = 0; i < 10; ++i)
        runtime.store(i * 64, 8);
    const DebuggerStats stats = debugger.stats();
    EXPECT_EQ(stats.array.overflowStores, 6u);
    EXPECT_EQ(debugger.treeNodeCount(), 6u);
    // All ten locations still reported at the end.
    runtime.programEnd();
    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 10u);
}

TEST(DebuggerTest, StrandSpacesAreIndependent)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Strand;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    runtime.strandBegin(0);
    runtime.store(0x100, 8);
    runtime.strandEnd(0);

    runtime.strandBegin(1);
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    // A fence in strand 1 must not touch strand 0's records.
    runtime.fence();
    runtime.strandEnd(1);

    runtime.programEnd();
    // Strand 0's store was never persisted.
    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(debugger.bugs().bugs()[0].range, AddrRange(0x100, 0x108));
}

TEST(DebuggerTest, FinalizeIsIdempotent)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    runtime.store(0x100, 8);
    runtime.programEnd();
    debugger.finalize();
    debugger.finalize();
    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 1u);
}

TEST(DebuggerTest, BugCollectorDeduplicatesSites)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    for (int i = 0; i < 5; ++i) {
        runtime.store(0x100, 8);
        runtime.flush(0x100, 64);
        runtime.flush(0x100, 64); // same redundant site every loop
        runtime.fence();
    }
    runtime.programEnd();
    EXPECT_EQ(debugger.bugs().countOf(BugType::RedundantFlush), 1u);
    EXPECT_EQ(debugger.bugs().occurrences(), 5u);
}

/** All three bookkeeping modes must reach identical verdicts. */
class BookkeepingModeTest
    : public ::testing::TestWithParam<BookkeepingMode>
{
};

TEST_P(BookkeepingModeTest, DetectsDurabilityBugsIdentically)
{
    DebuggerConfig config;
    config.bookkeeping = GetParam();
    config.arrayCapacity = 64;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    // Two persisted locations, two buggy ones (one missing CLF, one
    // missing fence), across several fence intervals.
    runtime.store(0x100, 8);
    runtime.flush(0x100, 64);
    runtime.fence();
    runtime.store(0x200, 8); // missing CLF
    runtime.fence();
    runtime.store(0x300, 8);
    runtime.flush(0x300, 64);
    runtime.fence();
    runtime.store(0x400, 8);
    runtime.flush(0x400, 64); // missing fence
    runtime.programEnd();

    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 2u);
}

INSTANTIATE_TEST_SUITE_P(Modes, BookkeepingModeTest,
                         ::testing::Values(BookkeepingMode::Hybrid,
                                           BookkeepingMode::TreeOnly,
                                           BookkeepingMode::ArrayOnly));

/**
 * Drive a random store/flush/fence stream through a PmDebugger and
 * check its durability verdict at program end against a byte-level
 * reference tracker.
 *
 * The short shape forces the overflow and merge paths (a 32-record
 * array, a fence every ~10 steps). The long shape has the default
 * capacity and a fence every ~5000 events, with memcpy-shaped runs of
 * 16-byte stores flushed line by line, multi-line and unaligned
 * sub-line flushes: fence intervals long enough for the array to find
 * its flush candidates through its address indexes.
 */
void
checkAgainstReference(std::uint64_t seed, BookkeepingMode mode,
                      bool long_intervals)
{
    Rng rng(seed);

    DebuggerConfig config;
    config.bookkeeping = mode;
    if (!long_intervals) {
        config.arrayCapacity = 32; // force overflow paths
        config.mergeThreshold = 8; // force merge paths
    }
    config.detectRedundantFlush = false;
    config.detectFlushNothing = false;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    // Reference: per-byte state 0=clean, 1=dirty, 2=flushed.
    const std::size_t space = long_intervals ? 1 << 14 : 1 << 10;
    std::vector<int> state(space, 0);
    const auto store = [&](Addr addr, std::uint32_t size) {
        runtime.store(addr, size);
        for (Addr a = addr; a < addr + size; ++a)
            state[a] = 1;
    };
    const auto flush = [&](Addr addr, std::uint32_t size) {
        runtime.flush(addr, size);
        for (Addr a = addr; a < addr + size; ++a) {
            if (state[a] == 1)
                state[a] = 2;
        }
    };
    const auto fence = [&] {
        runtime.fence();
        for (auto &s : state) {
            if (s == 2)
                s = 0;
        }
    };

    if (!long_intervals) {
        for (int step = 0; step < 3000; ++step) {
            const int action = static_cast<int>(rng.nextBounded(100));
            if (action < 60) {
                const Addr addr = rng.nextBounded(space - 16);
                store(addr, 1 + static_cast<std::uint32_t>(
                                    rng.nextBounded(16)));
            } else if (action < 90) {
                flush(rng.nextBounded(space / 64) * 64, 64);
            } else {
                fence();
            }
        }
    } else {
        Addr run_base = 0, run_lines = 0, flush_cursor = 0;
        std::uint64_t events = 0, next_fence = 2500 + rng.nextBounded(5000);
        while (events < 40000) {
            if (events >= next_fence) {
                fence();
                next_fence = events + 2500 + rng.nextBounded(5000);
            }
            const int action = static_cast<int>(rng.nextBounded(100));
            if (action < 8) {
                run_lines = 1 + rng.nextBounded(64);
                run_base = rng.nextBounded(space / 64 - run_lines) * 64;
                flush_cursor = 0;
                for (Addr off = 0; off < run_lines * 64; off += 16)
                    store(run_base + off, 16);
                events += run_lines * 4;
                continue;
            }
            if (action < 50) {
                const Addr addr = rng.nextBounded(space - 16);
                store(addr, 1 + static_cast<std::uint32_t>(
                                    rng.nextBounded(16)));
            } else if (action < 70 && flush_cursor < run_lines) {
                flush(run_base + 64 * flush_cursor++, 64);
            } else if (action < 85) {
                flush(rng.nextBounded(space / 64) * 64, 64);
            } else if (action < 92) {
                const Addr lines = 2 + rng.nextBounded(7);
                flush(rng.nextBounded(space / 64 - lines) * 64,
                      static_cast<std::uint32_t>(lines * 64));
            } else {
                const Addr addr = rng.nextBounded(space - 64);
                flush(addr, 1 + static_cast<std::uint32_t>(
                                    rng.nextBounded(63)));
            }
            ++events;
        }
    }
    runtime.programEnd();

    // Bytes the reference says are not durable.
    std::set<Addr> expected;
    for (Addr a = 0; a < space; ++a) {
        if (state[a] != 0)
            expected.insert(a);
    }
    // Bytes the debugger reported as not durable.
    std::set<Addr> reported;
    for (const BugReport &bug : debugger.bugs().bugs()) {
        ASSERT_EQ(bug.type, BugType::NoDurability);
        for (Addr a = bug.range.start; a < bug.range.end; ++a)
            reported.insert(a);
    }
    EXPECT_EQ(reported, expected);
}

/** Property test over seeds and bookkeeping modes (short intervals). */
class DebuggerPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 BookkeepingMode>>
{
};

TEST_P(DebuggerPropertyTest, EndStateMatchesReferenceTracker)
{
    const auto [seed, mode] = GetParam();
    checkAgainstReference(seed, mode, /*long_intervals=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, DebuggerPropertyTest,
    ::testing::Combine(::testing::Values(3, 17, 99, 256, 1024),
                       ::testing::Values(BookkeepingMode::Hybrid,
                                         BookkeepingMode::TreeOnly)));

/** The same property over long fence intervals, in the array modes. */
class LongIntervalPropertyTest : public DebuggerPropertyTest
{
};

TEST_P(LongIntervalPropertyTest, EndStateMatchesReferenceTracker)
{
    const auto [seed, mode] = GetParam();
    checkAgainstReference(seed, mode, /*long_intervals=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    LongFenceIntervals, LongIntervalPropertyTest,
    ::testing::Combine(::testing::Values(3, 17, 99, 256, 1024),
                       ::testing::Values(BookkeepingMode::Hybrid,
                                         BookkeepingMode::ArrayOnly)));

} // namespace
} // namespace pmdb
