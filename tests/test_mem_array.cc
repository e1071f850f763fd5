/**
 * @file
 * Unit tests for the memory-location array and CLF-interval metadata:
 * append/interval bookkeeping, collective flush and invalidation,
 * partial-flush splitting, fence re-distribution and overflow, and a
 * differential test of the indexed flush path against the linear one.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/mem_array.hh"

namespace pmdb
{
namespace
{

LocationRecord
rec(Addr start, Addr end, bool epoch = false)
{
    static SeqNum seq = 1;
    return LocationRecord(AddrRange(start, end), FlushState::NotFlushed,
                          epoch, seq++);
}

TEST(MemArrayTest, AppendOpensAndExtendsInterval)
{
    MemoryLocationArray array(16);
    EXPECT_TRUE(array.append(rec(0, 8)));
    EXPECT_TRUE(array.append(rec(32, 40)));
    ASSERT_EQ(array.intervals().size(), 1u);
    const ClfIntervalMeta &meta = array.intervals()[0];
    EXPECT_EQ(meta.startIdx, 0u);
    EXPECT_EQ(meta.endIdx, 2u);
    EXPECT_EQ(meta.bounds, AddrRange(0, 40));
    EXPECT_EQ(meta.state, IntervalFlushState::NotFlushed);
}

TEST(MemArrayTest, FlushClosesIntervalNextStoreOpensNew)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));
    array.applyFlush(AddrRange(0, 64), tree);
    array.append(rec(64, 72));
    ASSERT_EQ(array.intervals().size(), 2u);
    EXPECT_EQ(array.intervals()[1].startIdx, 1u);
}

TEST(MemArrayTest, CollectiveFlushIsMetadataOnly)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    // Three stores within one cache line: the collective case.
    array.append(rec(0, 8));
    array.append(rec(8, 16));
    array.append(rec(16, 24));
    const FlushOutcome outcome =
        array.applyFlush(AddrRange(0, 64), tree);
    EXPECT_TRUE(outcome.hitAny);
    EXPECT_TRUE(outcome.hitUnflushed);
    EXPECT_EQ(array.intervals()[0].state, IntervalFlushState::AllFlushed);
    EXPECT_TRUE(tree.empty());
}

TEST(MemArrayTest, ReflushOfAllFlushedIntervalIsRedundant)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));
    array.applyFlush(AddrRange(0, 64), tree);
    const FlushOutcome again = array.applyFlush(AddrRange(0, 64), tree);
    EXPECT_TRUE(again.hitAny);
    EXPECT_TRUE(again.hitFlushed);
    EXPECT_FALSE(again.hitUnflushed);
}

TEST(MemArrayTest, DispersedFlushMarksRecordsIndividually)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));    // line 0
    array.append(rec(64, 72));  // line 1
    const FlushOutcome outcome =
        array.applyFlush(AddrRange(0, 64), tree);
    EXPECT_TRUE(outcome.hitUnflushed);
    EXPECT_EQ(array.intervals()[0].state,
              IntervalFlushState::PartiallyFlushed);

    int flushed = 0, not_flushed = 0;
    array.forEachLive([&](const LocationRecord &, FlushState state) {
        state == FlushState::Flushed ? ++flushed : ++not_flushed;
    });
    EXPECT_EQ(flushed, 1);
    EXPECT_EQ(not_flushed, 1);
}

TEST(MemArrayTest, PartialRecordSplitSendsUncoveredPiecesToTree)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 192)); // spans 3 lines
    array.applyFlush(AddrRange(64, 128), tree); // middle line only
    // Covered middle stays in the array; head and tail go to the tree.
    EXPECT_EQ(tree.size(), 2u);
    bool saw_covered = false;
    array.forEachLive([&](const LocationRecord &r, FlushState state) {
        if (r.range == AddrRange(64, 128)) {
            saw_covered = true;
            EXPECT_EQ(state, FlushState::Flushed);
        }
    });
    EXPECT_TRUE(saw_covered);
}

TEST(MemArrayTest, FenceCollectivelyInvalidatesAllFlushedIntervals)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));
    array.append(rec(8, 16));
    array.applyFlush(AddrRange(0, 64), tree);
    array.processFence(tree);
    EXPECT_EQ(array.size(), 0u);
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(array.stats().collectiveInvalidations, 1u);
    EXPECT_EQ(array.stats().recordsCollectivelyFreed, 2u);
}

TEST(MemArrayTest, FenceMovesUnflushedRecordsToTree)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));   // will be flushed
    array.append(rec(64, 72)); // will not
    array.applyFlush(AddrRange(0, 64), tree);
    array.processFence(tree);
    EXPECT_EQ(array.size(), 0u);
    EXPECT_EQ(tree.size(), 1u);
    EXPECT_TRUE(tree.overlapsAny(AddrRange(64, 72)));
    EXPECT_EQ(array.stats().recordsMovedToTree, 1u);
    EXPECT_EQ(array.stats().recordsDroppedIndividually, 1u);
}

TEST(MemArrayTest, ArrayIsReusedAcrossFenceIntervals)
{
    MemoryLocationArray array(4);
    AvlTree tree;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(array.append(rec(i * 64, i * 64 + 8)));
        ASSERT_TRUE(array.full());
        array.applyFlush(AddrRange(0, 4 * 64), tree);
        array.processFence(tree);
        ASSERT_EQ(array.size(), 0u);
    }
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(array.stats().maxUsage, 4u);
}

TEST(MemArrayTest, OverflowRefusesAppend)
{
    MemoryLocationArray array(2);
    EXPECT_TRUE(array.append(rec(0, 8)));
    EXPECT_TRUE(array.append(rec(8, 16)));
    EXPECT_FALSE(array.append(rec(16, 24)));
    array.noteOverflow();
    EXPECT_EQ(array.stats().overflowStores, 1u);
}

TEST(MemArrayTest, OverlapQueriesRespectIntervalBounds)
{
    MemoryLocationArray array(16);
    array.append(rec(100, 108));
    EXPECT_TRUE(array.overlapsAny(AddrRange(104, 106)));
    EXPECT_FALSE(array.overlapsAny(AddrRange(0, 50)));
    EXPECT_FALSE(array.overlapsAny(AddrRange(108, 200)));
}

TEST(MemArrayTest, EpochFlagsClearable)
{
    MemoryLocationArray array(16);
    array.append(rec(0, 8, true));
    int in_epoch = 0;
    array.forEachLive([&](const LocationRecord &r, FlushState) {
        in_epoch += r.inEpoch ? 1 : 0;
    });
    EXPECT_EQ(in_epoch, 1);
    array.clearEpochFlags();
    in_epoch = 0;
    array.forEachLive([&](const LocationRecord &r, FlushState) {
        in_epoch += r.inEpoch ? 1 : 0;
    });
    EXPECT_EQ(in_epoch, 0);
}

TEST(MemArrayTest, CompactSurvivorsKeepsUnflushed)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));
    array.append(rec(64, 72));
    array.applyFlush(AddrRange(0, 64), tree);
    array.compactSurvivors();
    EXPECT_EQ(array.size(), 1u);
    EXPECT_TRUE(array.overlapsAny(AddrRange(64, 72)));
    EXPECT_FALSE(array.overlapsAny(AddrRange(0, 8)));
    EXPECT_TRUE(tree.empty()); // array-only mode: nothing redistributed
}

TEST(MemArrayTest, MultipleIntervalsClassifiedIndependently)
{
    MemoryLocationArray array(16);
    AvlTree tree;
    array.append(rec(0, 8));
    array.applyFlush(AddrRange(0, 64), tree); // interval 0 all-flushed
    array.append(rec(64, 72));
    array.applyFlush(AddrRange(128, 192), tree); // misses interval 1
    ASSERT_EQ(array.intervals().size(), 2u);
    EXPECT_EQ(array.intervals()[0].state, IntervalFlushState::AllFlushed);
    EXPECT_EQ(array.intervals()[1].state, IntervalFlushState::NotFlushed);
}

/**
 * The reference: the array with the paper's linear flush scan (§4.3),
 * which walks every interval on every flush and every record of each
 * interval it scans. MemoryLocationArray must match it exactly.
 */
struct LinearArray
{
    explicit LinearArray(std::size_t capacity) : capacity(capacity) {}

    bool
    append(const LocationRecord &record)
    {
        if (records.size() >= capacity)
            return false;
        if (!open) {
            ClfIntervalMeta meta;
            meta.startIdx = meta.endIdx =
                static_cast<std::uint32_t>(records.size());
            intervals.push_back(meta);
            open = true;
        }
        records.push_back(record);
        const std::uint32_t size =
            static_cast<std::uint32_t>(records.size());
        stats.maxUsage = std::max(stats.maxUsage, size);
        intervals.back().endIdx = size;
        intervals.back().bounds =
            intervals.back().bounds.unionWith(record.range);
        return true;
    }

    FlushOutcome
    applyFlush(const AddrRange &range, AvlTree &tree)
    {
        FlushOutcome outcome;
        for (ClfIntervalMeta &meta : intervals) {
            if (meta.empty() || !range.overlaps(meta.bounds))
                continue;
            if (meta.state == IntervalFlushState::AllFlushed) {
                outcome.hitAny = true;
                outcome.hitFlushed = true;
                continue;
            }
            if (meta.state == IntervalFlushState::NotFlushed &&
                range.contains(meta.bounds)) {
                meta.state = IntervalFlushState::AllFlushed;
                outcome.hitAny = true;
                outcome.hitUnflushed = true;
                continue;
            }
            bool all_flushed = true;
            for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i) {
                LocationRecord &rec = records[i];
                if (!rec.range.overlaps(range)) {
                    if (rec.state != FlushState::Flushed)
                        all_flushed = false;
                    continue;
                }
                outcome.hitAny = true;
                if (rec.state == FlushState::Flushed) {
                    outcome.hitFlushed = true;
                    continue;
                }
                outcome.hitUnflushed = true;
                if (range.contains(rec.range)) {
                    rec.state = FlushState::Flushed;
                    continue;
                }
                const AddrRange covered = rec.range.intersect(range);
                if (rec.range.start < covered.start) {
                    LocationRecord head = rec;
                    head.range = AddrRange(rec.range.start, covered.start);
                    tree.insert(head);
                    all_flushed = false;
                }
                if (covered.end < rec.range.end) {
                    LocationRecord tail = rec;
                    tail.range = AddrRange(covered.end, rec.range.end);
                    tree.insert(tail);
                    all_flushed = false;
                }
                rec.range = covered;
                rec.state = FlushState::Flushed;
            }
            meta.state = all_flushed ? IntervalFlushState::AllFlushed
                                     : IntervalFlushState::PartiallyFlushed;
        }
        open = false;
        return outcome;
    }

    /** Survivors of a fence: re-distributed to @p tree, or (without a
     * tree, the array-only ablation) compacted into one interval. */
    void
    fence(AvlTree *tree)
    {
        std::vector<LocationRecord> survivors;
        for (const ClfIntervalMeta &meta : intervals) {
            if (meta.state == IntervalFlushState::AllFlushed) {
                ++stats.collectiveInvalidations;
                stats.recordsCollectivelyFreed += meta.endIdx - meta.startIdx;
                continue;
            }
            for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i) {
                if (records[i].state == FlushState::Flushed) {
                    ++stats.recordsDroppedIndividually;
                } else if (tree) {
                    tree->insert(records[i]);
                    ++stats.recordsMovedToTree;
                } else {
                    survivors.push_back(records[i]);
                }
            }
        }
        intervals.clear();
        records.clear();
        open = false;
        for (const LocationRecord &rec : survivors)
            append(rec);
        open = false;
    }

    std::vector<LocationRecord> records;
    std::vector<ClfIntervalMeta> intervals;
    std::size_t capacity;
    bool open = false;
    ArrayStats stats;
};

std::string
describe(const LocationRecord &r)
{
    std::ostringstream out;
    out << r.range.toString() << " state " << static_cast<int>(r.state)
        << " epoch " << r.inEpoch << " seq " << r.storeSeq;
    return out.str();
}

bool
sameRecord(const LocationRecord &a, const LocationRecord &b)
{
    return a.range == b.range && a.state == b.state &&
           a.inEpoch == b.inEpoch && a.storeSeq == b.storeSeq;
}

/** The first difference between the two sides, or "" if none. */
std::string
firstDifference(const MemoryLocationArray &array, const AvlTree &tree,
                const LinearArray &ref, const AvlTree &ref_tree)
{
    if (array.intervals().size() != ref.intervals.size())
        return "interval count";
    for (std::size_t i = 0; i < ref.intervals.size(); ++i) {
        const ClfIntervalMeta &a = array.intervals()[i];
        const ClfIntervalMeta &b = ref.intervals[i];
        if (a.startIdx != b.startIdx || a.endIdx != b.endIdx ||
            a.bounds != b.bounds || a.state != b.state)
            return "interval " + std::to_string(i);
    }
    if (array.size() != ref.records.size())
        return "record count";
    std::string diff;
    std::size_t idx = 0, meta = 0;
    array.forEachLive([&](const LocationRecord &rec, FlushState effective) {
        while (ref.intervals[meta].endIdx <= idx)
            ++meta;
        const LocationRecord &want = ref.records[idx];
        const FlushState want_effective =
            ref.intervals[meta].state == IntervalFlushState::AllFlushed
                ? FlushState::Flushed
                : want.state;
        if (diff.empty() &&
            (!sameRecord(rec, want) || effective != want_effective))
            diff = "record " + std::to_string(idx) + ": " + describe(rec) +
                   " vs " + describe(want);
        ++idx;
    });
    if (!diff.empty())
        return diff;

    std::vector<LocationRecord> nodes, ref_nodes;
    tree.forEach([&](const LocationRecord &r) { nodes.push_back(r); });
    ref_tree.forEach([&](const LocationRecord &r) { ref_nodes.push_back(r); });
    if (nodes.size() != ref_nodes.size())
        return "tree size";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!sameRecord(nodes[i], ref_nodes[i]))
            return "tree node " + std::to_string(i);
    }
    const TreeStats &ts = tree.stats(), &rts = ref_tree.stats();
    if (ts.insertions != rts.insertions || ts.removals != rts.removals ||
        ts.reorganizations != rts.reorganizations || ts.merges != rts.merges)
        return "tree stats";

    const ArrayStats &as = array.stats(), &ras = ref.stats;
    if (as.collectiveInvalidations != ras.collectiveInvalidations ||
        as.recordsCollectivelyFreed != ras.recordsCollectivelyFreed ||
        as.recordsMovedToTree != ras.recordsMovedToTree ||
        as.recordsDroppedIndividually != ras.recordsDroppedIndividually ||
        as.overflowStores != ras.overflowStores ||
        as.maxUsage != ras.maxUsage)
        return "array stats";
    return {};
}

/**
 * Seeded streams with fence intervals of 500-20000 records, driven
 * through the array and the linear reference side by side. Stores are
 * memcpy-shaped runs of 16-byte records (through appendRun, as batched
 * dispatch does, or one append each), overlapping stores, zero-size
 * stores and a few wide ones (so that indexes hold several width
 * classes); flushes walk the last run line by line (memcpy_persist), or
 * hit a random line, several lines, an unaligned sub-line range or
 * nothing. Every state, record, split piece and counter must match
 * after every operation, and both indexes must have been used.
 */
class MemArrayDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemArrayDifferentialTest, IndexedFlushMatchesLinearScan)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    // Odd seeds run the array-only ablation's fence (compaction).
    const bool compact = seed % 2 == 1;
    constexpr std::size_t capacity = 30000;
    constexpr Addr space = 1 << 16;

    MemoryLocationArray array(capacity);
    LinearArray ref(capacity);
    AvlTree tree, ref_tree;
    SeqNum seq = 1;
    std::vector<Event> run;
    Addr run_base = 0, run_lines = 0, flush_cursor = 0;
    // Fence intervals in which each index was used.
    int record_index_used = 0, interval_index_used = 0;
    bool record_index_now = false, interval_index_now = false;

    // A store the full array refuses goes to the tree, as in PmDebugger.
    const auto overflow = [&](const LocationRecord &record) {
        tree.insert(record);
        ref_tree.insert(record);
        array.noteOverflow();
        ++ref.stats.overflowStores;
    };
    const auto store = [&](const LocationRecord &record) {
        const bool in_array = array.append(record);
        ASSERT_EQ(in_array, ref.append(record));
        if (!in_array)
            overflow(record);
    };
    const auto flush = [&](const AddrRange &range) {
        interval_index_now |= array.intervals().size() >
                              MemoryLocationArray::kIndexedIntervals;
        const FlushOutcome got = array.applyFlush(range, tree);
        const FlushOutcome want = ref.applyFlush(range, ref_tree);
        ASSERT_EQ(got.hitAny, want.hitAny) << range.toString();
        ASSERT_EQ(got.hitUnflushed, want.hitUnflushed) << range.toString();
        ASSERT_EQ(got.hitFlushed, want.hitFlushed) << range.toString();
        tree.applyFlush(range);
        ref_tree.applyFlush(range);
        for (const ClfIntervalMeta &meta : array.intervals())
            record_index_now |= meta.indexed;
    };

    for (int fence = 0; fence < 5; ++fence) {
        // Two long fence intervals, so that one runs on indexes a
        // fence has reset, then 500-20000 records at random.
        const std::size_t target =
            fence == 0   ? 20000
            : fence == 1 ? 10000
                         : static_cast<std::size_t>(
                               500.0 * std::pow(40.0, rng.nextDouble()));
        std::size_t appended = 0;
        for (int step = 0; appended < target; ++step) {
            const std::uint64_t action = rng.nextBounded(100);
            if (action < 8) {
                // memcpy-shaped run: 16-byte records over whole lines.
                run_lines = rng.nextBool(0.15) ? 16 + rng.nextBounded(497)
                                               : 1 + rng.nextBounded(8);
                run_base = rng.nextBounded(space / 64 - run_lines) * 64 +
                           (rng.nextBool(0.2) ? rng.nextBounded(16) : 0);
                flush_cursor = 0;
                const bool in_epoch = rng.nextBool(0.3);
                run.clear();
                for (Addr off = 0; off < run_lines * 64; off += 16) {
                    Event event;
                    event.addr = run_base + off;
                    event.size = 16;
                    event.seq = seq++;
                    run.push_back(event);
                }
                if (rng.nextBool(0.5)) {
                    const auto count = static_cast<std::uint32_t>(run.size());
                    const std::uint32_t done =
                        array.appendRun(run.data(), count, in_epoch);
                    for (std::uint32_t i = 0; i < count; ++i) {
                        const LocationRecord record(run[i].range(),
                                                    FlushState::NotFlushed,
                                                    in_epoch, run[i].seq);
                        ASSERT_EQ(ref.append(record), i < done);
                        if (i >= done)
                            overflow(record);
                    }
                } else {
                    for (const Event &event : run)
                        store(LocationRecord(event.range(),
                                             FlushState::NotFlushed,
                                             in_epoch, event.seq));
                }
                appended += run.size();
            } else if (action < 36) {
                // Overlapping store, or (rarely) a zero-size one or one
                // spanning up to a quarter of the space.
                const Addr addr = rng.nextBounded(space - 256);
                const Addr size =
                    rng.nextBool(0.1)    ? 0
                    : rng.nextBool(0.02) ? 1 + rng.nextBounded(space / 4)
                                         : 1 + rng.nextBounded(200);
                store(LocationRecord(AddrRange(addr, addr + size),
                                     FlushState::NotFlushed,
                                     rng.nextBool(0.3), seq++));
                ++appended;
            } else if (action < 70 && flush_cursor < run_lines) {
                // memcpy_persist: the next line of the last run.
                const Addr line = run_base / 64 * 64 + flush_cursor++ * 64;
                flush(AddrRange(line, line + 64));
            } else if (action < 82) {
                const Addr line = rng.nextBounded(space / 64) * 64;
                flush(AddrRange(line, line + 64));
            } else if (action < 90) {
                const Addr line = rng.nextBounded(space / 64 - 16) * 64;
                flush(AddrRange(line, line + 64 * (2 + rng.nextBounded(15))));
            } else if (action < 97) {
                const Addr start = rng.nextBounded(space - 64);
                flush(AddrRange(start, start + 1 + rng.nextBounded(63)));
            } else {
                const Addr start = rng.nextBounded(space);
                flush(AddrRange(start, start));
            }
            if (HasFatalFailure())
                return;
            ASSERT_EQ(firstDifference(array, tree, ref, ref_tree), "")
                << "fence interval " << fence << ", step " << step;
        }

        tree.removeFlushed(nullptr);
        ref_tree.removeFlushed(nullptr);
        if (compact) {
            array.compactSurvivors();
            ref.fence(nullptr);
        } else {
            array.processFence(tree);
            ref.fence(&ref_tree);
        }
        tree.maybeMerge();
        ref_tree.maybeMerge();
        ASSERT_EQ(firstDifference(array, tree, ref, ref_tree), "")
            << "after fence " << fence;
        record_index_used += record_index_now;
        interval_index_used += interval_index_now;
        record_index_now = interval_index_now = false;
    }
    EXPECT_GE(record_index_used, 2);
    EXPECT_GE(interval_index_used, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemArrayDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

} // namespace
} // namespace pmdb
