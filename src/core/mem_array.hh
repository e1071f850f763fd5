/**
 * @file
 * The memory-location array and CLF-interval metadata (Sections 4.1-4.4)
 * — the short-lived, fast half of PMDebugger's hybrid bookkeeping space.
 *
 * Store records for the current *fence interval* are appended to a
 * fixed-size array (O(1), no re-organization — Pattern 3). A list of
 * per-CLF-interval metadata nodes records each interval's array span,
 * address bounds and collective flush state, so that one CLWB covering
 * an interval's bounds flips the whole interval to all-flushed in O(1)
 * (Pattern 2), and a fence invalidates all-flushed intervals
 * collectively without visiting their records (Pattern 1). Records that
 * survive a fence are re-distributed into the AVL tree.
 *
 * Any other flush visits the records of each interval it overlaps
 * (§4.3). On short lists that is the paper's linear scan. Once a fence
 * interval holds more than kIndexedIntervals intervals, or one interval
 * more than kIndexedRecords records, the flush finds its candidates
 * through a sorted address index instead (a memcpy_persist-shaped value
 * is one interval of thousands of records, each line flush touching
 * four). The index is split by width class, so one wide interval or
 * record does not turn every query back into a scan. Candidates are
 * visited in array order, so every outcome, state, split and counter is
 * the one the linear scan produces.
 */

#ifndef PMDB_CORE_MEM_ARRAY_HH
#define PMDB_CORE_MEM_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/avl_tree.hh"
#include "core/location.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Collective flushing state of a CLF interval (Section 4.1). */
enum class IntervalFlushState : std::uint8_t
{
    NotFlushed,
    PartiallyFlushed,
    AllFlushed,
};

/** Metadata node for one CLF interval (Figure 5, right). */
struct ClfIntervalMeta
{
    /** First record index of the interval in the array. */
    std::uint32_t startIdx = 0;
    /** One past the last record index. */
    std::uint32_t endIdx = 0;
    /** Min/max address range of the records collected in the interval. */
    AddrRange bounds;
    IntervalFlushState state = IntervalFlushState::NotFlushed;
    /** The record keys in [startIdx, endIdx) are built (long intervals). */
    bool indexed = false;
    /**
     * Records still NotFlushed. Set when the interval first leaves
     * NotFlushed (no record has flipped before then) and decremented
     * per record a flush covers, so the state after a flush needs no
     * rescan of the interval.
     */
    std::uint32_t unflushed = 0;
    /** Width classes of the records (if indexed), one bit each. */
    std::uint64_t recordClasses = 0;

    bool empty() const { return endIdx <= startIdx; }
};

/** Counters for the array's collective-processing effectiveness. */
struct ArrayStats
{
    /** Intervals invalidated wholesale at fences (records never visited). */
    std::uint64_t collectiveInvalidations = 0;
    /** Records freed without individual examination. */
    std::uint64_t recordsCollectivelyFreed = 0;
    /** Records moved into the AVL tree at fences. */
    std::uint64_t recordsMovedToTree = 0;
    /** Records that became durable and were dropped individually. */
    std::uint64_t recordsDroppedIndividually = 0;
    /** Stores that overflowed the fixed-size array into the tree. */
    std::uint64_t overflowStores = 0;
    /** High-water mark of array occupancy. */
    std::uint32_t maxUsage = 0;
};

/** Outcome of applying one CLF to a bookkeeping structure. */
struct FlushOutcome
{
    bool hitAny = false;
    bool hitUnflushed = false;
    bool hitFlushed = false;

    void
    combine(const FlushOutcome &other)
    {
        hitAny |= other.hitAny;
        hitUnflushed |= other.hitUnflushed;
        hitFlushed |= other.hitFlushed;
    }
};

/**
 * Fixed-capacity array of location records for one fence interval,
 * plus the CLF-interval metadata list that enables collective updates.
 */
class MemoryLocationArray
{
  public:
    explicit MemoryLocationArray(std::size_t capacity);

    bool full() const { return size_ >= capacity_; }
    std::uint32_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /**
     * Interval count past which a flush finds intervals by address, and
     * record count past which it finds an interval's records by address.
     * Below about 32-64 entries the scan is the cheaper of the two (see
     * DESIGN.md §5).
     */
    static constexpr std::size_t kIndexedIntervals = 64;
    static constexpr std::uint32_t kIndexedRecords = 64;

    /**
     * Append a store record, NotFlushed, to the current CLF interval
     * (§4.2). Returns false when the array is full: the caller then
     * tracks the record in the AVL tree instead. Defined inline — this
     * is the single hottest call of the whole detector (one per
     * store), and the batched dispatch path relies on it inlining into
     * the store-run loop.
     */
    bool
    append(const LocationRecord &record)
    {
        if (full())
            return false;

        if (!intervalOpen_) {
            ClfIntervalMeta meta;
            meta.startIdx = size_;
            meta.endIdx = size_;
            intervals_.push_back(meta);
            intervalOpen_ = true;
        }

        records_[size_] = record;
        ++size_;
        stats_.maxUsage = std::max(stats_.maxUsage, size_);

        ClfIntervalMeta &meta = intervals_.back();
        meta.endIdx = size_;
        meta.bounds = meta.bounds.unionWith(record.range);
        return true;
    }

    /**
     * Append a run of store records in bulk (batched dispatch fast
     * path). Equivalent to calling append() once per event — the
     * interval bounds union is associative and size_/endIdx/maxUsage
     * are monotone within the run, so updating the metadata once at
     * the end leaves identical state and stats. Returns the number of
     * records appended; fewer than @p count means the array filled and
     * the caller tracks the rest in the AVL tree.
     */
    std::uint32_t
    appendRun(const Event *events, std::uint32_t count, bool in_epoch)
    {
        const std::uint32_t room =
            static_cast<std::uint32_t>(capacity_) - size_;
        const std::uint32_t n = std::min(count, room);
        if (n == 0)
            return 0;

        if (!intervalOpen_) {
            ClfIntervalMeta meta;
            meta.startIdx = size_;
            meta.endIdx = size_;
            intervals_.push_back(meta);
            intervalOpen_ = true;
        }

        ClfIntervalMeta &meta = intervals_.back();
        AddrRange bounds = meta.bounds;
        LocationRecord *out = records_.data() + size_;
        for (std::uint32_t i = 0; i < n; ++i) {
            const AddrRange range = events[i].range();
            out[i] = LocationRecord(range, FlushState::NotFlushed,
                                    in_epoch, events[i].seq);
            bounds = bounds.unionWith(range);
        }
        size_ += n;
        meta.endIdx = size_;
        meta.bounds = bounds;
        stats_.maxUsage = std::max(stats_.maxUsage, size_);
        return n;
    }

    /**
     * Apply a CLF over @p range (§4.3). Collectively marks intervals
     * whose bounds the CLF covers; scans records of partially covered
     * intervals; split pieces that escape the flush go to @p tree.
     * Afterwards the current CLF interval is closed (§4.3 "starts a
     * new CLF interval").
     */
    FlushOutcome applyFlush(const AddrRange &range, AvlTree &tree);

    /**
     * Fence processing (§4.4): all-flushed intervals are invalidated
     * collectively; surviving records are dropped (if flushed) or moved
     * into @p tree (if not). Resets the array for the next fence
     * interval.
     */
    void processFence(AvlTree &tree);

    /**
     * Array-only ablation fence: drop durable records and compact
     * survivors into a single fresh interval instead of re-distributing
     * them to the tree.
     */
    void compactSurvivors();

    /** True if any live record overlaps @p range. */
    bool overlapsAny(const AddrRange &range) const;

    /**
     * Visit every live record with its *effective* flush state, which
     * folds in the interval's collective state.
     */
    void forEachLive(
        const std::function<void(const LocationRecord &, FlushState)>
            &visit) const;

    /** Count of live records (array only, not the tree). */
    std::uint32_t liveCount() const { return size_; }

    /** Clear the epoch membership flag on all live records (§5). */
    void clearEpochFlags();

    const std::vector<ClfIntervalMeta> &intervals() const
    {
        return intervals_;
    }

    const ArrayStats &stats() const { return stats_; }

    /** Record an overflow store (tracked in the tree instead). */
    void noteOverflow() { ++stats_.overflowStores; }

  private:
    /**
     * An index entry: a record's or an interval's width class and start
     * address. Keys sort by class, then start, so that each class is a
     * run sorted by address.
     */
    struct AddrKey
    {
        Addr start;
        std::uint32_t idx;
        std::uint8_t cls;

        bool
        operator<(const AddrKey &other) const
        {
            if (cls != other.cls)
                return cls < other.cls;
            return start != other.start ? start < other.start
                                        : idx < other.idx;
        }
    };

    /** Call @p visit with the index of every key in sorted [first,
     * last) whose range may overlap @p range (a superset of those that
     * do); @p classes has a bit per width class present. */
    template <typename Visit>
    static void forEachCandidate(const AddrKey *first, const AddrKey *last,
                                 std::uint64_t classes,
                                 const AddrRange &range, Visit visit);

    FlushState effectiveState(std::uint32_t idx,
                              const ClfIntervalMeta &meta) const;

    /** Apply the flush to one interval whose bounds it overlaps (the
     * body of §4.3). */
    void flushInterval(ClfIntervalMeta &meta, const AddrRange &range,
                       AvlTree &tree, FlushOutcome &outcome);

    /** Flush the records of @p meta at @p candidates (ascending
     * indices, a superset of the hits); true if one was split. */
    template <typename Indices>
    bool flushRecords(ClfIntervalMeta &meta, const Indices &candidates,
                      const AddrRange &range, AvlTree &tree,
                      FlushOutcome &outcome);

    /** Sort the records of @p meta into recordKeys_ by width class and
     * address. */
    void indexRecords(ClfIntervalMeta &meta);

    /** Fill recordHits_ with the records of indexed @p meta that
     * overlap @p range, in ascending order. */
    void findRecords(const ClfIntervalMeta &meta, const AddrRange &range);

    /** Fill intervalHits_ with the intervals whose bounds overlap
     * @p range, in ascending order; the open one is tested directly. */
    void findIntervals(const AddrRange &range);

    /** Drop both indexes (the storage is kept for reuse). */
    void resetIndexes();

    std::vector<LocationRecord> records_;
    std::vector<ClfIntervalMeta> intervals_;
    /**
     * Per indexed interval, its records' keys sorted by width class and
     * address, stored at the interval's own span [startIdx, endIdx). An
     * interval is closed by its first scan, so its key set never
     * changes; splits only shrink a record, so a key's start and class
     * still bound the bytes the record holds.
     */
    std::vector<AddrKey> recordKeys_;
    /** Closed intervals' bounds sorted by class and start, and the
     * classes present. */
    std::vector<AddrKey> intervalKeys_;
    std::uint64_t intervalClasses_ = 0;
    /** intervalKeys_[0, sortedKeys_) is sorted; the rest is a short
     * unsorted tail, merged in once it outgrows kIndexedIntervals. */
    std::size_t sortedKeys_ = 0;
    /** Intervals [0, keyedIntervals_) are in intervalKeys_. */
    std::uint32_t keyedIntervals_ = 0;
    /** Scratch candidate lists, reused across flushes. */
    std::vector<std::uint32_t> intervalHits_;
    std::vector<std::uint32_t> recordHits_;
    std::size_t capacity_;
    std::uint32_t size_ = 0;
    /** Whether stores extend the last interval or must start a new one. */
    bool intervalOpen_ = false;
    ArrayStats stats_;
};

} // namespace pmdb

#endif // PMDB_CORE_MEM_ARRAY_HH
