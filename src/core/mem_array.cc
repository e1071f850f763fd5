#include "core/mem_array.hh"

#include <algorithm>
#include <bit>
#include <ranges>

#include "common/logging.hh"

namespace pmdb
{

namespace
{

/** The width class of @p range: the bit width of its size, so that a
 * range of class c is shorter than 2^c (the top class takes the rest). */
std::uint8_t
widthClass(const AddrRange &range)
{
    return static_cast<std::uint8_t>(
        std::min<int>(static_cast<int>(std::bit_width(range.size())), 63));
}

} // namespace

template <typename Visit>
void
MemoryLocationArray::forEachCandidate(const AddrKey *first,
                                      const AddrKey *last,
                                      std::uint64_t classes,
                                      const AddrRange &range, Visit visit)
{
    // Per class present, the keys starting in [range.start - 2^c,
    // range.end): every range of that class overlapping @p range is
    // among them. Querying class by class keeps one wide range from
    // widening the query for all the narrow ones.
    for (; classes != 0; classes &= classes - 1) {
        const auto cls =
            static_cast<std::uint8_t>(std::countr_zero(classes));
        const Addr reach = cls == 63 ? ~Addr{0} : Addr{1} << cls;
        const Addr lowest = range.start > reach ? range.start - reach : 0;
        for (const AddrKey *key =
                 std::lower_bound(first, last, AddrKey{lowest, 0, cls});
             key != last && key->cls == cls && key->start < range.end;
             ++key)
            visit(key->idx);
    }
}

MemoryLocationArray::MemoryLocationArray(std::size_t capacity)
    : capacity_(capacity)
{
    records_.resize(capacity);
}

FlushState
MemoryLocationArray::effectiveState(std::uint32_t idx,
                                    const ClfIntervalMeta &meta) const
{
    if (meta.state == IntervalFlushState::AllFlushed)
        return FlushState::Flushed;
    return records_[idx].state;
}

FlushOutcome
MemoryLocationArray::applyFlush(const AddrRange &range, AvlTree &tree)
{
    FlushOutcome outcome;

    if (intervals_.size() <= kIndexedIntervals) {
        for (ClfIntervalMeta &meta : intervals_) {
            if (range.overlaps(meta.bounds))
                flushInterval(meta, range, tree, outcome);
        }
    } else {
        findIntervals(range);
        for (const std::uint32_t i : intervalHits_)
            flushInterval(intervals_[i], range, tree, outcome);
    }

    // The CLF ends the current interval: the next store opens a new one.
    intervalOpen_ = false;
    return outcome;
}

template <typename Indices>
bool
MemoryLocationArray::flushRecords(ClfIntervalMeta &meta,
                                  const Indices &candidates,
                                  const AddrRange &range, AvlTree &tree,
                                  FlushOutcome &outcome)
{
    bool split = false;
    for (const std::uint32_t i : candidates) {
        LocationRecord &rec = records_[i];
        if (!rec.range.overlaps(range))
            continue;
        outcome.hitAny = true;
        if (rec.state == FlushState::Flushed) {
            outcome.hitFlushed = true;
            continue;
        }
        outcome.hitUnflushed = true;
        --meta.unflushed;
        if (range.contains(rec.range)) {
            rec.state = FlushState::Flushed;
            continue;
        }
        // Partial overlap: the covered sub-range stays in the array;
        // uncovered pieces go to the AVL tree (§4.3 — they cannot be
        // appended without breaking the interval's index span).
        const AddrRange covered = rec.range.intersect(range);
        if (rec.range.start < covered.start) {
            LocationRecord head = rec;
            head.range = AddrRange(rec.range.start, covered.start);
            tree.insert(head);
            split = true;
        }
        if (covered.end < rec.range.end) {
            LocationRecord tail = rec;
            tail.range = AddrRange(covered.end, rec.range.end);
            tree.insert(tail);
            split = true;
        }
        rec.range = covered;
        rec.state = FlushState::Flushed;
    }
    return split;
}

void
MemoryLocationArray::flushInterval(ClfIntervalMeta &meta,
                                   const AddrRange &range, AvlTree &tree,
                                   FlushOutcome &outcome)
{
    if (meta.state == IntervalFlushState::AllFlushed) {
        // Everything the CLF touches here is already flushed: pure
        // redundancy, established in O(1) from the metadata alone.
        outcome.hitAny = true;
        outcome.hitFlushed = true;
        return;
    }

    if (meta.state == IntervalFlushState::NotFlushed &&
        range.contains(meta.bounds)) {
        // Collective writeback (Pattern 2): one metadata update covers
        // every record of the interval; no record is visited.
        meta.state = IntervalFlushState::AllFlushed;
        outcome.hitAny = true;
        outcome.hitUnflushed = true;
        return;
    }

    // Dispersed or repeated writeback: examine the interval's records
    // individually (§4.3).
    if (meta.state == IntervalFlushState::NotFlushed) {
        meta.unflushed = meta.endIdx - meta.startIdx;
        if (meta.unflushed > kIndexedRecords)
            indexRecords(meta);
    }
    bool split = false;
    if (meta.indexed) {
        findRecords(meta, range);
        split = flushRecords(meta, recordHits_, range, tree, outcome);
    } else {
        split = flushRecords(
            meta, std::views::iota(meta.startIdx, meta.endIdx), range,
            tree, outcome);
    }
    meta.state = meta.unflushed == 0 && !split
                     ? IntervalFlushState::AllFlushed
                     : IntervalFlushState::PartiallyFlushed;
}

void
MemoryLocationArray::indexRecords(ClfIntervalMeta &meta)
{
    if (recordKeys_.size() < meta.endIdx)
        recordKeys_.resize(meta.endIdx);
    meta.recordClasses = 0;
    for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i) {
        const AddrRange &range = records_[i].range;
        recordKeys_[i] = AddrKey{range.start, i, widthClass(range)};
        meta.recordClasses |= std::uint64_t{1} << recordKeys_[i].cls;
    }
    std::sort(recordKeys_.begin() + meta.startIdx,
              recordKeys_.begin() + meta.endIdx);
    meta.indexed = true;
}

void
MemoryLocationArray::findRecords(const ClfIntervalMeta &meta,
                                 const AddrRange &range)
{
    // Splits only shrink a record, so its key (original) start and
    // class still bound any byte it holds.
    recordHits_.clear();
    forEachCandidate(recordKeys_.data() + meta.startIdx,
                     recordKeys_.data() + meta.endIdx, meta.recordClasses,
                     range, [&](std::uint32_t i) {
                         if (records_[i].range.overlaps(range))
                             recordHits_.push_back(i);
                     });
    // Visit in array order, as the linear scan does: the order of
    // split pieces entering the tree shapes its rotations.
    std::sort(recordHits_.begin(), recordHits_.end());
}

void
MemoryLocationArray::findIntervals(const AddrRange &range)
{
    // Key every closed interval not yet keyed: its bounds are final.
    // Keys arriving in address order extend the sorted prefix.
    const std::uint32_t closed =
        static_cast<std::uint32_t>(intervals_.size()) -
        (intervalOpen_ ? 1 : 0);
    for (; keyedIntervals_ < closed; ++keyedIntervals_) {
        const AddrRange &bounds = intervals_[keyedIntervals_].bounds;
        const AddrKey key{bounds.start, keyedIntervals_,
                           widthClass(bounds)};
        const bool in_order =
            sortedKeys_ == intervalKeys_.size() &&
            (intervalKeys_.empty() || !(key < intervalKeys_.back()));
        intervalKeys_.push_back(key);
        if (in_order)
            ++sortedKeys_;
        intervalClasses_ |= std::uint64_t{1} << key.cls;
    }
    auto tail = intervalKeys_.begin() +
                static_cast<std::ptrdiff_t>(sortedKeys_);
    if (intervalKeys_.end() - tail >
        static_cast<std::ptrdiff_t>(kIndexedIntervals)) {
        std::sort(tail, intervalKeys_.end());
        std::inplace_merge(intervalKeys_.begin(), tail, intervalKeys_.end());
        sortedKeys_ = intervalKeys_.size();
        tail = intervalKeys_.end();
    }

    intervalHits_.clear();
    const auto hit = [&](std::uint32_t i) {
        if (intervals_[i].bounds.overlaps(range))
            intervalHits_.push_back(i);
    };
    forEachCandidate(intervalKeys_.data(), intervalKeys_.data() + sortedKeys_,
                     intervalClasses_, range, hit);
    for (; tail != intervalKeys_.end(); ++tail)
        hit(tail->idx);
    std::sort(intervalHits_.begin(), intervalHits_.end());
    // The open interval is tested directly.
    for (std::uint32_t i = closed; i < intervals_.size(); ++i) {
        if (intervals_[i].bounds.overlaps(range))
            intervalHits_.push_back(i);
    }
}

void
MemoryLocationArray::resetIndexes()
{
    intervalKeys_.clear();
    sortedKeys_ = 0;
    keyedIntervals_ = 0;
    intervalClasses_ = 0;
}

void
MemoryLocationArray::processFence(AvlTree &tree)
{
    for (const ClfIntervalMeta &meta : intervals_) {
        if (meta.empty())
            continue;
        if (meta.state == IntervalFlushState::AllFlushed) {
            // Collective invalidation (Pattern 1): durability of every
            // record is guaranteed by this fence; the records die
            // without being visited.
            ++stats_.collectiveInvalidations;
            stats_.recordsCollectivelyFreed += meta.endIdx - meta.startIdx;
            continue;
        }
        for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i) {
            const LocationRecord &rec = records_[i];
            if (rec.state == FlushState::Flushed) {
                ++stats_.recordsDroppedIndividually;
            } else {
                tree.insert(rec);
                ++stats_.recordsMovedToTree;
            }
        }
    }
    // Invalidate the metadata; the array storage itself is reused.
    intervals_.clear();
    resetIndexes();
    size_ = 0;
    intervalOpen_ = false;
}

void
MemoryLocationArray::compactSurvivors()
{
    std::vector<LocationRecord> survivors;
    for (const ClfIntervalMeta &meta : intervals_) {
        if (meta.state == IntervalFlushState::AllFlushed) {
            ++stats_.collectiveInvalidations;
            stats_.recordsCollectivelyFreed += meta.endIdx - meta.startIdx;
            continue;
        }
        for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i) {
            if (records_[i].state == FlushState::Flushed)
                ++stats_.recordsDroppedIndividually;
            else
                survivors.push_back(records_[i]);
        }
    }
    intervals_.clear();
    resetIndexes();
    size_ = 0;
    intervalOpen_ = false;
    for (const LocationRecord &rec : survivors)
        append(rec);
    // The survivors form one synthetic interval; close it so the next
    // store opens a fresh one.
    intervalOpen_ = false;
}

bool
MemoryLocationArray::overlapsAny(const AddrRange &range) const
{
    for (const ClfIntervalMeta &meta : intervals_) {
        if (meta.empty() || !range.overlaps(meta.bounds))
            continue;
        for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i) {
            if (records_[i].range.overlaps(range))
                return true;
        }
    }
    return false;
}

void
MemoryLocationArray::forEachLive(
    const std::function<void(const LocationRecord &, FlushState)> &visit)
    const
{
    for (const ClfIntervalMeta &meta : intervals_) {
        for (std::uint32_t i = meta.startIdx; i < meta.endIdx; ++i)
            visit(records_[i], effectiveState(i, meta));
    }
}

void
MemoryLocationArray::clearEpochFlags()
{
    for (std::uint32_t i = 0; i < size_; ++i)
        records_[i].inEpoch = false;
}

} // namespace pmdb
