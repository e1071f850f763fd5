#include "workloads/memcached.hh"

#include <cstring>
#include <thread>

#include "common/rng.hh"

namespace pmdb
{

MiniMemcached::MiniMemcached(PmemPool &pool, const FaultSet &faults,
                             PmTestDetector *pmtest, std::size_t capacity)
    : pool_(pool), faults_(faults), pmtest_(pmtest),
      perShardCapacity_(std::max<std::size_t>(8, capacity / shardCount))
{
    for (std::size_t s = 0; s < shardCount; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->stats = pool_.alloc(sizeof(ShardStats));
        shards_.push_back(std::move(shard));
    }
    // The ordering contract (item before publication flag) is watched
    // on shard 0, where the injected order bugs run.
    pool_.registerVariable("memcached.commit_flag",
                           shards_[0]->stats +
                               offsetof(ShardStats, commitFlag),
                           sizeof(std::uint64_t));
}

bool
MiniMemcached::bug(int n) const
{
    return faults_.active("mc_real_bugs") ||
           faults_.active("mc_bug_" + std::to_string(n));
}

MiniMemcached::Shard &
MiniMemcached::shardFor(std::uint64_t key)
{
    return *shards_[mix64(key ^ 0xfeedULL) % shardCount];
}

void
MiniMemcached::persistStat(Addr field_addr, std::uint64_t value,
                           bool flush, ThreadId thread)
{
    pool_.store<std::uint64_t>(field_addr, value, thread);
    if (flush)
        pool_.persist(field_addr, sizeof(std::uint64_t), thread);
}

void
MiniMemcached::set(std::uint64_t key, std::uint64_t payload,
                   ThreadId thread)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> guard(shard.lock);

    const bool annotate = pmtest_ && thread == 0;
    if (annotate)
        pmtest_->pmTestStart();

    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        setExisting(shard, it->second, payload, thread);
    } else {
        if (shard.index.size() >= perShardCapacity_)
            evictOne(shard, thread);
        setNew(shard, key, payload, thread);
    }

    // Touch the LRU (volatile, as in memcached-pmem).
    auto pos = shard.lruPos.find(key);
    if (pos != shard.lruPos.end())
        shard.lru.erase(pos->second);
    shard.lru.push_front(key);
    shard.lruPos[key] = shard.lru.begin();

    if (annotate)
        pmtest_->pmTestEnd();
}

void
MiniMemcached::setNew(Shard &shard, std::uint64_t key,
                      std::uint64_t payload, ThreadId thread)
{
    const Addr item = pool_.alloc(sizeof(Item), thread);
    const bool watched = &shard == shards_[0].get();
    if (watched) {
        pool_.registerVariable("memcached.pending_item", item,
                               sizeof(Item));
    }

    ShardStats stats = pool_.load<ShardStats>(shard.stats);
    const std::uint64_t cas = stats.casId + 1;
    const Addr commit_flag =
        shard.stats + offsetof(ShardStats, commitFlag);

    PmRuntime &runtime = pool_.runtime();
    {
        SiteScope site(runtime, "memcached.cc:setNew.fill_item", thread);
        // Header line.
        pool_.store<std::uint64_t>(item + offsetof(Item, hash),
                                   mix64(key), thread);
    if (!bug(1)) {
        // Figure 9a: ITEM_set_cas modifies the item's CAS id on link;
        // the buggy code performs this store after the item has been
        // persisted and never flushes it.
        pool_.store<std::uint64_t>(item + offsetof(Item, cas), cas,
                                   thread);
    }
    pool_.store<std::uint32_t>(item + offsetof(Item, flags), 0xbeef,
                               thread);
    pool_.store<std::uint32_t>(item + offsetof(Item, valLen), valueBytes,
                               thread);
    if (!bug(17)) {
        pool_.store<std::uint64_t>(item + offsetof(Item, key), key,
                                   thread);
    }
    if (!bug(18)) {
        pool_.store<std::uint32_t>(item + offsetof(Item, exptime),
                                   static_cast<std::uint32_t>(payload),
                                   thread);
    }

        // Value line.
        std::uint8_t value[valueBytes];
        for (std::size_t i = 0; i < valueBytes; ++i)
            value[i] =
                static_cast<std::uint8_t>(payload >> (8 * (i % 8)));
        pool_.writeBytes(item + offsetof(Item, value), value, valueBytes,
                         thread);
    }

    // Persist the item. Bug 5 flushes only the header line; bug 4
    // flushes both lines but omits the fence.
    SiteScope persist_site(runtime, "memcached.cc:setNew.persist_item",
                           thread);
    if (bug(5)) {
        pool_.flush(item, cacheLineSize, FlushKind::Clwb, thread);
        pool_.fence(thread);
    } else if (bug(4)) {
        pool_.flush(item, sizeof(Item), FlushKind::Clwb, thread);
    } else if (bug(13)) {
        // Order bug: publish the commit flag before the item persists.
        persistStat(commit_flag, cas, true, thread);
        pool_.persist(item, sizeof(Item), thread);
    } else if (bug(14)) {
        // Order bug: item and commit flag ride the same fence, leaving
        // their persist order ambiguous.
        pool_.flush(item, sizeof(Item), FlushKind::Clwb, thread);
        pool_.store<std::uint64_t>(commit_flag, cas, thread);
        pool_.flush(commit_flag, sizeof(std::uint64_t), FlushKind::Clwb,
                    thread);
        pool_.fence(thread);
    } else if (bug(9)) {
        // Redundant flush: the item's lines flushed twice before the
        // fence.
        pool_.flush(item, sizeof(Item), FlushKind::Clwb, thread);
        pool_.flush(item, sizeof(Item), FlushKind::Clwb, thread);
        pool_.fence(thread);
        persistStat(commit_flag, cas, true, thread);
    } else {
        pool_.persist(item, sizeof(Item), thread);
        persistStat(commit_flag, cas, true, thread);
    }

    if (bug(1)) {
        // The unpersisted ITEM_set_cas store of Figure 9a.
        SiteScope site(runtime, "memcached.cc:setNew.late_header_update",
                       thread);
        pool_.store<std::uint64_t>(item + offsetof(Item, cas), cas,
                                   thread);
    }
    if (bug(17)) {
        SiteScope site(runtime, "memcached.cc:setNew.late_header_update",
                       thread);
        pool_.store<std::uint64_t>(item + offsetof(Item, key), key,
                                   thread);
    }
    if (bug(18)) {
        SiteScope site(runtime, "memcached.cc:setNew.late_header_update",
                       thread);
        pool_.store<std::uint32_t>(item + offsetof(Item, exptime),
                                   static_cast<std::uint32_t>(payload),
                                   thread);
    }
    if (bug(11) && shard.staleItem) {
        // Flush-nothing: a CLF on a long-since durable retired item.
        SiteScope site(runtime, "memcached.cc:setNew.audit_flush",
                       thread);
        pool_.flush(shard.staleItem, cacheLineSize, FlushKind::Clwb,
                    thread);
        pool_.fence(thread);
    }
    if (bug(12)) {
        // Flush-nothing: the untouched scratch line of the stats block.
        SiteScope site(runtime, "memcached.cc:setNew.audit_flush",
                       thread);
        pool_.flush(shard.stats + offsetof(ShardStats, scratch),
                    sizeof(std::uint64_t), FlushKind::Clwb, thread);
        pool_.fence(thread);
    }

    // Shard statistics (strict updates). Bug 4 is a set path that
    // returns without any fence at all: its stats updates stay
    // unfenced too, so no later fence accidentally persists the item.
    SiteScope stats_site(runtime, "memcached.cc:setNew.persist_stats",
                         thread);
    persistStat(shard.stats + offsetof(ShardStats, casId), cas,
                !bug(2) && !bug(4), thread);
    persistStat(shard.stats + offsetof(ShardStats, totalItems),
                stats.totalItems + 1, !bug(6) && !bug(4), thread);
    persistStat(shard.stats + offsetof(ShardStats, currItems),
                stats.currItems + 1, !bug(7) && !bug(4), thread);

    shard.index[key] = item;

    if (pmtest_ && thread == 0) {
        // PMTest needs one assertion per durability obligation — 410
        // annotations for real memcached (Section 8); these model that
        // density.
        pmtest_->isPersist(item, sizeof(Item));
        pmtest_->isOrderedBefore(item, sizeof(Item), commit_flag,
                                 sizeof(std::uint64_t));
        pmtest_->isPersist(shard.stats + offsetof(ShardStats, casId),
                           sizeof(std::uint64_t));
        pmtest_->isPersist(shard.stats + offsetof(ShardStats, totalItems),
                           sizeof(std::uint64_t));
        pmtest_->isPersist(shard.stats + offsetof(ShardStats, currItems),
                           sizeof(std::uint64_t));
    }
}

void
MiniMemcached::setExisting(Shard &shard, Addr item, std::uint64_t payload,
                           ThreadId thread)
{
    // Value update.
    SiteScope site(pool_.runtime(),
                   "memcached.cc:setExisting.update_value", thread);
    std::uint8_t value[valueBytes];
    for (std::size_t i = 0; i < valueBytes; ++i)
        value[i] = static_cast<std::uint8_t>(payload >> (8 * (i % 8)));
    pool_.writeBytes(item + offsetof(Item, value), value, valueBytes,
                     thread);
    if (bug(10)) {
        // Redundant flush: the value line flushed twice before its
        // fence.
        pool_.flush(item + offsetof(Item, value), valueBytes,
                    FlushKind::Clwb, thread);
        pool_.flush(item + offsetof(Item, value), valueBytes,
                    FlushKind::Clwb, thread);
        pool_.fence(thread);
    } else if (!bug(15)) {
        pool_.persist(item + offsetof(Item, value), valueBytes, thread);
    }

    // Bump the item's value length and CAS id. Both live in the item's
    // header line, so whichever store the active bug leaves unflushed
    // must come last — a later persist of the other field would write
    // the whole line back and mask the bug.
    ShardStats stats = pool_.load<ShardStats>(shard.stats);
    const std::uint64_t cas = stats.casId + 1;
    auto bump_val_len = [&] {
        pool_.store<std::uint32_t>(item + offsetof(Item, valLen),
                                   valueBytes, thread);
        if (!bug(16)) {
            pool_.persist(item + offsetof(Item, valLen),
                          sizeof(std::uint32_t), thread);
        }
    };
    auto bump_cas = [&] {
        // Bug 3 is the update-path twin of Figure 9a: the CAS bump is
        // never flushed.
        pool_.store<std::uint64_t>(item + offsetof(Item, cas), cas,
                                   thread);
        if (!bug(3)) {
            pool_.persist(item + offsetof(Item, cas),
                          sizeof(std::uint64_t), thread);
        }
    };
    SiteScope header_site(pool_.runtime(),
                          "memcached.cc:setExisting.bump_header", thread);
    if (bug(16)) {
        bump_cas();
        bump_val_len();
    } else {
        bump_val_len();
        bump_cas();
    }

    persistStat(shard.stats + offsetof(ShardStats, casId), cas, !bug(2),
                thread);

    if (pmtest_ && thread == 0) {
        pmtest_->isPersist(item + offsetof(Item, value), valueBytes);
        pmtest_->isPersist(item + offsetof(Item, cas),
                           sizeof(std::uint64_t));
        pmtest_->isPersist(item + offsetof(Item, valLen),
                           sizeof(std::uint32_t));
        pmtest_->isPersist(shard.stats + offsetof(ShardStats, casId),
                           sizeof(std::uint64_t));
    }
}

void
MiniMemcached::evictOne(Shard &shard, ThreadId thread)
{
    if (shard.lru.empty())
        return;
    const std::uint64_t victim_key = shard.lru.back();
    shard.lru.pop_back();
    shard.lruPos.erase(victim_key);

    auto it = shard.index.find(victim_key);
    if (it == shard.index.end())
        return;
    const Addr item = it->second;
    shard.index.erase(it);

    // Tombstone the item (valLen = 0) and persist the tombstone.
    SiteScope site(pool_.runtime(), "memcached.cc:evictOne.tombstone",
                   thread);
    pool_.store<std::uint32_t>(item + offsetof(Item, valLen), 0, thread);
    if (!bug(8)) {
        pool_.persist(item + offsetof(Item, valLen),
                      sizeof(std::uint32_t), thread);
    }
    shard.staleItem = item;

    ShardStats stats = pool_.load<ShardStats>(shard.stats);
    persistStat(shard.stats + offsetof(ShardStats, currItems),
                stats.currItems - 1, !bug(7), thread);
    ++shard.evictions;

    if (pmtest_ && thread == 0) {
        pmtest_->isPersist(item + offsetof(Item, valLen),
                           sizeof(std::uint32_t));
    }
}

bool
MiniMemcached::get(std::uint64_t key, ThreadId thread)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> guard(shard.lock);

    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return false;

    if (bug(19)) {
        // Per-item fetch counter stored on the hot path, never flushed.
        SiteScope site(pool_.runtime(), "memcached.cc:get.bump_fetched",
                       thread);
        const Addr fetched = it->second + offsetof(Item, fetched);
        const bool annotate = pmtest_ && thread == 0;
        if (annotate)
            pmtest_->pmTestStart();
        pool_.store<std::uint32_t>(
            fetched, pool_.load<std::uint32_t>(fetched) + 1, thread);
        if (annotate) {
            pmtest_->isPersist(fetched, sizeof(std::uint32_t));
            pmtest_->pmTestEnd();
        }
    }

    // LRU touch (volatile).
    auto pos = shard.lruPos.find(key);
    if (pos != shard.lruPos.end()) {
        shard.lru.erase(pos->second);
        shard.lru.push_front(key);
        shard.lruPos[key] = shard.lru.begin();
    }
    return true;
}

bool
MiniMemcached::del(std::uint64_t key, ThreadId thread)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> guard(shard.lock);
    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return false;
    const Addr item = it->second;
    shard.index.erase(it);
    auto pos = shard.lruPos.find(key);
    if (pos != shard.lruPos.end()) {
        shard.lru.erase(pos->second);
        shard.lruPos.erase(pos);
    }

    // Tombstone and retire the item, then the count — each persisted
    // before the next step (strict persistency).
    pool_.store<std::uint32_t>(item + offsetof(Item, valLen), 0, thread);
    pool_.persist(item + offsetof(Item, valLen), sizeof(std::uint32_t),
                  thread);
    shard.staleItem = item;
    ShardStats stats = pool_.load<ShardStats>(shard.stats);
    persistStat(shard.stats + offsetof(ShardStats, currItems),
                stats.currItems - 1, true, thread);
    return true;
}

std::uint64_t
MiniMemcached::currItems() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        total += pool_.load<ShardStats>(shard->stats).currItems;
    }
    return total;
}

std::uint64_t
MiniMemcached::casId() const
{
    std::uint64_t max_cas = 0;
    for (const auto &shard : shards_) {
        max_cas = std::max(max_cas,
                           pool_.load<ShardStats>(shard->stats).casId);
    }
    return max_cas;
}

std::uint64_t
MiniMemcached::evictions() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->evictions;
    return total;
}

void
MemcachedWorkload::run(PmRuntime &runtime, const WorkloadOptions &options)
{
    std::size_t pool_bytes = options.poolBytes;
    if (pool_bytes == 0)
        pool_bytes = std::max<std::size_t>(32 << 20,
                                           options.operations * 64);
    PmemPool pool(runtime, pool_bytes, "memcached.pool",
                  options.trackPersistence);
    MiniMemcached cache(pool, options.faults, options.pmtest,
                        options.cacheCapacity ? options.cacheCapacity
                                              : (1 << 20));

    const std::uint64_t key_space =
        std::max<std::uint64_t>(1024, options.operations / 4);

    auto worker = [&](int tid, std::size_t ops, std::uint64_t seed) {
        Rng rng(seed);
        ZipfianGenerator keys(key_space, 0.99, seed ^ 0x5eedULL);
        for (std::size_t i = 0; i < ops; ++i) {
            runtime.appOp();
            const std::uint64_t key = keys.next();
            if (rng.nextBool(options.setRatio))
                cache.set(key, rng.next(), tid);
            else
                cache.get(key, tid);
        }
    };

    if (options.threads <= 1) {
        worker(0, options.operations, options.seed);
    } else {
        runtime.setThreadSafe(true);
        std::vector<std::thread> threads;
        const std::size_t per =
            options.operations / static_cast<std::size_t>(options.threads);
        for (int t = 0; t < options.threads; ++t) {
            threads.emplace_back(worker, t, per,
                                 options.seed + 7919 * (t + 1));
        }
        for (auto &thread : threads)
            thread.join();
        runtime.setThreadSafe(false);
    }

    runtime.programEnd();
}

} // namespace pmdb
