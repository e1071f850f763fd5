/**
 * @file
 * The two byte sources a recovery walk reads from.
 *
 * Each recovery check (undo-log rollback, a workload's structural
 * oracle) is written once as a template over a reader, and runs on
 * either source:
 *
 *  - ImageReader: a raw crash image. Crash-state exploration verifies
 *    thousands of images per second, so reads are plain memcpy — no
 *    pool is built per candidate.
 *  - PoolReader: a reopened PmemPool. Reads go through
 *    PmemPool::readBytes, so every byte recovery depends on lands in
 *    the model checker's read set (read-set pruning).
 *
 * Both expose size() and read(addr, out, size); callers bounds-check
 * against size() before reading, and read typed values with loadAs().
 */

#ifndef PMDB_PMDK_READER_HH
#define PMDB_PMDK_READER_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "pmdk/pool.hh"

namespace pmdb
{

/** Uninstrumented reads from a crash image. */
struct ImageReader
{
    const std::vector<std::uint8_t> &image;

    std::size_t size() const { return image.size(); }

    void
    read(Addr addr, void *out, std::size_t size) const
    {
        std::memcpy(out, image.data() + addr, size);
    }
};

/** Read-set-recording reads from a reopened pool. */
struct PoolReader
{
    const PmemPool &pool;

    std::size_t size() const { return pool.device().size(); }

    void
    read(Addr addr, void *out, std::size_t size) const
    {
        pool.readBytes(addr, out, size);
    }
};

/** Read a trivially copyable @p T at @p addr through either reader. */
template <typename T, typename Reader>
T
loadAs(const Reader &reader, Addr addr)
{
    T value;
    reader.read(addr, &value, sizeof(T));
    return value;
}

} // namespace pmdb

#endif // PMDB_PMDK_READER_HH
