/**
 * @file
 * Unit tests for the simulated PM device: store/flush/fence
 * persistence semantics and crash-image materialization.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "pmem/device.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

/** Fixture wiring a device to a runtime, as PmemPool does. */
class DeviceTest : public ::testing::Test
{
  protected:
    DeviceTest() : device(1 << 16) { runtime.attach(&device); }

    void
    write64(Addr addr, std::uint64_t value)
    {
        device.write(addr, &value, sizeof(value));
        runtime.store(addr, sizeof(value));
    }

    std::uint64_t
    readPersisted64(Addr addr)
    {
        std::uint64_t value = 0;
        device.readPersisted(addr, &value, sizeof(value));
        return value;
    }

    std::uint64_t
    readPersistedFrom(const std::vector<std::uint8_t> &image, Addr addr)
    {
        std::uint64_t value = 0;
        std::memcpy(&value, image.data() + addr, sizeof(value));
        return value;
    }

    PmRuntime runtime;
    PmemDevice device;
};

TEST_F(DeviceTest, StoreIsVisibleVolatileButNotPersisted)
{
    write64(0x100, 0xabcd);
    std::uint64_t v = 0;
    device.read(0x100, &v, 8);
    EXPECT_EQ(v, 0xabcdu);
    EXPECT_EQ(readPersisted64(0x100), 0u);
    EXPECT_TRUE(device.hasDirty(AddrRange(0x100, 0x108)));
    EXPECT_FALSE(device.isDurable(AddrRange(0x100, 0x108)));
}

TEST_F(DeviceTest, FlushAloneDoesNotPersist)
{
    write64(0x100, 0xabcd);
    runtime.flush(0x100, 64);
    EXPECT_EQ(readPersisted64(0x100), 0u);
    EXPECT_TRUE(device.hasPendingFlush(AddrRange(0x100, 0x108)));
    EXPECT_FALSE(device.isDurable(AddrRange(0x100, 0x108)));
}

TEST_F(DeviceTest, FlushPlusFencePersists)
{
    write64(0x100, 0xabcd);
    runtime.flush(0x100, 64);
    runtime.fence();
    EXPECT_EQ(readPersisted64(0x100), 0xabcdu);
    EXPECT_TRUE(device.isDurable(AddrRange(0x100, 0x108)));
    EXPECT_EQ(device.pendingLineCount(), 0u);
}

TEST_F(DeviceTest, FenceWithoutFlushPersistsNothing)
{
    write64(0x100, 0xabcd);
    runtime.fence();
    EXPECT_EQ(readPersisted64(0x100), 0u);
    EXPECT_TRUE(device.hasDirty(AddrRange(0x100, 0x108)));
}

TEST_F(DeviceTest, RedirtyAfterFlushKeepsSnapshotSemantics)
{
    write64(0x100, 1);
    runtime.flush(0x100, 64);
    // Overwrite after the CLF: the queued writeback carries the bytes
    // at flush time; the new store re-dirties the line.
    write64(0x100, 2);
    runtime.fence();
    EXPECT_EQ(readPersisted64(0x100), 1u);
    EXPECT_TRUE(device.hasDirty(AddrRange(0x100, 0x108)));
}

TEST_F(DeviceTest, MultiLineWriteTracksEveryLine)
{
    std::uint8_t buf[192] = {0x5a};
    device.write(0x40, buf, sizeof(buf));
    runtime.store(0x40, sizeof(buf));
    EXPECT_TRUE(device.hasDirty(AddrRange(0x40, 0x48)));
    EXPECT_TRUE(device.hasDirty(AddrRange(0xc0, 0xc8)));
    runtime.flush(0x40, 64); // only the first line
    runtime.fence();
    EXPECT_FALSE(device.isDurable(AddrRange(0x40, 0x40 + 192)));
    EXPECT_TRUE(device.isDurable(AddrRange(0x40, 0x80)));
}

TEST_F(DeviceTest, CrashImageDropPendingExcludesUnfencedData)
{
    write64(0x100, 0x11);
    runtime.flush(0x100, 64);
    runtime.fence(); // durable

    write64(0x200, 0x22);
    runtime.flush(0x200, 64); // pending, never fenced

    write64(0x300, 0x33); // dirty, never flushed

    CrashSimulator sim(device);
    const auto image = sim.crashImage(CrashPolicy::DropPending);
    EXPECT_EQ(readPersistedFrom(image, 0x100), 0x11u);
    EXPECT_EQ(readPersistedFrom(image, 0x200), 0u);
    EXPECT_EQ(readPersistedFrom(image, 0x300), 0u);
}

TEST_F(DeviceTest, CrashImageCommitPendingIncludesFlushedData)
{
    write64(0x200, 0x22);
    runtime.flush(0x200, 64);
    write64(0x300, 0x33); // never flushed

    CrashSimulator sim(device);
    const auto image = sim.crashImage(CrashPolicy::CommitPending);
    EXPECT_EQ(readPersistedFrom(image, 0x200), 0x22u);
    EXPECT_EQ(readPersistedFrom(image, 0x300), 0u);
}

TEST_F(DeviceTest, JoinStrandDrainsPending)
{
    write64(0x100, 0x42);
    runtime.flush(0x100, 64);
    runtime.joinStrand();
    EXPECT_EQ(readPersisted64(0x100), 0x42u);
}

TEST_F(DeviceTest, ResetClearsEverything)
{
    write64(0x100, 0x42);
    runtime.flush(0x100, 64);
    runtime.fence();
    device.reset();
    std::uint64_t v = 1;
    device.read(0x100, &v, 8);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(readPersisted64(0x100), 0u);
    EXPECT_EQ(device.dirtyLineCount(), 0u);
    EXPECT_EQ(device.pendingLineCount(), 0u);
}

TEST(DeviceDeathTest, OutOfBoundsWritePanics)
{
    PmemDevice device(4096);
    std::uint64_t v = 1;
    EXPECT_DEATH(device.write(4095, &v, 8), "out-of-bounds");
}

} // namespace
} // namespace pmdb
