#include "service/spsc_ring.hh"

#include <cstdio>
#include <cstring>
#include <new>
#include <type_traits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pmdb
{

namespace
{

static_assert(std::is_trivially_copyable_v<Event>,
              "ring slots are raw shared memory");

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

std::size_t
ringBytes(std::uint32_t slots)
{
    return sizeof(RingHeader) +
           static_cast<std::size_t>(slots) * sizeof(Event);
}

} // namespace

EventRing::~EventRing()
{
    close();
}

bool
EventRing::create(const std::string &path, std::uint32_t slots,
                  std::string *error)
{
    close();
    if (!slots)
        return fail(error, "ring needs at least one slot");
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd < 0)
        return fail(error, "cannot create ring file " + path);
    const std::size_t bytes = ringBytes(slots);
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        ::close(fd);
        return fail(error, "cannot size ring file " + path);
    }
    void *map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map == MAP_FAILED)
        return fail(error, "cannot map ring file " + path);

    header_ = new (map) RingHeader;
    std::memcpy(header_->magic, ringMagic, sizeof(ringMagic));
    header_->slots = slots;
    header_->head.store(0, std::memory_order_relaxed);
    header_->tail.store(0, std::memory_order_relaxed);
    header_->lastPublishNs.store(0, std::memory_order_relaxed);
    header_->producerDone.store(0, std::memory_order_release);
    slotsBase_ = reinterpret_cast<Event *>(
        reinterpret_cast<std::uint8_t *>(map) + sizeof(RingHeader));
    mapBytes_ = bytes;
    slots_ = slots;
    cachedTail_ = 0;
    cachedHead_ = 0;
    path_ = path;
    owner_ = true;
    return true;
}

bool
EventRing::open(const std::string &path, std::string *error)
{
    close();
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0)
        return fail(error, "cannot open ring file " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < sizeof(RingHeader)) {
        ::close(fd);
        return fail(error, "ring file too small: " + path);
    }
    const auto bytes = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return fail(error, "cannot map ring file " + path);

    auto *header = reinterpret_cast<RingHeader *>(map);
    if (std::memcmp(header->magic, ringMagic, sizeof(ringMagic)) != 0 ||
        !header->slots || ringBytes(header->slots) > bytes) {
        ::munmap(map, bytes);
        return fail(error, "not a ring file: " + path);
    }
    header_ = header;
    slotsBase_ = reinterpret_cast<Event *>(
        reinterpret_cast<std::uint8_t *>(map) + sizeof(RingHeader));
    mapBytes_ = bytes;
    slots_ = header->slots;
    cachedTail_ = header->tail.load(std::memory_order_relaxed);
    cachedHead_ = header->head.load(std::memory_order_relaxed);
    path_ = path;
    owner_ = false;
    return true;
}

void
EventRing::close()
{
    if (!header_)
        return;
    ::munmap(header_, mapBytes_);
    if (owner_)
        std::remove(path_.c_str());
    header_ = nullptr;
    slotsBase_ = nullptr;
    mapBytes_ = 0;
    slots_ = 0;
    cachedTail_ = 0;
    cachedHead_ = 0;
    owner_ = false;
}

std::size_t
EventRing::tryPushBatch(const Event *events, std::size_t count)
{
    const std::uint64_t head =
        header_->head.load(std::memory_order_relaxed);
    std::uint64_t free = slots_ - (head - cachedTail_);
    if (free < count) {
        // The cached tail makes the ring look too full for the whole
        // frame; pay the cross-line read and retry against the truth.
        cachedTail_ = header_->tail.load(std::memory_order_acquire);
        free = slots_ - (head - cachedTail_);
    }
    const std::size_t accept =
        count < free ? count : static_cast<std::size_t>(free);
    if (!accept)
        return 0;
    // The frame occupies [head, head + accept): at most two contiguous
    // spans of the slot array (one wrap).
    const std::size_t at = static_cast<std::size_t>(head % slots_);
    const std::size_t firstSpan =
        std::min<std::size_t>(accept, slots_ - at);
    std::memcpy(slotsBase_ + at, events, firstSpan * sizeof(Event));
    if (firstSpan < accept) {
        std::memcpy(slotsBase_, events + firstSpan,
                    (accept - firstSpan) * sizeof(Event));
    }
    header_->head.store(head + accept, std::memory_order_release);
    return accept;
}

std::size_t
EventRing::popBatch(Event *out, std::size_t max)
{
    const std::uint64_t tail =
        header_->tail.load(std::memory_order_relaxed);
    if (cachedHead_ == tail) {
        // Ring looks empty through the cache; read the shared head.
        cachedHead_ = header_->head.load(std::memory_order_acquire);
        if (cachedHead_ == tail)
            return 0;
    }
    if (corrupt_ || cachedHead_ - tail > slots_) {
        // More published than the ring holds: the producer forged its
        // cursor, and copying that many would read past the slots.
        corrupt_ = true;
        return 0;
    }
    std::size_t count = static_cast<std::size_t>(cachedHead_ - tail);
    if (count > max)
        count = max;
    const std::size_t at = static_cast<std::size_t>(tail % slots_);
    const std::size_t firstSpan =
        std::min<std::size_t>(count, slots_ - at);
    std::memcpy(out, slotsBase_ + at, firstSpan * sizeof(Event));
    if (firstSpan < count) {
        std::memcpy(out + firstSpan, slotsBase_,
                    (count - firstSpan) * sizeof(Event));
    }
    header_->tail.store(tail + count, std::memory_order_release);
    return count;
}

std::size_t
EventRing::size() const
{
    const std::uint64_t tail =
        header_->tail.load(std::memory_order_acquire);
    const std::uint64_t head =
        header_->head.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head - tail);
}

void
EventRing::markProducerDone()
{
    header_->producerDone.store(1, std::memory_order_release);
}

bool
EventRing::producerDone() const
{
    return header_->producerDone.load(std::memory_order_acquire) != 0;
}

void
EventRing::stampPublish(std::uint64_t ns)
{
    header_->lastPublishNs.store(ns, std::memory_order_relaxed);
}

std::uint64_t
EventRing::lastPublishNs() const
{
    return header_->lastPublishNs.load(std::memory_order_relaxed);
}

} // namespace pmdb
