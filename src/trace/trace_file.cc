#include "trace/trace_file.hh"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

namespace pmdb
{

namespace
{

// Version 2: EventKind gained Load (renumbering the packed kind byte)
// and PackedEvent gained the shared-pool global clock field. Version-1
// files, and files of the retired count-headed batch format, are
// rejected by magic rather than silently misdecoded.
constexpr char magic[8] = {'P', 'M', 'D', 'B', 'T', 'R', 'S', '2'};

/** Record tags. */
constexpr char nameTag = 'N';
constexpr char eventTag = 'E';

/** Longest name a reader accepts, so a corrupt length cannot size one. */
constexpr std::uint32_t maxNameBytes = 1u << 20;

/** Fixed-width on-disk event layout. */
struct PackedEvent
{
    std::uint8_t kind;
    std::uint8_t flushKind;
    std::int32_t thread;
    std::int32_t strand;
    std::uint32_t nameId;
    std::uint64_t addr;
    std::uint32_t size;
    std::uint64_t seq;
    std::uint64_t global;
};

constexpr std::size_t eventRecordBytes = 1 + sizeof(PackedEvent);

struct FileCloser
{
    void
    operator()(std::FILE *file) const
    {
        if (file)
            std::fclose(file);
    }
};

using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

template <typename T>
bool
writeValue(std::FILE *file, const T &value)
{
    return std::fwrite(&value, sizeof(T), 1, file) == 1;
}

/**
 * Sequential reads through a block buffer: one fread per block rather
 * than per record, which keeps loading a multi-gigabyte trace bound by
 * decoding, not by stdio call overhead.
 */
class BlockReader
{
  public:
    explicit BlockReader(std::FILE *file) : file_(file), block_(1 << 20)
    {
    }

    /** Copy the next @p size bytes to @p out; false if the file ends. */
    bool
    read(void *out, std::size_t size)
    {
        auto *dst = static_cast<char *>(out);
        while (size > end_ - pos_) {
            const std::size_t have = end_ - pos_;
            std::memcpy(dst, block_.data() + pos_, have);
            dst += have;
            size -= have;
            pos_ = 0;
            end_ = std::fread(block_.data(), 1, block_.size(), file_);
            if (end_ == 0)
                return false;
        }
        std::memcpy(dst, block_.data() + pos_, size);
        pos_ += size;
        return true;
    }

  private:
    std::FILE *file_;
    std::vector<char> block_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
};

PackedEvent
pack(const Event &event)
{
    PackedEvent packed{};
    packed.kind = static_cast<std::uint8_t>(event.kind);
    packed.flushKind = static_cast<std::uint8_t>(event.flushKind);
    packed.thread = event.thread;
    packed.strand = event.strand;
    packed.nameId = event.nameId;
    packed.addr = event.addr;
    packed.size = event.size;
    packed.seq = event.seq;
    packed.global = event.global;
    return packed;
}

/** Decode one record; malformedEvent() judges the result. */
Event
unpack(const PackedEvent &packed)
{
    Event event;
    event.kind = static_cast<EventKind>(packed.kind);
    event.flushKind = static_cast<FlushKind>(packed.flushKind);
    event.thread = packed.thread;
    event.strand = packed.strand;
    event.nameId = packed.nameId;
    event.addr = packed.addr;
    event.size = packed.size;
    event.seq = packed.seq;
    event.global = packed.global;
    return event;
}

} // namespace

TraceStreamWriter::~TraceStreamWriter()
{
    close();
}

bool
TraceStreamWriter::open(const std::string &path, std::string *error)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return fail(error, "cannot open " + path + " for writing");
    events_ = 0;
    names_ = 0;
    if (std::fwrite(magic, sizeof(magic), 1, file_) != 1) {
        close();
        return fail(error, "write failed: magic");
    }
    return true;
}

bool
TraceStreamWriter::appendName(std::uint32_t id, const std::string &name)
{
    if (!file_ || id != names_)
        return false;
    const auto len = static_cast<std::uint32_t>(name.size());
    if (std::fputc(nameTag, file_) == EOF || !writeValue(file_, id) ||
        !writeValue(file_, len) ||
        (len && std::fwrite(name.data(), 1, len, file_) != len)) {
        return false;
    }
    ++names_;
    return true;
}

bool
TraceStreamWriter::syncNames(const NameTable &names)
{
    while (names_ < names.size()) {
        if (!appendName(names_, names.name(names_)))
            return false;
    }
    return true;
}

bool
TraceStreamWriter::append(const Event &event)
{
    if (!file_)
        return false;
    char record[eventRecordBytes];
    record[0] = eventTag;
    const PackedEvent packed = pack(event);
    std::memcpy(record + 1, &packed, sizeof(packed));
    if (std::fwrite(record, sizeof(record), 1, file_) != 1)
        return false;
    ++events_;
    return true;
}

bool
TraceStreamWriter::flush()
{
    return file_ && std::fflush(file_) == 0;
}

bool
TraceStreamWriter::close()
{
    if (!file_)
        return true;
    const bool ok = std::fflush(file_) == 0;
    std::fclose(file_);
    file_ = nullptr;
    return ok;
}

bool
writeTraceFile(const std::string &path, const std::vector<Event> &events,
               const NameTable &names, std::string *error)
{
    TraceStreamWriter writer;
    if (!writer.open(path, error))
        return false;
    bool ok = writer.syncNames(names);
    for (std::size_t i = 0; ok && i < events.size(); ++i)
        ok = writer.append(events[i]);
    if (!writer.close() || !ok)
        return fail(error, "write failed: " + path);
    return true;
}

bool
readTrace(const std::string &path, LoadedTrace *out, bool *truncated,
          std::string *error)
{
    if (truncated)
        *truncated = false;
    FileHandle file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return fail(error, "cannot open " + path);
    BlockReader in(file.get());

    char header[sizeof(magic)] = {};
    if (!in.read(header, sizeof(header)) ||
        std::memcmp(header, magic, sizeof(header)) != 0) {
        return fail(error, path + " is not a PMDB trace (bad magic)");
    }

    // The file length bounds the event count, so it can size the
    // vector without trusting anything the file says.
    out->events.clear();
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (!ec)
        out->events.reserve(bytes / eventRecordBytes);

    const auto tail = [&] {
        if (truncated)
            *truncated = true;
        return true;
    };
    for (;;) {
        char tag = 0;
        if (!in.read(&tag, 1))
            return true; // clean end: file stops at a record boundary
        if (tag == eventTag) {
            PackedEvent packed{};
            if (!in.read(&packed, sizeof(packed)))
                return tail();
            const Event event = unpack(packed);
            if (const char *why =
                    malformedEvent(event, out->names.size())) {
                return fail(error, "corrupt trace: event seq " +
                                       std::to_string(event.seq) + ": " +
                                       why);
            }
            out->events.push_back(event);
        } else if (tag == nameTag) {
            std::uint32_t id = 0;
            std::uint32_t len = 0;
            if (!in.read(&id, sizeof(id)) || !in.read(&len, sizeof(len)))
                return tail();
            if (len > maxNameBytes)
                return fail(error, "corrupt trace: name length");
            std::string name(len, '\0');
            if (!in.read(name.data(), len))
                return tail();
            if (id != out->names.size())
                return fail(error, "corrupt trace: name id order");
            out->names.intern(name);
        } else {
            return fail(error, "corrupt trace: unknown record tag");
        }
    }
}

} // namespace pmdb
