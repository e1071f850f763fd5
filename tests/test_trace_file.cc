/**
 * @file
 * Tests for the on-disk trace format and the record/replay workflow,
 * plus the JSON report rendering and the Persistence Inspector model
 * (the post-mortem consumers of saved traces).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/report.hh"
#include "detectors/persistence_inspector.hh"
#include "detectors/registry.hh"
#include "json_check.hh"
#include "trace/recorder.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

/** Temp-file helper that cleans up after itself. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }

    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

TEST(TraceFileTest, RoundTripPreservesEverything)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.registerPmem("var.a", 0x40, 8);
    runtime.store(0x40, 8);
    runtime.flush(0x40, 64, FlushKind::Clflushopt);
    runtime.strandBegin(2);
    runtime.store(0x80, 16, /*thread=*/3);
    runtime.strandEnd(2);
    runtime.fence();
    runtime.programEnd();

    TempPath path("roundtrip.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(path.str(), recorder.events(),
                               runtime.names(), &error))
        << error;

    LoadedTrace loaded;
    bool truncated = true;
    ASSERT_TRUE(readTrace(path.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_FALSE(truncated);
    ASSERT_EQ(loaded.events.size(), recorder.events().size());
    for (std::size_t i = 0; i < loaded.events.size(); ++i) {
        const Event &a = recorder.events()[i];
        const Event &b = loaded.events[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.flushKind, b.flushKind) << i;
        EXPECT_EQ(a.thread, b.thread) << i;
        EXPECT_EQ(a.strand, b.strand) << i;
        EXPECT_EQ(a.nameId, b.nameId) << i;
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.size, b.size) << i;
        EXPECT_EQ(a.seq, b.seq) << i;
        EXPECT_EQ(a.global, b.global) << i;
    }
    EXPECT_EQ(loaded.names.size(), 1u);
    EXPECT_EQ(loaded.names.name(0), "var.a");
}

TEST(TraceFileTest, RejectsBadMagic)
{
    TempPath path("bad.trc");
    std::FILE *file = std::fopen(path.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite("NOTATRACE", 1, 9, file);
    std::fclose(file);

    LoadedTrace loaded;
    std::string error;
    EXPECT_FALSE(readTrace(path.str(), &loaded, nullptr, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(TraceFileTest, MissingFileFailsGracefully)
{
    LoadedTrace loaded;
    std::string error;
    EXPECT_FALSE(readTrace("/nonexistent/dir/x.trc", &loaded, nullptr,
                           &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceFileTest, ReplayFindsSameBugsAsLiveRun)
{
    // Record a buggy workload, then replay the saved trace through a
    // fresh detector: identical verdicts.
    PmRuntime runtime;
    TraceRecorder recorder;
    auto live = makeDetector("pmemcheck");
    runtime.attach(&recorder);
    runtime.attach(live.get());

    auto workload = makeWorkload("hashmap_atomic");
    WorkloadOptions options;
    options.operations = 200;
    options.faults.enable("hmatomic_skip_entry_flush");
    workload->run(runtime, options);
    live->finalize();

    TempPath path("replay.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(path.str(), recorder.events(),
                               runtime.names(), &error))
        << error;
    LoadedTrace loaded;
    ASSERT_TRUE(readTrace(path.str(), &loaded, nullptr, &error)) << error;

    auto replayed = makeDetector("pmemcheck");
    replayed->attached(loaded.names);
    TraceReplayer replayer(loaded.events);
    replayer.replay(*replayed);
    replayed->finalize();

    EXPECT_EQ(replayed->bugs().total(), live->bugs().total());
    EXPECT_EQ(replayed->bugs().countOf(BugType::NoDurability),
              live->bugs().countOf(BugType::NoDurability));
}

TEST(TraceStreamTest, RoundTripWithInterleavedNames)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.registerPmem("stream.a", 0x40, 8);
    runtime.store(0x40, 8);
    runtime.flush(0x40, 64);
    runtime.fence();
    runtime.registerPmem("stream.b", 0x80, 16);
    runtime.store(0x80, 16, /*thread=*/2);
    runtime.programEnd();

    TempPath path("stream.trs");
    TraceStreamWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path.str(), &error)) << error;
    // Names are appended as soon as they appear, interleaved with the
    // events that reference them — the live-spill write pattern.
    for (const Event &event : recorder.events()) {
        ASSERT_TRUE(writer.syncNames(runtime.names()));
        ASSERT_TRUE(writer.append(event));
        ASSERT_TRUE(writer.flush());
    }
    EXPECT_EQ(writer.eventsWritten(), recorder.events().size());
    ASSERT_TRUE(writer.close());

    LoadedTrace loaded;
    bool truncated = true;
    ASSERT_TRUE(readTrace(path.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_FALSE(truncated);
    ASSERT_EQ(loaded.events.size(), recorder.events().size());
    for (std::size_t i = 0; i < loaded.events.size(); ++i) {
        EXPECT_EQ(loaded.events[i].kind, recorder.events()[i].kind) << i;
        EXPECT_EQ(loaded.events[i].addr, recorder.events()[i].addr) << i;
        EXPECT_EQ(loaded.events[i].seq, recorder.events()[i].seq) << i;
    }
    ASSERT_EQ(loaded.names.size(), 2u);
    EXPECT_EQ(loaded.names.name(0), "stream.a");
    EXPECT_EQ(loaded.names.name(1), "stream.b");
}

TEST(TraceStreamTest, RecoversTruncatedTail)
{
    TempPath path("truncated.trs");
    TraceStreamWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path.str(), &error)) << error;
    ASSERT_TRUE(writer.appendName(0, "var"));
    for (int i = 0; i < 10; ++i) {
        Event event;
        event.kind = EventKind::Store;
        event.addr = 0x100 + 8u * static_cast<unsigned>(i);
        event.size = 8;
        event.seq = static_cast<SeqNum>(i + 1);
        ASSERT_TRUE(writer.append(event));
    }
    ASSERT_TRUE(writer.close());

    // Chop the file mid-record, as a crash would.
    std::FILE *file = std::fopen(path.str().c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    std::error_code ec;
    std::filesystem::resize_file(path.str(),
                                 static_cast<std::uintmax_t>(size - 7),
                                 ec);
    ASSERT_FALSE(ec) << ec.message();

    LoadedTrace loaded;
    bool truncated = false;
    ASSERT_TRUE(readTrace(path.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_TRUE(truncated);
    // The partial final record is dropped; everything before survives.
    EXPECT_EQ(loaded.events.size(), 9u);
    EXPECT_EQ(loaded.events.back().seq, 9u);
    EXPECT_EQ(loaded.names.size(), 1u);
}

TEST(TraceFileTest, RecordedTraceRecoversTruncatedTail)
{
    // A recorded trace cut mid-record (the recorder was killed) loads
    // its longest valid prefix, names included, like a spill file.
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.registerPmem("var.a", 0x200, 40);
    for (int i = 0; i < 5; ++i)
        runtime.store(0x200 + 8u * static_cast<unsigned>(i), 8);
    runtime.drain();
    TempPath path("recorded_truncated.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(path.str(), recorder.events(),
                               runtime.names(), &error))
        << error;
    const auto full = std::filesystem::file_size(path.str());
    std::error_code ec;
    std::filesystem::resize_file(path.str(), full - 3, ec);
    ASSERT_FALSE(ec) << ec.message();

    LoadedTrace recovered;
    bool truncated = false;
    ASSERT_TRUE(readTrace(path.str(), &recovered, &truncated, &error))
        << error;
    EXPECT_TRUE(truncated);
    EXPECT_EQ(recovered.events.size(), 5u);
    ASSERT_EQ(recovered.names.size(), 1u);
    EXPECT_EQ(recovered.names.name(0), "var.a");

    // Garbage is rejected, not misparsed.
    TempPath junk("junk.bin");
    std::FILE *file = std::fopen(junk.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("notatrace!", file);
    std::fclose(file);
    LoadedTrace loaded;
    EXPECT_FALSE(readTrace(junk.str(), &loaded, nullptr, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

/** Records no writer produces, by what is wrong with them. */
std::vector<std::pair<std::string, Event>>
corruptEvents()
{
    Event kind;
    kind.kind = static_cast<EventKind>(200);
    Event flush_kind;
    flush_kind.kind = EventKind::Flush;
    flush_kind.flushKind = static_cast<FlushKind>(7);
    flush_kind.addr = 0x40;
    flush_kind.size = 64;
    Event wraps;
    wraps.kind = EventKind::Store;
    wraps.addr = ~Addr(0) - 3;
    wraps.size = 8;
    Event name;
    name.kind = EventKind::RegisterPmem;
    name.nameId = 424242;
    name.addr = 0x40;
    name.size = 8;
    return {{"kind", kind},
            {"flush kind", flush_kind},
            {"range wraps", wraps},
            {"name id", name}};
}

TEST(TraceFileTest, RejectsCorruptEventRecords)
{
    NameTable names;
    names.intern("var.a");
    for (const auto &[what, event] : corruptEvents()) {
        TempPath path("corrupt.trc");
        std::string error;
        ASSERT_TRUE(writeTraceFile(path.str(), {event}, names, &error))
            << error;
        LoadedTrace loaded;
        EXPECT_FALSE(readTrace(path.str(), &loaded, nullptr, &error))
            << what;
        EXPECT_NE(error.find("corrupt"), std::string::npos) << what;
    }
}

TEST(TraceStreamTest, RejectsCorruptEventRecords)
{
    for (const auto &[what, event] : corruptEvents()) {
        TempPath path("corrupt.trs");
        TraceStreamWriter writer;
        std::string error;
        ASSERT_TRUE(writer.open(path.str(), &error)) << error;
        // A corrupt record after valid ones is corruption, not a tail.
        ASSERT_TRUE(writer.append(Event{}));
        ASSERT_TRUE(writer.append(event));
        ASSERT_TRUE(writer.close());
        LoadedTrace loaded;
        EXPECT_FALSE(readTrace(path.str(), &loaded, nullptr, &error))
            << what;
        EXPECT_NE(error.find("corrupt"), std::string::npos) << what;
    }
}

TEST(TraceFileTest, RejectsCorruptNameAndTagRecords)
{
    const auto rejects = [](const std::string &bytes) {
        TempPath path("corrupt_record.trc");
        std::FILE *file = std::fopen(path.str().c_str(), "wb");
        if (!file)
            return false;
        std::fwrite("PMDBTRS2", 1, 8, file);
        std::fwrite(bytes.data(), 1, bytes.size(), file);
        std::fclose(file);
        LoadedTrace loaded;
        std::string error;
        return !readTrace(path.str(), &loaded, nullptr, &error) &&
               error.find("corrupt") != std::string::npos;
    };
    const std::string z4("\0\0\0\0", 4);
    EXPECT_TRUE(rejects("X")) << "unknown tag";
    EXPECT_TRUE(rejects("N" + std::string("\1\0\0\0", 4) + z4))
        << "name id 1 before id 0";
    EXPECT_TRUE(rejects("N" + z4 + std::string("\0\0\0\1", 4)))
        << "16 MiB name";
}

TEST(TraceFileTest, SeededNamesCoverEventsOfANamelessFile)
{
    // A pmdbd spill file carries no names: the daemon seeds the ones
    // its session interned, and only those may be referenced.
    NameTable session;
    session.intern("var.a");
    session.intern("var.b");
    for (const std::uint32_t id : {1u, 2u}) {
        TempPath path("nameless.trs");
        TraceStreamWriter writer;
        std::string error;
        ASSERT_TRUE(writer.open(path.str(), &error)) << error;
        Event event;
        event.kind = EventKind::RegisterPmem;
        event.nameId = id;
        event.addr = 0x40;
        event.size = 8;
        ASSERT_TRUE(writer.append(event));
        ASSERT_TRUE(writer.close());
        LoadedTrace loaded;
        loaded.names = session;
        EXPECT_EQ(readTrace(path.str(), &loaded, nullptr, &error),
                  id < session.size())
            << "name id " << id << ": " << error;
    }
}

TEST(PersistenceInspectorTest, PostMortemFindsDurabilityBugs)
{
    PmRuntime runtime;
    PersistenceInspector inspector;
    runtime.attach(&inspector);
    runtime.store(0x100, 8); // missing CLF
    runtime.fence();
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    runtime.flush(0x200, 64); // excessive flush
    runtime.fence();
    runtime.epochBegin();
    runtime.txLog(0x300, 16);
    runtime.txLog(0x308, 8); // excessive logging
    runtime.fence();
    runtime.epochEnd();
    // Nothing is reported during collection...
    EXPECT_EQ(inspector.bugs().total(), 0u);
    EXPECT_GT(inspector.collectedEvents(), 0u);
    runtime.programEnd();
    // ...everything at analysis time.
    EXPECT_EQ(inspector.bugs().countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(inspector.bugs().countOf(BugType::RedundantFlush), 1u);
    EXPECT_EQ(inspector.bugs().countOf(BugType::RedundantLogging), 1u);
}

TEST(PersistenceInspectorTest, RegistryBuildsIt)
{
    auto detector = makeDetector("persistence_inspector");
    ASSERT_NE(detector, nullptr);
    EXPECT_TRUE(detector->isDbiBased());
}

TEST(JsonReportTest, EscapesAndStructures)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

    BugCollector bugs;
    BugReport report;
    report.type = BugType::NoDurability;
    report.range = AddrRange(16, 24);
    report.seq = 7;
    report.cause = DurabilityCause::MissingFlush;
    report.detail = "say \"hi\"";
    bugs.report(report);

    const std::string json = reportToJson(bugs);
    EXPECT_NE(json.find("\"total_sites\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"no-durability\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"start\": 16"), std::string::npos);
    EXPECT_NE(json.find("missing-flush"), std::string::npos);
    EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
    EXPECT_TRUE(parsesAsJson(json)) << json;
}

TEST(JsonReportTest, IncludesStats)
{
    BugCollector bugs;
    DebuggerStats stats;
    stats.stores = 10;
    stats.fences = 2;
    const std::string json = reportToJson(bugs, stats);
    EXPECT_NE(json.find("\"stores\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"fences\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"bugs\": []"), std::string::npos);
    EXPECT_TRUE(parsesAsJson(json)) << json;
}

} // namespace
} // namespace pmdb
