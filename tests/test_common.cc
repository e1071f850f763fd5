/**
 * @file
 * Unit tests for the common utilities: address-range arithmetic,
 * deterministic RNG, zipfian generators, table rendering, the flag
 * parser and the JSON writer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "json_check.hh"

namespace pmdb
{
namespace
{

TEST(AddrRangeTest, BasicProperties)
{
    const AddrRange r(100, 200);
    EXPECT_EQ(r.size(), 100u);
    EXPECT_FALSE(r.empty());
    EXPECT_TRUE(r.contains(100));
    EXPECT_TRUE(r.contains(199));
    EXPECT_FALSE(r.contains(200));
    EXPECT_TRUE(AddrRange().empty());
    EXPECT_EQ(AddrRange::fromSize(64, 64), AddrRange(64, 128));
}

TEST(AddrRangeTest, OverlapIsSymmetricAndCorrect)
{
    const AddrRange a(0, 10);
    const AddrRange b(5, 15);
    const AddrRange c(10, 20);
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c)); // half-open: [0,10) and [10,20) touch
    EXPECT_TRUE(a.adjacentOrOverlapping(c));
    EXPECT_FALSE(a.overlaps(AddrRange()));
    EXPECT_FALSE(AddrRange().overlaps(a));
}

TEST(AddrRangeTest, ContainsAndIntersect)
{
    const AddrRange big(0, 100);
    const AddrRange small(10, 20);
    EXPECT_TRUE(big.contains(small));
    EXPECT_FALSE(small.contains(big));
    EXPECT_EQ(big.intersect(small), small);
    EXPECT_EQ(AddrRange(0, 10).intersect(AddrRange(5, 15)),
              AddrRange(5, 10));
    EXPECT_TRUE(AddrRange(0, 5).intersect(AddrRange(10, 15)).empty());
}

TEST(AddrRangeTest, UnionWith)
{
    EXPECT_EQ(AddrRange(0, 10).unionWith(AddrRange(5, 20)),
              AddrRange(0, 20));
    EXPECT_EQ(AddrRange().unionWith(AddrRange(3, 7)), AddrRange(3, 7));
    EXPECT_EQ(AddrRange(3, 7).unionWith(AddrRange()), AddrRange(3, 7));
}

TEST(CacheLineTest, BaseAndIndex)
{
    EXPECT_EQ(cacheLineBase(0), 0u);
    EXPECT_EQ(cacheLineBase(63), 0u);
    EXPECT_EQ(cacheLineBase(64), 64u);
    EXPECT_EQ(cacheLineIndex(127), 1u);
    EXPECT_EQ(cacheLineIndex(128), 2u);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, BernoulliRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.02);
}

TEST(ZipfianTest, StaysInRangeAndIsSkewed)
{
    ZipfianGenerator zipf(1000, 0.99, 5);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t v = zipf.next();
        ASSERT_LT(v, 1000u);
        ++counts[v];
    }
    // Rank-0 should be far more popular than the median rank.
    EXPECT_GT(counts[0], 50 * std::max(1, counts[500]));
}

TEST(ZipfianTest, ScrambledCoversSpace)
{
    ScrambledZipfianGenerator zipf(1000, 5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = zipf.next();
        ASSERT_LT(v, 1000u);
        seen.insert(v);
    }
    // Scrambling should spread the hot set across the key space.
    EXPECT_GT(seen.size(), 200u);
}

TEST(ZipfianTest, LargeKeySpaceConstructsQuickly)
{
    ZipfianGenerator zipf(100'000'000ULL, 0.99, 1);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(zipf.next(), 100'000'000ULL);
}

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer-name", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTableTest, PadsShortRows)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"only-one"});
    EXPECT_NE(table.render().find("only-one"), std::string::npos);
}

TEST(FormatTest, Helpers)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtFactor(2.5), "2.5x");
    EXPECT_EQ(fmtPercent(12.34), "12.3%");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
}

TEST(LogLevelTest, ParsesKnownNames)
{
    LogLevel level = LogLevel::Warn;
    EXPECT_TRUE(parseLogLevel("debug", &level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("INFO", &level));
    EXPECT_EQ(level, LogLevel::Info);
    EXPECT_TRUE(parseLogLevel("Warning", &level));
    EXPECT_EQ(level, LogLevel::Warn);
    EXPECT_TRUE(parseLogLevel("error", &level));
    EXPECT_EQ(level, LogLevel::Error);
    EXPECT_TRUE(parseLogLevel("off", &level));
    EXPECT_EQ(level, LogLevel::None);
    EXPECT_TRUE(parseLogLevel("none", &level));
    EXPECT_EQ(level, LogLevel::None);
}

TEST(LogLevelTest, RejectsUnknownNames)
{
    LogLevel level = LogLevel::Info;
    EXPECT_FALSE(parseLogLevel("loud", &level));
    EXPECT_FALSE(parseLogLevel("", &level));
    // The out-param is untouched on failure.
    EXPECT_EQ(level, LogLevel::Info);
}

TEST(Mix64Test, IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(1), mix64(1));
    std::set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

/** Run @p flags over "tool <args...>" from index 1. */
int
parseArgs(cli::FlagSet &flags, std::vector<std::string> args)
{
    args.insert(args.begin(), "tool");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return flags.parse(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(FlagSetTest, StoresEveryKind)
{
    bool on = false;
    bool off = true;
    std::string name;
    std::size_t count = 0;
    double ratio = 0.0;
    cli::FlagSet flags("tool", {"[options]"});
    flags.flag("--on", "set", &on)
        .flag("--off", "clear", &off, false)
        .option("--name S", "string", &name)
        .option("--count N", "unsigned", &count)
        .option("--ratio R", "double", &ratio);
    EXPECT_EQ(parseArgs(flags, {"--on", "--off", "--name", "-x", "--count",
                                "42", "--ratio", "0.25"}),
              cli::exitOk);
    EXPECT_TRUE(on);
    EXPECT_FALSE(off);
    EXPECT_EQ(name, "-x");
    EXPECT_EQ(count, 42u);
    EXPECT_EQ(ratio, 0.25);
}

TEST(FlagSetTest, RejectsUnknownMissingAndStray)
{
    std::string name;
    cli::FlagSet flags("tool", {"[options]"});
    flags.option("--name S", "string", &name);
    EXPECT_EQ(parseArgs(flags, {"--nmae", "x"}), cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {"--name"}), cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {"--name", "x", "stray"}), cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {}), cli::exitOk);
}

TEST(FlagSetTest, UnsignedIsStrictAndRangeChecked)
{
    std::uint32_t slots = 7;
    std::uint64_t wide = 0;
    cli::FlagSet flags("tool", {"[options]"});
    flags.option("--slots N", "bounded", &slots, 1, 4)
        .option("--wide N", "full range", &wide);
    EXPECT_EQ(parseArgs(flags, {"--slots", "1"}), cli::exitOk);
    EXPECT_EQ(slots, 1u);
    EXPECT_EQ(parseArgs(flags, {"--slots", "4"}), cli::exitOk);
    EXPECT_EQ(slots, 4u);
    for (const char *bad : {"0", "5", "-1", "abc", "3x", "", " 3", "+3"})
        EXPECT_EQ(parseArgs(flags, {"--slots", bad}), cli::exitUsage) << bad;
    EXPECT_EQ(slots, 4u);

    EXPECT_EQ(parseArgs(flags, {"--wide", "18446744073709551615"}),
              cli::exitOk);
    EXPECT_EQ(wide, UINT64_MAX);
    EXPECT_EQ(parseArgs(flags, {"--wide", "18446744073709551616"}),
              cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {"--wide", "-1"}), cli::exitUsage);
    EXPECT_EQ(wide, UINT64_MAX);
}

TEST(FlagSetTest, TypeBoundsTheDefaultRange)
{
    std::uint32_t narrow = 0;
    int threads = 0;
    cli::FlagSet flags("tool", {"[options]"});
    flags.option("--narrow N", "32-bit", &narrow)
        .option("--threads N", "int", &threads);
    EXPECT_EQ(parseArgs(flags, {"--narrow", "4294967295"}), cli::exitOk);
    EXPECT_EQ(parseArgs(flags, {"--narrow", "4294967296"}),
              cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {"--threads", "2147483648"}),
              cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {"--threads", "-2"}), cli::exitUsage);
    EXPECT_EQ(narrow, 4294967295u);
    EXPECT_EQ(threads, 0);
}

TEST(FlagSetTest, DoubleRejectsGarbage)
{
    double ratio = 0.5;
    cli::FlagSet flags("tool", {"[options]"});
    flags.option("--ratio R", "double", &ratio);
    for (const char *bad : {"x", "0.5x", ""})
        EXPECT_EQ(parseArgs(flags, {"--ratio", bad}), cli::exitUsage) << bad;
    EXPECT_EQ(ratio, 0.5);
    EXPECT_EQ(parseArgs(flags, {"--ratio", "1e-3"}), cli::exitOk);
    EXPECT_EQ(ratio, 1e-3);
}

TEST(FlagSetTest, RepeatedCallbackAccumulates)
{
    std::vector<std::string> faults;
    cli::FlagSet flags("tool", {"[options]"});
    flags.option("--fault NAME", "repeatable",
                 [&](const std::string &name) {
                     faults.push_back(name);
                     return cli::exitOk;
                 });
    EXPECT_EQ(parseArgs(flags, {"--fault", "a", "--fault", "b"}),
              cli::exitOk);
    EXPECT_EQ(faults, (std::vector<std::string>{"a", "b"}));
}

TEST(FlagSetTest, CallbackRejectionPropagates)
{
    cli::FlagSet flags("tool", {"[options]"});
    flags.option("--mode a|b", "usage-rejected",
                 [](const std::string &mode) {
                     return mode == "a" || mode == "b" ? cli::exitOk
                                                       : cli::exitUsage;
                 })
        .option("--case NAME", "own exit code",
                [](const std::string &) { return cli::exitUnknownName; });
    EXPECT_EQ(parseArgs(flags, {"--mode", "b"}), cli::exitOk);
    EXPECT_EQ(parseArgs(flags, {"--mode", "c"}), cli::exitUsage);
    EXPECT_EQ(parseArgs(flags, {"--case", "x"}), cli::exitUnknownName);
}

TEST(FlagSetTest, PositionalNumbersAreStrict)
{
    cli::FlagSet flags("tool", {"<ops>"});
    std::size_t ops = 9;
    EXPECT_EQ(flags.positional("<ops>", "abc", &ops), cli::exitUsage);
    EXPECT_EQ(flags.positional("<ops>", "-1", &ops), cli::exitUsage);
    EXPECT_EQ(ops, 9u);
    EXPECT_EQ(flags.positional("<ops>", "100", &ops), cli::exitOk);
    EXPECT_EQ(ops, 100u);
}

TEST(JsonWriterTest, CompactLayoutAndNesting)
{
    JsonWriter out;
    out.beginObject()
        .field("n", 3)
        .field("s", "say \"hi\"\n")
        .field("ok", true)
        .key("empty")
        .beginArray()
        .endArray()
        .key("xs")
        .beginArray()
        .value(1)
        .beginObject()
        .field("k", false)
        .endObject()
        .raw("{\"pre\": 1}")
        .endArray()
        .endObject();
    EXPECT_EQ(out.str(),
              "{\"n\": 3, \"s\": \"say \\\"hi\\\"\\n\", \"ok\": true, "
              "\"empty\": [], \"xs\": [1, {\"k\": false}, {\"pre\": 1}]}");
    EXPECT_TRUE(parsesAsJson(out.str()));
}

TEST(JsonWriterTest, NumbersAreExactAndShortest)
{
    JsonWriter out;
    out.beginArray()
        .value(UINT64_MAX)
        .value(std::int64_t{-5})
        .value(1.0)
        .value(0.1)
        .value(1.0 / 3.0)
        .value(1e21)
        .value(std::numeric_limits<double>::quiet_NaN())
        .endArray();
    EXPECT_EQ(out.str(), "[18446744073709551615, -5, 1.0, 0.1, "
                         "0.3333333333333333, 1e+21, null]");
    EXPECT_TRUE(parsesAsJson(out.str()));
}

} // namespace
} // namespace pmdb
