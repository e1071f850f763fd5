/**
 * @file
 * Tests of the layered benchmark's helpers: quantiles and the
 * tail-percentile rule, fingerprint-set comparison and pinned digests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "helpers.hh"

namespace perfbench
{
namespace
{

pmdb::BugReport
report(pmdb::BugType type, pmdb::Addr start, pmdb::Addr end)
{
    pmdb::BugReport bug;
    bug.type = type;
    bug.range = pmdb::AddrRange{start, end};
    return bug;
}

TEST(Quantile, NearestRank)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    EXPECT_EQ(quantile(values, 0.5), 50);
    EXPECT_EQ(quantile(values, 0.9), 90);
    EXPECT_EQ(quantile(values, 1.0), 100);
    EXPECT_EQ(quantile(values, 0.0), 1);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(quantile({}, 0.5), 0);
}

TEST(HighestReportablePercentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(highestReportablePercentile(0), 0.0);
    EXPECT_EQ(highestReportablePercentile(19), 0.0);
    EXPECT_EQ(highestReportablePercentile(20), 0.5);
    EXPECT_EQ(highestReportablePercentile(99), 0.5);
    EXPECT_EQ(highestReportablePercentile(100), 0.9);
    EXPECT_EQ(highestReportablePercentile(999), 0.9);
    EXPECT_EQ(highestReportablePercentile(1000), 0.99);
    EXPECT_EQ(highestReportablePercentile(10000), 0.999);
}

TEST(Fingerprints, SetIsSortedAndUnique)
{
    const FingerprintSet set = fingerprintSet(
        {report(pmdb::BugType::NoDurability, 128, 192),
         report(pmdb::BugType::NoDurability, 0, 64),
         report(pmdb::BugType::NoDurability, 128, 192)});
    ASSERT_EQ(set.size(), 2u);
    EXPECT_LT(set[0], set[1]);
    EXPECT_EQ(digest(set),
              digest(fingerprintSet(
                  {report(pmdb::BugType::NoDurability, 0, 64),
                   report(pmdb::BugType::NoDurability, 128, 192)})));
}

TEST(Fingerprints, CompareNamesMissingAndExtra)
{
    const FingerprintSet expected = fingerprintSet(
        {report(pmdb::BugType::NoDurability, 0, 64),
         report(pmdb::BugType::RedundantFlush, 64, 128)});
    EXPECT_EQ(compareFingerprints(expected, expected), "");

    const FingerprintSet actual = fingerprintSet(
        {report(pmdb::BugType::NoDurability, 0, 64),
         report(pmdb::BugType::FlushNothing, 256, 320)});
    const std::string diff = compareFingerprints(expected, actual);
    EXPECT_NE(diff.find("1 missing, 1 extra"), std::string::npos) << diff;
    // Same range, different rule: a different bug.
    EXPECT_NE(compareFingerprints(
                  fingerprintSet({report(pmdb::BugType::NoDurability, 0,
                                         64)}),
                  fingerprintSet({report(pmdb::BugType::MultipleOverwrite,
                                         0, 64)})),
              "");
}

class PinsTest : public ::testing::Test
{
  protected:
    std::string
    writePins(const std::string &text)
    {
        const std::string path =
            ::testing::TempDir() + "perfbench_pins_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::ofstream(path) << text;
        return path;
    }

    const FingerprintSet set = fingerprintSet(
        {report(pmdb::BugType::NoDurability, 0, 64),
         report(pmdb::BugType::NoDurability, 64, 128)});
};

TEST_F(PinsTest, MatchingPinPasses)
{
    char line[128];
    std::snprintf(line, sizeof(line), "# comment\nprog 2 %llx  # tail\n",
                  static_cast<unsigned long long>(digest(set)));
    std::map<std::string, Pin> pins;
    std::string error;
    ASSERT_TRUE(loadPins(writePins(line), &pins, &error)) << error;
    EXPECT_EQ(checkPin(pins, "prog", set), "");
}

TEST_F(PinsTest, WrongPinFails)
{
    char line[128];
    std::snprintf(line, sizeof(line), "prog 2 %llx\n",
                  static_cast<unsigned long long>(digest(set) ^ 1));
    std::map<std::string, Pin> pins;
    std::string error;
    ASSERT_TRUE(loadPins(writePins(line), &pins, &error)) << error;
    EXPECT_NE(checkPin(pins, "prog", set), "");
    EXPECT_NE(checkPin(pins, "other", set), ""); // no such pin
    // A right digest with a wrong count fails as well.
    pins["prog"] = Pin{3, digest(set)};
    EXPECT_NE(checkPin(pins, "prog", set), "");
}

TEST_F(PinsTest, MalformedFileIsRejected)
{
    std::map<std::string, Pin> pins;
    std::string error;
    EXPECT_FALSE(loadPins(writePins("prog 2\n"), &pins, &error));
    EXPECT_FALSE(loadPins(writePins("prog 2 xyz\n"), &pins, &error));
    EXPECT_FALSE(loadPins(writePins("prog 2 ab extra\n"), &pins, &error));
    EXPECT_FALSE(loadPins("/nonexistent/pins", &pins, &error));
}

TEST(SpanLog, SelfTimeExcludesChildren)
{
    SpanLog log(true);
    {
        ScopedSpan parent(log, "parent", 1);
        ScopedSpan child(log, "child", 1, parent.handle());
    }
    const auto self = log.selfSeconds();
    ASSERT_EQ(self.size(), 2u);
    EXPECT_GE(self.at("parent"), 0.0);
    EXPECT_GE(self.at("child"), 0.0);

    SpanLog off(false);
    EXPECT_EQ(off.begin("x", 0), SpanLog::noParent);
    EXPECT_EQ(off.size(), 0u);
}

} // namespace
} // namespace perfbench
