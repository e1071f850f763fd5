/**
 * @file
 * Unit tests for the baseline detector models (Pmemcheck, PMTest,
 * XFDetector) and the detector registry.
 */

#include <gtest/gtest.h>

#include "detectors/pmdebugger_detector.hh"
#include "detectors/pmemcheck.hh"
#include "detectors/pmtest.hh"
#include "detectors/registry.hh"
#include "detectors/xfdetector.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

TEST(RegistryTest, BuildsEveryAdvertisedDetector)
{
    for (const std::string &name : detectorNames()) {
        auto detector = makeDetector(name);
        ASSERT_NE(detector, nullptr) << name;
        EXPECT_EQ(detector->detectorName(), name);
    }
    EXPECT_EQ(makeDetector("bogus"), nullptr);
}

TEST(RegistryTest, DbiClassification)
{
    EXPECT_TRUE(makeDetector("pmdebugger")->isDbiBased());
    EXPECT_TRUE(makeDetector("pmemcheck")->isDbiBased());
    EXPECT_TRUE(makeDetector("xfdetector")->isDbiBased());
    EXPECT_TRUE(makeDetector("nulgrind")->isDbiBased());
    EXPECT_FALSE(makeDetector("pmtest")->isDbiBased());
}

TEST(PmemcheckTest, DetectsDurabilityAndFlushBugs)
{
    PmRuntime runtime;
    PmemcheckDetector detector;
    runtime.attach(&detector);

    runtime.store(0x100, 8); // missing CLF
    runtime.fence();
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    runtime.flush(0x200, 64); // redundant
    runtime.fence();
    runtime.flush(0x400, 64); // flush nothing
    runtime.fence();
    runtime.programEnd();

    EXPECT_EQ(detector.bugs().countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(detector.bugs().countOf(BugType::RedundantFlush), 1u);
    EXPECT_EQ(detector.bugs().countOf(BugType::FlushNothing), 1u);
}

TEST(PmemcheckTest, MultStoresIsOptIn)
{
    {
        PmRuntime runtime;
        PmemcheckDetector detector; // default: off
        runtime.attach(&detector);
        runtime.store(0x100, 8);
        runtime.store(0x100, 8);
        runtime.drain();
        EXPECT_EQ(detector.bugs().countOf(BugType::MultipleOverwrite), 0u);
    }
    {
        PmRuntime runtime;
        PmemcheckConfig config;
        config.detectMultipleOverwrite = true;
        PmemcheckDetector detector(config);
        runtime.attach(&detector);
        runtime.store(0x100, 8);
        runtime.store(0x100, 8);
        runtime.drain();
        EXPECT_EQ(detector.bugs().countOf(BugType::MultipleOverwrite), 1u);
    }
}

TEST(PmemcheckTest, OverwritesInsideEpochSuppressed)
{
    PmRuntime runtime;
    PmemcheckConfig config;
    config.detectMultipleOverwrite = true;
    PmemcheckDetector detector(config);
    runtime.attach(&detector);
    runtime.epochBegin();
    runtime.store(0x100, 8);
    runtime.store(0x100, 8); // legal inside a transaction
    runtime.flush(0x100, 64);
    runtime.fence();
    runtime.epochEnd();
    EXPECT_EQ(detector.bugs().countOf(BugType::MultipleOverwrite), 0u);
}

TEST(PmemcheckTest, EagerMergingIsReorganizationHeavy)
{
    PmRuntime runtime;
    PmemcheckDetector pmemcheck;
    PmDebuggerDetector pmdebugger;
    runtime.attach(&pmemcheck);
    runtime.attach(&pmdebugger);

    // A hashmap_atomic-style stream: adjacent stores, collective CLF.
    for (int op = 0; op < 500; ++op) {
        const Addr base = op * 64;
        runtime.store(base, 8);
        runtime.store(base + 8, 8);
        runtime.store(base + 16, 8);
        runtime.flush(base, 64);
        runtime.fence();
    }
    // The Section 7.5 effect: the traditional design re-organizes
    // orders of magnitude more often than PMDebugger.
    const auto pmc = pmemcheck.stats().tree.reorganizations;
    const auto pmd = pmdebugger.stats().tree.reorganizations;
    EXPECT_GT(pmc, 100u * (pmd + 1));
}

TEST(PmTestTest, OutsideRegionNothingIsTracked)
{
    PmRuntime runtime;
    PmTestDetector detector;
    runtime.attach(&detector);
    runtime.store(0x100, 8); // unannotated: invisible to PMTest
    runtime.programEnd();
    EXPECT_EQ(detector.bugs().total(), 0u);
    // isPersist outside a region trivially passes.
    EXPECT_TRUE(detector.isPersist(0x100, 8));
}

TEST(PmTestTest, IsPersistFailsOnMissingFlush)
{
    PmRuntime runtime;
    PmTestDetector detector;
    runtime.attach(&detector);
    detector.pmTestStart();
    runtime.store(0x100, 8);
    runtime.fence();
    EXPECT_FALSE(detector.isPersist(0x100, 8));
    detector.pmTestEnd();
    EXPECT_EQ(detector.bugs().countOf(BugType::NoDurability), 1u);
}

TEST(PmTestTest, IsPersistPassesWhenDurable)
{
    PmRuntime runtime;
    PmTestDetector detector;
    runtime.attach(&detector);
    detector.pmTestStart();
    runtime.store(0x100, 8);
    runtime.flush(0x100, 64);
    runtime.fence();
    EXPECT_TRUE(detector.isPersist(0x100, 8));
    detector.pmTestEnd();
    EXPECT_EQ(detector.bugs().total(), 0u);
}

TEST(PmTestTest, IsOrderedBeforeUsesOneFenceTimeline)
{
    PmRuntime runtime;
    PmTestDetector detector;
    runtime.attach(&detector);
    detector.pmTestStart();
    runtime.store(0x100, 8);
    runtime.flush(0x100, 64);
    runtime.fence(); // A durable at fence #1
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    runtime.fence(); // B durable at fence #2
    EXPECT_TRUE(detector.isOrderedBefore(0x100, 8, 0x200, 8));
    EXPECT_FALSE(detector.isOrderedBefore(0x200, 8, 0x100, 8));
    detector.pmTestEnd();
}

TEST(PmTestTest, RedundantFlushCheckInRegion)
{
    PmRuntime runtime;
    PmTestDetector detector;
    runtime.attach(&detector);
    detector.pmTestStart();
    runtime.store(0x100, 8);
    runtime.flush(0x100, 64);
    runtime.flush(0x100, 64);
    runtime.fence();
    detector.pmTestEnd();
    EXPECT_EQ(detector.bugs().countOf(BugType::RedundantFlush), 1u);
}

TEST(PmTestTest, TxCheckerFlagsDuplicateLogging)
{
    PmRuntime runtime;
    PmTestDetector detector;
    runtime.attach(&detector);
    detector.pmTestStart();
    detector.txChecker(0x100, 32);
    detector.txChecker(0x110, 8); // overlaps
    detector.pmTestEnd();
    EXPECT_EQ(detector.bugs().countOf(BugType::RedundantLogging), 1u);
}

TEST(XfDetectorTest, FailurePointsFollowStrideAndBudget)
{
    PmRuntime runtime;
    XfDetectorConfig config;
    config.fenceStride = 4;
    config.maxFailurePoints = 3;
    XfDetector detector(config);
    runtime.attach(&detector);
    for (int i = 0; i < 100; ++i) {
        runtime.store(i * 64, 8);
        runtime.flush(i * 64, 64);
        runtime.fence();
    }
    EXPECT_EQ(detector.failurePointsRun(), 3u);
    EXPECT_GT(detector.replayedOps(), 0u);
}

TEST(XfDetectorTest, CrossFailureVerifierRunsAtFailurePoints)
{
    PmRuntime runtime;
    XfDetectorConfig config;
    config.fenceStride = 1;
    XfDetector detector(config);
    runtime.attach(&detector);
    int calls = 0;
    detector.setCrossFailureVerifier([&]() -> std::string {
        return ++calls == 2 ? "inconsistent state" : "";
    });
    for (int i = 0; i < 4; ++i) {
        runtime.store(i * 64, 8);
        runtime.flush(i * 64, 64);
        runtime.fence();
    }
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(detector.bugs().countOf(BugType::CrossFailureSemantic), 1u);
}

TEST(XfDetectorTest, DetectsOrderViolationsViaSpec)
{
    PmRuntime runtime;
    XfDetectorConfig config;
    config.orderSpec = OrderSpec::fromText("persist_before A B\n");
    XfDetector detector(config);
    runtime.attach(&detector);
    runtime.registerPmem("A", 0x100, 8);
    runtime.registerPmem("B", 0x200, 8);
    runtime.store(0x100, 8);
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    runtime.fence(); // B durable before A
    runtime.flush(0x100, 64);
    runtime.fence();
    EXPECT_EQ(detector.bugs().countOf(BugType::NoOrderGuarantee), 1u);
}

TEST(NulgrindTest, CountsButNeverReports)
{
    PmRuntime runtime;
    NulgrindDetector detector;
    runtime.attach(&detector);
    runtime.store(0x100, 8); // an obvious durability bug
    runtime.programEnd();
    detector.finalize();
    EXPECT_EQ(detector.bugs().total(), 0u);
    EXPECT_EQ(detector.eventCount(), 2u);
}

} // namespace
} // namespace pmdb
