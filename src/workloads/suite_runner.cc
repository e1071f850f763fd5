#include "workloads/suite_runner.hh"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.hh"
#include "detectors/pmdebugger_detector.hh"
#include "detectors/pmemcheck.hh"
#include "detectors/pmtest.hh"
#include "detectors/xfdetector.hh"

namespace pmdb
{

namespace
{

/** Run one (case, detector, variant) combination; returns its bugs. */
std::unique_ptr<Detector>
runVariant(const BugCase &bug_case, const std::string &detector,
           bool buggy)
{
    PmRuntime runtime;
    CaseEnv env{runtime};
    env.buggy = buggy;

    std::unique_ptr<Detector> tool;
    if (detector == "pmdebugger") {
        auto pd = std::make_unique<PmDebuggerDetector>(
            debuggerConfigFor(bug_case));
        env.pmdebugger = &pd->debugger();
        tool = std::move(pd);
    } else if (detector == "pmemcheck") {
        PmemcheckConfig config;
        config.detectMultipleOverwrite = bug_case.enableOverwriteDetection;
        tool = std::make_unique<PmemcheckDetector>(config);
    } else if (detector == "pmtest") {
        auto pt = std::make_unique<PmTestDetector>();
        pt->setOverwriteChecks(bug_case.enableOverwriteDetection);
        if (bug_case.pmtestAnnotated)
            env.pmtest = pt.get();
        tool = std::move(pt);
    } else if (detector == "xfdetector") {
        XfDetectorConfig config;
        if (!bug_case.orderSpec.empty())
            config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
        config.detectMultipleOverwrite = bug_case.enableOverwriteDetection;
        // The suite's programs are tiny: exercise every fence as a
        // failure point so the cross-failure verifier runs in-window.
        config.fenceStride = 1;
        auto xf = std::make_unique<XfDetector>(std::move(config));
        env.xfdetector = xf.get();
        tool = std::move(xf);
    } else {
        fatal("suite runner: unknown detector " + detector);
    }

    runtime.attach(tool.get());
    bug_case.scenario(env);
    runtime.programEnd();
    tool->finalize();
    runtime.detach(tool.get());
    return tool;
}

} // namespace

CaseOutcome
runCase(const BugCase &bug_case, const std::string &detector,
        bool check_false_positive)
{
    CaseOutcome outcome;
    {
        auto tool = runVariant(bug_case, detector, true);
        outcome.detected = tool->bugs().hasAny(bug_case.expected);
    }
    if (check_false_positive) {
        auto tool = runVariant(bug_case, detector, false);
        outcome.falsePositive = tool->bugs().total() > 0;
    }
    return outcome;
}

std::vector<std::string>
caseFingerprints(const BugCase &bug_case)
{
    auto tool = runVariant(bug_case, "pmdebugger", true);
    std::vector<std::string> out;
    for (const BugFingerprint &fp : tool->bugs().fingerprints())
        out.push_back(fp.toString());
    std::sort(out.begin(), out.end());
    return out;
}

SuiteMatrix
runSuite(const std::vector<std::string> &detectors,
         bool check_false_positives)
{
    SuiteMatrix matrix;
    for (const std::string &detector : detectors) {
        for (const BugCase &bug_case : bugSuite()) {
            matrix[detector][bug_case.id] =
                runCase(bug_case, detector, check_false_positives);
        }
    }
    return matrix;
}

std::vector<SuiteScore>
scoreSuite(const SuiteMatrix &matrix)
{
    std::vector<SuiteScore> scores;
    for (const auto &[detector, outcomes] : matrix) {
        SuiteScore score;
        score.detector = detector;
        std::set<BugType> types;
        for (const BugCase &bug_case : bugSuite()) {
            auto it = outcomes.find(bug_case.id);
            if (it == outcomes.end())
                continue;
            if (it->second.detected) {
                ++score.detected;
                types.insert(bug_case.expected);
            } else {
                ++score.missed;
            }
            if (it->second.falsePositive)
                ++score.falsePositives;
        }
        score.typesDetected = static_cast<int>(types.size());
        scores.push_back(std::move(score));
    }
    return scores;
}

} // namespace pmdb
