#include "core/cross_failure.hh"

namespace pmdb
{

bool
CrossFailureChecker::check(PmDebugger &debugger, const PmemDevice &device,
                           const Verifier &verify, const CrashPointSpec &at)
{
    return check(
        [&debugger](const BugReport &report) {
            debugger.reportBug(report);
        },
        device, verify, at);
}

bool
CrossFailureChecker::check(const ReportSink &sink,
                           const PmemDevice &device,
                           const Verifier &verify, const CrashPointSpec &at)
{
    CrashSimulator sim(device);
    std::vector<std::uint8_t> image =
        at.landedLines ? sim.partialImage(*at.landedLines)
                       : sim.crashImage(CrashPolicy::DropPending);
    const std::string inconsistency = verify(image);
    if (inconsistency.empty())
        return false;

    BugReport report;
    report.type = BugType::CrossFailureSemantic;
    report.seq = at.seq;
    report.detail = inconsistency;
    sink(report);
    return true;
}

} // namespace pmdb
