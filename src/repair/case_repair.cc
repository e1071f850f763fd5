#include "repair/case_repair.hh"

#include "trace/recorder.hh"

namespace pmdb
{

const BugCase *
findBugCase(const std::string &name)
{
    for (const BugCase &bug_case : bugSuite()) {
        if (bug_case.name == name)
            return &bug_case;
    }
    return nullptr;
}

LoadedTrace
recordCaseTrace(const BugCase &bug_case, bool buggy,
                const CaseParams *params)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    CaseEnv env{runtime};
    env.buggy = buggy;
    env.params = params;
    bug_case.scenario(env);
    // Most scenarios end the program themselves; close the trace for
    // the ones that do not, without doubling the marker.
    if (recorder.events().empty() ||
        recorder.events().back().kind != EventKind::ProgramEnd) {
        runtime.programEnd();
    }
    runtime.detach(&recorder);

    LoadedTrace trace;
    trace.events = recorder.events();
    trace.names = runtime.names();
    return trace;
}

bool
caseTarget(const BugCase &bug_case, const LoadedTrace &trace,
           BugFingerprint *out)
{
    const ReplayOracle oracle(debuggerConfigFor(bug_case), trace.names);
    const ReplayReport report = oracle.replay(trace.events);
    for (const BugReport &bug : report.bugs) {
        if (bug.type == bug_case.expected) {
            *out = fingerprintOf(bug);
            return true;
        }
    }
    return false;
}

} // namespace pmdb
