#include "core/report.hh"

#include <sstream>

namespace pmdb
{

namespace
{

void
appendBugs(std::ostringstream &out, const BugCollector &bugs)
{
    out << "\"total_sites\": " << bugs.total()
        << ", \"occurrences\": " << bugs.occurrences()
        << ", \"by_type\": {";
    bool first = true;
    for (int t = 0; t < bugTypeCount; ++t) {
        const auto type = static_cast<BugType>(t);
        const std::size_t n = bugs.countOf(type);
        if (!n)
            continue;
        if (!first)
            out << ", ";
        first = false;
        out << '"' << toString(type) << "\": " << n;
    }
    out << "}, \"bugs\": [";
    first = true;
    for (const BugReport &bug : bugs.bugs()) {
        if (!first)
            out << ", ";
        first = false;
        out << "{\"type\": \"" << toString(bug.type) << "\", "
            << "\"fingerprint\": \""
            << fingerprintOf(bug).toString() << "\", "
            << "\"start\": " << bug.range.start << ", "
            << "\"end\": " << bug.range.end << ", "
            << "\"seq\": " << bug.seq << ", "
            << "\"cause\": \""
            << (bug.cause == DurabilityCause::MissingFlush
                    ? "missing-flush"
                    : bug.cause == DurabilityCause::MissingFence
                          ? "missing-fence"
                          : "n/a")
            << "\", \"detail\": \"" << jsonEscape(bug.detail) << "\"}";
    }
    out << "]";
}

} // namespace

std::string
reportToJson(const BugCollector &bugs)
{
    std::ostringstream out;
    out << "{";
    appendBugs(out, bugs);
    out << "}";
    return out.str();
}

std::string
reportToJson(const BugCollector &bugs, const DebuggerStats &stats)
{
    std::ostringstream out;
    out << "{";
    appendBugs(out, bugs);
    out << ", \"stats\": {"
        << "\"stores\": " << stats.stores
        << ", \"flushes\": " << stats.flushes
        << ", \"fences\": " << stats.fences
        << ", \"epochs\": " << stats.epochs
        << ", \"avg_tree_nodes_per_fence_interval\": "
        << stats.avgTreeNodesPerFenceInterval()
        << ", \"tree_reorganizations\": " << stats.tree.reorganizations
        << ", \"collective_invalidations\": "
        << stats.array.collectiveInvalidations
        << ", \"records_moved_to_tree\": "
        << stats.array.recordsMovedToTree << "}}";
    return out.str();
}

} // namespace pmdb
