#include "core/report.hh"

namespace pmdb
{

namespace
{

void
writeBugs(JsonWriter &out, const BugCollector &bugs)
{
    out.field("total_sites", bugs.total())
        .field("occurrences", bugs.occurrences())
        .key("by_type")
        .beginObject();
    for (int t = 0; t < bugTypeCount; ++t) {
        const auto type = static_cast<BugType>(t);
        if (const std::size_t n = bugs.countOf(type))
            out.field(toString(type), n);
    }
    out.endObject().key("bugs").beginArray();
    for (const BugReport &bug : bugs.bugs()) {
        out.beginObject()
            .field("type", toString(bug.type))
            .field("fingerprint", fingerprintOf(bug).toString())
            .field("start", bug.range.start)
            .field("end", bug.range.end)
            .field("seq", bug.seq)
            .field("cause",
                   bug.cause == DurabilityCause::MissingFlush
                       ? "missing-flush"
                       : bug.cause == DurabilityCause::MissingFence
                             ? "missing-fence"
                             : "n/a")
            .field("detail", bug.detail)
            .endObject();
    }
    out.endArray();
}

} // namespace

std::string
reportToJson(const BugCollector &bugs)
{
    JsonWriter out;
    out.beginObject();
    writeBugs(out, bugs);
    return out.endObject().str();
}

std::string
reportToJson(const BugCollector &bugs, const DebuggerStats &stats)
{
    JsonWriter out;
    out.beginObject();
    writeBugs(out, bugs);
    out.key("stats")
        .beginObject()
        .field("stores", stats.stores)
        .field("flushes", stats.flushes)
        .field("fences", stats.fences)
        .field("epochs", stats.epochs)
        .field("avg_tree_nodes_per_fence_interval",
               stats.avgTreeNodesPerFenceInterval())
        .field("tree_reorganizations", stats.tree.reorganizations)
        .field("collective_invalidations",
               stats.array.collectiveInvalidations)
        .field("records_moved_to_tree", stats.array.recordsMovedToTree)
        .endObject();
    return out.endObject().str();
}

} // namespace pmdb
