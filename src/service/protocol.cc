#include "service/protocol.hh"

namespace pmdb
{

const char *
toString(SlowConsumerPolicy policy)
{
    switch (policy) {
      case SlowConsumerPolicy::Block: return "block";
      case SlowConsumerPolicy::Spill: return "spill";
    }
    return "?";
}

bool
parseSlowConsumerPolicy(const std::string &name, SlowConsumerPolicy *out)
{
    if (name == "block")
        *out = SlowConsumerPolicy::Block;
    else if (name == "spill")
        *out = SlowConsumerPolicy::Spill;
    else
        return false;
    return true;
}

std::vector<std::uint8_t>
HelloBody::serialize() const
{
    WireWriter out;
    out.put(version);
    out.put(static_cast<std::uint32_t>(model));
    out.put(static_cast<std::uint32_t>(policy));
    out.putString(orderSpecText);
    out.putString(ringPath);
    out.putString(spillPath);
    out.putString(sharedPoolPath);
    out.put(sharedWriterId);
    return out.bytes();
}

bool
HelloBody::deserialize(const std::vector<std::uint8_t> &payload,
                       HelloBody *out)
{
    WireReader in(payload);
    out->version = in.get<std::uint32_t>();
    out->model = static_cast<PersistencyModel>(in.get<std::uint32_t>());
    out->policy =
        static_cast<SlowConsumerPolicy>(in.get<std::uint32_t>());
    out->orderSpecText = in.getString();
    out->ringPath = in.getString();
    out->spillPath = in.getString();
    out->sharedPoolPath = in.getString();
    out->sharedWriterId = in.get<std::uint32_t>();
    return in.ok() && out->version == serviceProtocolVersion;
}

std::vector<std::uint8_t>
ByeBody::serialize() const
{
    WireWriter out;
    out.put(ringEvents);
    out.put(spillEvents);
    return out.bytes();
}

bool
ByeBody::deserialize(const std::vector<std::uint8_t> &payload,
                     ByeBody *out)
{
    WireReader in(payload);
    out->ringEvents = in.get<std::uint64_t>();
    out->spillEvents = in.get<std::uint64_t>();
    return in.ok();
}

void
putBugReport(WireWriter &out, const BugReport &bug)
{
    out.put(static_cast<std::uint8_t>(bug.type));
    out.put(static_cast<std::uint8_t>(bug.cause));
    out.put(bug.range.start);
    out.put(bug.range.end);
    out.put(bug.seq);
    out.putString(bug.detail);
    out.putString(bug.context);
}

BugReport
getBugReport(WireReader &in)
{
    BugReport bug;
    bug.type = static_cast<BugType>(in.get<std::uint8_t>());
    bug.cause = static_cast<DurabilityCause>(in.get<std::uint8_t>());
    bug.range.start = in.get<Addr>();
    bug.range.end = in.get<Addr>();
    bug.seq = in.get<SeqNum>();
    bug.detail = in.getString();
    bug.context = in.getString();
    return bug;
}

std::vector<std::uint8_t>
ReportBody::serialize() const
{
    WireWriter out;
    out.put(static_cast<std::uint32_t>(bugs.size()));
    for (const BugReport &bug : bugs)
        putBugReport(out, bug);
    out.put(eventsProcessed);
    out.put(eventsDropped);
    out.putString(json);
    return out.bytes();
}

bool
ReportBody::deserialize(const std::vector<std::uint8_t> &payload,
                        ReportBody *out)
{
    WireReader in(payload);
    const auto count = in.get<std::uint32_t>();
    out->bugs.clear();
    for (std::uint32_t i = 0; i < count && in.ok(); ++i)
        out->bugs.push_back(getBugReport(in));
    out->eventsProcessed = in.get<std::uint64_t>();
    out->eventsDropped = in.get<std::uint64_t>();
    out->json = in.getString();
    return in.ok();
}

} // namespace pmdb
