#include "common/cli.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace pmdb::cli
{

namespace
{

/** from_chars over all of @p text: no leading space, no tail. */
template <typename T>
bool
fromChars(std::string_view text, T *out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

} // namespace

bool
parseUnsigned(std::string_view text, std::uint64_t *out)
{
    // from_chars refuses '+' but takes '-' (wrapping); refuse it too.
    return !text.starts_with('-') && fromChars(text, out);
}

FlagSet::FlagSet(const char *argv0, std::vector<std::string> synopsis)
    : argv0_(argv0), synopsis_(std::move(synopsis))
{
}

FlagSet &
FlagSet::add(std::string_view spec, const char *help, Setter set)
{
    const std::size_t space = std::min(spec.find(' '), spec.size());
    const std::string_view metavar =
        space < spec.size() ? spec.substr(space + 1) : "";
    flags_.push_back({std::string(spec.substr(0, space)),
                      std::string(metavar), help, std::move(set)});
    return *this;
}

FlagSet &
FlagSet::flag(const char *spec, const char *help, bool *dest, bool value)
{
    return add(spec, help, [=](const std::string &, std::string *) {
        *dest = value;
        return int(exitOk);
    });
}

FlagSet &
FlagSet::option(const char *spec, const char *help, std::string *dest)
{
    return add(spec, help, [=](const std::string &value, std::string *) {
        *dest = value;
        return int(exitOk);
    });
}

FlagSet &
FlagSet::option(const char *spec, const char *help, double *dest)
{
    return add(spec, help, [=](const std::string &value, std::string *why) {
        *why = "a number";
        return fromChars(value, dest) ? int(exitOk) : int(exitUsage);
    });
}

FlagSet &
FlagSet::option(const char *spec, const char *help, Handler handler)
{
    return add(spec, help, [=](const std::string &value, std::string *) {
        return handler(value);
    });
}

FlagSet &
FlagSet::number(const char *spec, const char *help, std::uint64_t min,
                std::uint64_t max, std::function<void(std::uint64_t)> store)
{
    const std::string range =
        min == 0 && max == std::numeric_limits<std::uint64_t>::max()
            ? "an unsigned integer"
            : "an integer in " + std::to_string(min) + ".." +
                  std::to_string(max);
    return add(spec, help, [=](const std::string &value, std::string *why) {
        std::uint64_t v = 0;
        *why = range;
        if (!parseUnsigned(value, &v) || v < min || v > max)
            return int(exitUsage);
        store(v);
        return int(exitOk);
    });
}

int
FlagSet::parse(int argc, char **argv, int first)
{
    if (argc < first)
        return usage();
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto it =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (it == flags_.end()) {
            return fail((arg[0] == '-' ? "unknown option '"
                                       : "unexpected argument '") +
                        arg + "'");
        }
        if (!it->metavar.empty() && i + 1 >= argc)
            return fail("option '" + arg + "' needs a value " + it->metavar);
        const std::string value = it->metavar.empty() ? "" : argv[++i];
        std::string expected = "a valid " + it->metavar;
        const int rc = it->set(value, &expected);
        if (rc == exitUsage) {
            return fail("option '" + arg + "': expected " + expected +
                        ", got '" + value + "'");
        }
        if (rc != exitOk)
            return rc;
    }
    return exitOk;
}

int
FlagSet::positional(const char *what, const char *text,
                    std::size_t *dest) const
{
    std::uint64_t value = 0;
    if (!parseUnsigned(text, &value)) {
        return fail(std::string(what) +
                    ": expected an unsigned integer, got '" + text + "'");
    }
    *dest = value;
    return exitOk;
}

int
FlagSet::usage() const
{
    for (std::size_t i = 0; i < synopsis_.size(); ++i) {
        std::fprintf(stderr, "%s %s %s\n", i ? "      " : "usage:",
                     argv0_.c_str(), synopsis_[i].c_str());
    }
    if (!flags_.empty())
        std::fprintf(stderr, "options:\n");
    std::size_t width = 0;
    for (const Flag &f : flags_)
        width = std::max(width, f.name.size() + 1 + f.metavar.size());
    for (const Flag &f : flags_) {
        std::fprintf(stderr, "  %-*s  %s\n", static_cast<int>(width),
                     (f.name + " " + f.metavar).c_str(), f.help.c_str());
    }
    return exitUsage;
}

int
FlagSet::fail(const std::string &message) const
{
    const std::size_t slash = argv0_.rfind('/');
    std::fprintf(stderr, "%s: %s\n",
                 argv0_.substr(slash == std::string::npos ? 0 : slash + 1)
                     .c_str(),
                 message.c_str());
    return usage();
}

} // namespace pmdb::cli
