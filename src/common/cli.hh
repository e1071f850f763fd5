/**
 * @file
 * The command-line tools' one flag parser and shared exit codes. Each
 * tool declares every flag once in a FlagSet — spec, help line,
 * destination — and the usage's options block is generated from it.
 * Positionals and subcommands stay in the tools; FlagSet parses the
 * flag tail after them and rejects anything it does not know.
 */

#ifndef PMDB_COMMON_CLI_HH
#define PMDB_COMMON_CLI_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace pmdb::cli
{

/** Exit codes shared by every tool; see README "Tool exit codes". */
enum ExitCode : int
{
    exitOk = 0,
    exitFailure = 1,
    exitUsage = 2,
    exitUnknownName = 3,
    exitBadTrace = 4,
    /** A budget truncated a trace or an enumeration. */
    exitTruncated = 5,
    exitNoRepair = 6,
    exitNoAdvisory = 7,
    exitCrossBugs = 8,
};

/** Digits only (no sign, space or trailing text), no overflow. */
bool parseUnsigned(std::string_view text, std::uint64_t *out);

/**
 * One tool's (or subcommand's) flags. A spec is the flag name, plus a
 * space and a value placeholder for options: "--json", "--ops N".
 */
class FlagSet
{
  public:
    /**
     * Returns exitOk to accept the value, exitUsage to reject it (the
     * parser reports it), or another code after its own diagnostic.
     */
    using Handler = std::function<int(const std::string &value)>;

    /** @p synopsis: usage lines without the program name. */
    FlagSet(const char *argv0, std::vector<std::string> synopsis);

    /** A switch: its presence stores @p value. */
    FlagSet &flag(const char *spec, const char *help, bool *dest,
                  bool value = true);
    FlagSet &option(const char *spec, const char *help, std::string *dest);
    FlagSet &option(const char *spec, const char *help, double *dest);
    /** A callback option; it may repeat. */
    FlagSet &option(const char *spec, const char *help, Handler handler);

    /** Unsigned within [@p min, @p max], by default what T holds. */
    template <std::integral T>
    FlagSet &
    option(const char *spec, const char *help, T *dest,
           std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<T>::max())
    {
        return number(spec, help, min, max, [dest](std::uint64_t v) {
            *dest = static_cast<T>(v);
        });
    }

    /**
     * Parse argv[@p first, @p argc) as flags; argv[1, @p first) are
     * the caller's positionals, so fewer arguments is a usage error.
     * On error prints one line naming the flag and the offending
     * text, then the usage, and returns the exit code.
     */
    int parse(int argc, char **argv, int first);

    /** Parse positional @p text (named @p what) as unsigned. */
    int positional(const char *what, const char *text,
                   std::size_t *dest) const;

    /** Print the usage to stderr; returns exitUsage. */
    int usage() const;

    /** Print "<tool>: @p message" and the usage; returns exitUsage. */
    int fail(const std::string &message) const;

  private:
    /** Stores a value; on exitUsage, *expected may say what fits. */
    using Setter = std::function<int(const std::string &value,
                                     std::string *expected)>;

    struct Flag
    {
        std::string name;
        /** Value placeholder; empty for a switch. */
        std::string metavar;
        std::string help;
        Setter set;
    };

    FlagSet &add(std::string_view spec, const char *help, Setter set);
    FlagSet &number(const char *spec, const char *help, std::uint64_t min,
                    std::uint64_t max,
                    std::function<void(std::uint64_t)> store);

    std::string argv0_;
    std::vector<std::string> synopsis_;
    std::vector<Flag> flags_;
};

} // namespace pmdb::cli

#endif // PMDB_COMMON_CLI_HH
