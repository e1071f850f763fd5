/**
 * @file
 * The one JSON string escaper every emitter in the repository uses.
 */

#ifndef PMDB_COMMON_JSON_HH
#define PMDB_COMMON_JSON_HH

#include <string>

namespace pmdb
{

/**
 * Escape @p text for inclusion between the quotes of a JSON string:
 * '"' and '\\' are backslash-escaped, '\n' and '\t' become "\n" and
 * "\t", and every other control character becomes "\u00XX". Bytes
 * >= 0x20 pass through unchanged.
 */
std::string jsonEscape(const std::string &text);

} // namespace pmdb

#endif // PMDB_COMMON_JSON_HH
