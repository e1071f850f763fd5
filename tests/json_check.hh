/**
 * @file
 * RFC 8259 well-formedness check shared by the test suites that
 * produce JSON documents.
 */

#ifndef PMDB_TESTS_JSON_CHECK_HH
#define PMDB_TESTS_JSON_CHECK_HH

#include <cctype>
#include <string>
#include <string_view>

namespace pmdb
{

/**
 * Advance @p i past one RFC 8259 value in @p s; false if malformed.
 * Numbers and literals are only checked for their character set.
 */
inline bool
skipJsonValue(const std::string &s, std::size_t &i)
{
    const auto ws = [&] {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    };
    ws();
    if (i >= s.size())
        return false;
    if (s[i] == '"') {
        while (++i < s.size() && s[i] != '"') {
            if (static_cast<unsigned char>(s[i]) < 0x20)
                return false;
            if (s[i] == '\\' &&
                (++i >= s.size() ||
                 std::string_view("\"\\/bfnrtu").find(s[i]) ==
                     std::string_view::npos))
                return false;
        }
        return i++ < s.size();
    }
    if (s[i] == '{' || s[i] == '[') {
        const char close = s[i++] == '{' ? '}' : ']';
        ws();
        if (i < s.size() && s[i] == close)
            return ++i, true;
        for (;;) {
            if (close == '}') {
                ws();
                if (i >= s.size() || s[i] != '"' || !skipJsonValue(s, i))
                    return false;
                ws();
                if (i >= s.size() || s[i++] != ':')
                    return false;
            }
            if (!skipJsonValue(s, i))
                return false;
            ws();
            if (i >= s.size() || (s[i] != ',' && s[i] != close))
                return false;
            if (s[i++] == close)
                return true;
        }
    }
    const std::size_t start = i;
    while (i < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[i])) ||
            std::string_view("+-.").find(s[i]) != std::string_view::npos))
        ++i;
    return i > start;
}

/** True if @p text is exactly one well-formed JSON value. */
inline bool
parsesAsJson(const std::string &text)
{
    std::size_t i = 0;
    if (!skipJsonValue(text, i))
        return false;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i == text.size();
}

} // namespace pmdb

#endif // PMDB_TESTS_JSON_CHECK_HH
