/**
 * @file
 * The repository's one JSON string escaper and one JSON writer. Every
 * document a tool, bench or library emits goes through JsonWriter, so
 * all of them share one layout: `"key": value`, `", "` between
 * members and elements, no newlines.
 */

#ifndef PMDB_COMMON_JSON_HH
#define PMDB_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace pmdb
{

/**
 * Escape @p text for inclusion between the quotes of a JSON string:
 * '"' and '\\' are backslash-escaped, '\n' and '\t' become "\n" and
 * "\t", and every other control character becomes "\u00XX". Bytes
 * >= 0x20 pass through unchanged.
 */
std::string jsonEscape(const std::string &text);

/**
 * Streaming JSON writer that places the separators. Strings
 * are escaped with jsonEscape, integers are exact, doubles use the
 * shortest round-trip form (std::to_chars, locale-independent, always
 * with a fraction or exponent so readers see a float; non-finite
 * values become null), and bools are true/false.
 *
 * Calls chain: `w.beginObject().field("n", 3).key("xs").beginArray()`.
 * Inside an object every value is preceded by key(); field() is the
 * two together. Balancing begin/end calls is the caller's job.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Member name inside an object; the next call writes its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool flag) { return raw(flag ? "true" : "false"); }
    JsonWriter &value(double number);

    template <std::integral T>
    JsonWriter &
    value(T number)
    {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof(buf), number).ptr;
        return raw(std::string_view(buf, end - buf));
    }

    /** Splice an already-rendered JSON document as the next value. */
    JsonWriter &raw(std::string_view json);

    /** key(@p name) followed by value(@p v). */
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /** The document so far (complete once every scope is closed). */
    const std::string &str() const { return out_; }

  private:
    /** Write the separator the next key or value needs. */
    void separate();
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    void quoted(std::string_view text);

    std::string out_;
    /** The last token was a value, so the next one needs ", ". */
    bool comma_ = false;
};

} // namespace pmdb

#endif // PMDB_COMMON_JSON_HH
