#include "common/json.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pmdb
{

namespace
{

void
appendEscaped(std::string &out, std::string_view text)
{
    const auto plain = [](char c) {
        return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
    };
    if (std::all_of(text.begin(), text.end(), plain)) {
        out += text;
        return;
    }
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    appendEscaped(out, text);
    return out;
}

void
JsonWriter::separate()
{
    if (comma_)
        out_ += ", ";
    comma_ = true;
}

void
JsonWriter::quoted(std::string_view text)
{
    out_ += '"';
    appendEscaped(out_, text);
    out_ += '"';
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    out_ += bracket;
    comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    out_ += bracket;
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    quoted(name);
    out_ += ": ";
    comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    quoted(text);
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    if (!std::isfinite(number))
        return raw("null");
    char buf[40];
    char *end = std::to_chars(buf, buf + sizeof(buf), number).ptr;
    // Keep a fraction or exponent so readers parse a float.
    if (std::string_view(buf, end - buf).find_first_of(".e") ==
        std::string_view::npos) {
        *end++ = '.';
        *end++ = '0';
    }
    return raw(std::string_view(buf, end - buf));
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

} // namespace pmdb
