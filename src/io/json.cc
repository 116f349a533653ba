#include "io/json.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "util/logging.h"

namespace autopilot::io
{

using util::fatalIf;

bool
JsonValue::asBoolean() const
{
    fatalIf(kind != Type::Boolean, "JsonValue: not a boolean");
    return boolean;
}

double
JsonValue::asNumber() const
{
    fatalIf(kind != Type::Number, "JsonValue: not a number");
    return number;
}

const std::string &
JsonValue::asString() const
{
    fatalIf(kind != Type::String, "JsonValue: not a string");
    return *text;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    fatalIf(kind != Type::Array, "JsonValue: not an array");
    return *elements;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    fatalIf(kind != Type::Object, "JsonValue: not an object");
    return *members;
}

bool
JsonValue::hasMember(const std::string &key) const
{
    return kind == Type::Object && members->count(key) > 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    fatalIf(!hasMember(key), "JsonValue: no member '" + key + "'");
    return members->at(key);
}

std::size_t
JsonValue::size() const
{
    if (kind == Type::Array)
        return elements->size();
    if (kind == Type::Object)
        return members->size();
    util::fatal("JsonValue: size() on a scalar");
    return 0;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBoolean(bool value)
{
    JsonValue v;
    v.kind = Type::Boolean;
    v.boolean = value;
    return v;
}

JsonValue
JsonValue::makeNumber(double value)
{
    JsonValue v;
    v.kind = Type::Number;
    v.number = value;
    return v;
}

JsonValue
JsonValue::makeString(std::string value)
{
    JsonValue v;
    v.kind = Type::String;
    v.text = std::make_shared<const std::string>(std::move(value));
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> elements)
{
    JsonValue v;
    v.kind = Type::Array;
    v.elements = std::make_shared<const std::vector<JsonValue>>(
        std::move(elements));
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> members)
{
    JsonValue v;
    v.kind = Type::Object;
    v.members =
        std::make_shared<const std::map<std::string, JsonValue>>(
            std::move(members));
    return v;
}

namespace
{

/// Internal parse failure; callers translate to fatal() or an error
/// string, so the type never escapes this translation unit.
class JsonParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Recursive-descent parser over an in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : doc(text) {}

    JsonValue parseDocument()
    {
        const JsonValue value = parseValue();
        skipWhitespace();
        failIf(pos != doc.size(), "trailing garbage");
        return value;
    }

  private:
    void failIf(bool condition, const std::string &what) const
    {
        if (condition) {
            throw JsonParseError(what + " at offset " +
                                 std::to_string(pos));
        }
    }

    void skipWhitespace()
    {
        while (pos < doc.size() &&
               std::isspace(static_cast<unsigned char>(doc[pos])))
            ++pos;
    }

    char peek()
    {
        failIf(pos >= doc.size(), "unexpected end of input");
        return doc[pos];
    }

    void expect(char c)
    {
        failIf(peek() != c,
               std::string("expected '") + c + "', got '" + peek() +
                   "'");
        ++pos;
    }

    void expectLiteral(const std::string &literal)
    {
        failIf(doc.compare(pos, literal.size(), literal) != 0,
               "bad literal");
        pos += literal.size();
    }

    JsonValue parseValue()
    {
        skipWhitespace();
        switch (peek()) {
          case 'n': expectLiteral("null"); return JsonValue::makeNull();
          case 't':
            expectLiteral("true");
            return JsonValue::makeBoolean(true);
          case 'f':
            expectLiteral("false");
            return JsonValue::makeBoolean(false);
          case '"': return JsonValue::makeString(parseString());
          case '[':
          case '{': return parseNested();
          default:  return parseNumber();
        }
    }

    /** An array or object, one nesting level below the current one. */
    JsonValue parseNested()
    {
        failIf(depth == maxJsonDepth,
               "nesting deeper than " + std::to_string(maxJsonDepth) +
                   " levels");
        ++depth;
        JsonValue value = peek() == '[' ? parseArray() : parseObject();
        --depth;
        return value;
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < doc.size() &&
               (std::isdigit(static_cast<unsigned char>(doc[pos])) ||
                doc[pos] == '.' || doc[pos] == 'e' || doc[pos] == 'E' ||
                doc[pos] == '+' || doc[pos] == '-'))
            ++pos;
        const std::string token = doc.substr(start, pos - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        failIf(token.empty() || end != token.c_str() + token.size(),
               "bad number '" + token + "'");
        return JsonValue::makeNumber(value);
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            failIf(pos >= doc.size(), "unterminated string");
            const char c = doc[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            failIf(pos >= doc.size(), "unterminated escape");
            const char escape = doc[pos++];
            switch (escape) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u':  out += parseUnicodeEscape(); break;
              default:
                failIf(true, std::string("bad escape '\\") + escape +
                                 "'");
            }
        }
    }

    /** One 4-digit \uXXXX code unit (the "\u" already consumed). */
    unsigned parseUnicodeCodeUnit()
    {
        failIf(pos + 4 > doc.size(), "truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = doc[pos++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code += static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code += static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code += static_cast<unsigned>(c - 'A' + 10);
            else
                failIf(true, "bad \\u escape digit");
        }
        return code;
    }

    /**
     * \uXXXX escapes, encoded back to UTF-8. A high surrogate must be
     * followed by a \uXXXX low surrogate; the pair combines into one
     * supplementary-plane code point (4-byte UTF-8). Lone or
     * mis-ordered surrogates are rejected - emitting them raw would
     * produce broken UTF-8 that downstream consumers choke on far from
     * the actual defect.
     */
    std::string parseUnicodeEscape()
    {
        unsigned code = parseUnicodeCodeUnit();
        failIf(code >= 0xDC00 && code <= 0xDFFF,
               "lone low surrogate in \\u escape");
        if (code >= 0xD800 && code <= 0xDBFF) {
            failIf(pos + 2 > doc.size() || doc[pos] != '\\' ||
                       doc[pos + 1] != 'u',
                   "high surrogate not followed by \\u escape");
            pos += 2;
            const unsigned low = parseUnicodeCodeUnit();
            failIf(low < 0xDC00 || low > 0xDFFF,
                   "high surrogate not followed by low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return out;
    }

    JsonValue parseArray()
    {
        expect('[');
        std::vector<JsonValue> elements;
        skipWhitespace();
        if (peek() == ']') {
            ++pos;
            return JsonValue::makeArray(std::move(elements));
        }
        while (true) {
            elements.push_back(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return JsonValue::makeArray(std::move(elements));
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        std::map<std::string, JsonValue> members;
        skipWhitespace();
        if (peek() == '}') {
            ++pos;
            return JsonValue::makeObject(std::move(members));
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            members[std::move(key)] = parseValue();
            skipWhitespace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return JsonValue::makeObject(std::move(members));
        }
    }

    const std::string &doc;
    std::size_t pos = 0;
    std::size_t depth = 0; ///< Arrays/objects currently open.
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    try {
        return JsonParser(text).parseDocument();
    } catch (const JsonParseError &error) {
        util::fatal(std::string("parseJson: ") + error.what());
    }
    return JsonValue(); // Unreachable; fatal() does not return.
}

bool
tryParseJson(const std::string &text, JsonValue &out, std::string &error)
{
    try {
        out = JsonParser(text).parseDocument();
        return true;
    } catch (const JsonParseError &parseError) {
        error = parseError.what();
        return false;
    }
}

} // namespace autopilot::io
