/**
 * @file
 * Minimal JSON reader for machine-written files. The only producer we
 * need to understand is our own telemetry trace export (plus small
 * hand-written config snippets in tests), so the parser supports the
 * full JSON value grammar but optimizes for clarity over speed and
 * fails loudly via fatal() on malformed input. Arrays and objects nest
 * at most maxJsonDepth levels deep, so a hostile document fails with a
 * diagnosis instead of exhausting the recursive parser's stack.
 */

#ifndef AUTOPILOT_IO_JSON_H
#define AUTOPILOT_IO_JSON_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace autopilot::io
{

/// Deepest array/object nesting the parser accepts. Every document
/// the project reads nests a handful of levels at most.
constexpr std::size_t maxJsonDepth = 64;

/** A parsed JSON value (tree of shared_ptr nodes). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Boolean,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Type type() const { return kind; }

    bool isNull() const { return kind == Type::Null; }
    bool isBoolean() const { return kind == Type::Boolean; }
    bool isNumber() const { return kind == Type::Number; }
    bool isString() const { return kind == Type::String; }
    bool isArray() const { return kind == Type::Array; }
    bool isObject() const { return kind == Type::Object; }

    /** The boolean value (fatal unless isBoolean()). */
    bool asBoolean() const;

    /** The numeric value (fatal unless isNumber()). */
    double asNumber() const;

    /** The string value (fatal unless isString()). */
    const std::string &asString() const;

    /** The elements (fatal unless isArray()). */
    const std::vector<JsonValue> &asArray() const;

    /** The members (fatal unless isObject()). */
    const std::map<std::string, JsonValue> &asObject() const;

    /** True when this is an object with member @p key. */
    bool hasMember(const std::string &key) const;

    /**
     * Member @p key of an object (fatal unless isObject() and the
     * member exists).
     */
    const JsonValue &at(const std::string &key) const;

    /** Number of elements/members (fatal unless array or object). */
    std::size_t size() const;

    static JsonValue makeNull();
    static JsonValue makeBoolean(bool value);
    static JsonValue makeNumber(double value);
    static JsonValue makeString(std::string value);
    static JsonValue makeArray(std::vector<JsonValue> elements);
    static JsonValue makeObject(std::map<std::string, JsonValue> members);

  private:
    Type kind = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::shared_ptr<const std::string> text;
    std::shared_ptr<const std::vector<JsonValue>> elements;
    std::shared_ptr<const std::map<std::string, JsonValue>> members;
};

/**
 * Parse one JSON document. Fatal (with position information) on
 * malformed input, nesting deeper than maxJsonDepth, or trailing
 * garbage after the top-level value.
 */
JsonValue parseJson(const std::string &text);

/**
 * Non-fatal variant for untrusted input (e.g. campaign submissions
 * dropped into the service inbox by other processes): returns true and
 * fills @p out on success, or returns false and fills @p error with the
 * same position-stamped diagnostic parseJson() would have died with.
 * A malformed submission must reject one file, not take down a daemon
 * running everyone else's campaigns.
 */
bool tryParseJson(const std::string &text, JsonValue &out,
                  std::string &error);

} // namespace autopilot::io

#endif // AUTOPILOT_IO_JSON_H
