#include "io/csv.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace autopilot::io
{

namespace
{

/** True when @p text starts or ends with ASCII whitespace. */
bool
hasOuterWhitespace(const std::string &text)
{
    return !text.empty() &&
           (std::isspace(static_cast<unsigned char>(text.front())) ||
            std::isspace(static_cast<unsigned char>(text.back())));
}

/**
 * Reject fields the strtoX family would silently tolerate: empty input
 * parses to "no conversion" only sometimes, and leading whitespace is
 * skipped outright. A CSV field is machine-written, so both indicate a
 * corrupted file. Returns the reason, or empty when the field is a
 * plausible number.
 */
std::string
checkNumericField(const std::string &text, const char *kind)
{
    if (text.empty())
        return std::string("bad ") + kind + " '' (empty field)";
    if (hasOuterWhitespace(text))
        return std::string("bad ") + kind + " '" + text +
               "' (leading/trailing whitespace)";
    return {};
}

} // namespace

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream stream(line);
    while (std::getline(stream, field, ','))
        fields.push_back(field);
    if (!line.empty() && line.back() == ',')
        fields.emplace_back();
    // Tolerate a CRLF line ending that leaked through: the '\r' would
    // otherwise stick to the last field and corrupt it.
    if (!fields.empty() && !fields.back().empty() &&
        fields.back().back() == '\r')
        fields.back().pop_back();
    return fields;
}

std::string
tryParseDouble(const std::string &text, double &value)
{
    std::string reason = checkNumericField(text, "number");
    if (!reason.empty())
        return reason;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return "bad number '" + text + "'";
    value = parsed;
    return {};
}

std::string
tryParseInt(const std::string &text, int &value)
{
    long long parsed = 0;
    const std::string reason = tryParseInt64(text, parsed);
    if (!reason.empty())
        return reason;
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max())
        return "bad integer '" + text + "' (outside the int range)";
    value = static_cast<int>(parsed);
    return {};
}

std::string
tryParseInt64(const std::string &text, long long &value)
{
    std::string reason = checkNumericField(text, "integer");
    if (!reason.empty())
        return reason;
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        return "bad integer '" + text + "'";
    if (errno == ERANGE)
        return "bad integer '" + text + "' (outside the 64-bit range)";
    value = parsed;
    return {};
}

} // namespace autopilot::io
