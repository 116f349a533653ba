#include "io/csv.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace autopilot::io
{

using util::fatalIf;

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

std::vector<std::vector<std::string>>
readCsv(std::istream &is, const std::vector<std::string> &expected_header)
{
    std::size_t matched = 0;
    return readCsvAny(is, {expected_header}, matched);
}

std::vector<std::vector<std::string>>
readCsvAny(std::istream &is,
           const std::vector<std::vector<std::string>> &accepted_headers,
           std::size_t &matched_header)
{
    // getline() splits on '\n' only, so files written with CRLF line
    // endings (Windows tools, some spreadsheet exports) leave a '\r' on
    // every line; strip it so both conventions round-trip identically.
    auto getCsvLine = [&is](std::string &line) {
        if (!std::getline(is, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        return true;
    };

    std::string line;
    fatalIf(!getCsvLine(line), "readCsv: empty stream");
    const std::vector<std::string> header = splitCsvLine(line);
    bool known = false;
    for (std::size_t h = 0; h < accepted_headers.size(); ++h) {
        if (header == accepted_headers[h]) {
            matched_header = h;
            known = true;
            break;
        }
    }
    fatalIf(!known, "readCsv: unexpected header '" + line + "'");
    const std::size_t width = accepted_headers[matched_header].size();

    std::vector<std::vector<std::string>> rows;
    while (getCsvLine(line)) {
        if (line.empty())
            continue;
        std::vector<std::string> fields = splitCsvLine(line);
        fatalIf(fields.size() != width,
                "readCsv: ragged row '" + line + "'");
        rows.push_back(std::move(fields));
    }
    return rows;
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

double
parseDouble(const std::string &text)
{
    double value = 0.0;
    const std::string reason = tryParseDouble(text, value);
    fatalIf(!reason.empty(), "parseDouble: " + reason);
    return value;
}

int
parseInt(const std::string &text)
{
    int value = 0;
    const std::string reason = tryParseInt(text, value);
    fatalIf(!reason.empty(), "parseInt: " + reason);
    return value;
}

long long
parseInt64(const std::string &text)
{
    long long value = 0;
    const std::string reason = tryParseInt64(text, value);
    fatalIf(!reason.empty(), "parseInt64: " + reason);
    return value;
}

} // namespace autopilot::io
