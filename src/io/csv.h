/**
 * @file
 * CSV field helpers for the persistence readers and the CLI. Our files
 * are machine-written numeric tables, so no quoting/escaping is needed.
 * Line framing (CRLF tolerance, header matching, line numbers) lives in
 * the file readers (persistence.h, journal.h); these helpers split one
 * line and parse one field, returning a reason instead of aborting.
 */

#ifndef AUTOPILOT_IO_CSV_H
#define AUTOPILOT_IO_CSV_H

#include <string>
#include <vector>

namespace autopilot::io
{

/** Split one CSV line on commas (no quoting). */
std::vector<std::string> splitCsvLine(const std::string &line);

/**
 * Strict numeric field parsers. On success the value is stored and the
 * empty string returned; on failure the return value is the reason
 * ("bad number 'x' (leading/trailing whitespace)", ...) and @p value
 * is untouched, so a reader can name the bad field in its diagnosis.
 */
std::string tryParseDouble(const std::string &text, double &value);
std::string tryParseInt(const std::string &text, int &value);
std::string tryParseInt64(const std::string &text, long long &value);

} // namespace autopilot::io

#endif // AUTOPILOT_IO_CSV_H
