/**
 * @file
 * Error and status reporting helpers in the gem5 style.
 *
 * fatal()  - the condition is the caller's fault (bad configuration,
 *            out-of-range argument); exits with code 1.
 * panic()  - the condition indicates a bug in this library; aborts.
 * warn()   - something is suspicious but the run can continue.
 * inform() - plain status output.
 */

#ifndef AUTOPILOT_UTIL_LOGGING_H
#define AUTOPILOT_UTIL_LOGGING_H

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace autopilot::util
{

/** Severity of a log message. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

/**
 * Emit a message to stderr with a severity prefix.
 *
 * @param level Severity of the message.
 * @param msg   Fully formatted message body.
 */
void logMessage(LogLevel level, const std::string &msg);

/**
 * Report a user-caused error and exit the process with status 1.
 *
 * Call when the simulation cannot continue due to a condition that is the
 * caller's fault (bad configuration, invalid arguments), not a library bug.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation and abort.
 *
 * Call when something happens that should never happen regardless of what
 * the user does, i.e., an actual library bug.
 */
[[noreturn]] void panic(const std::string &msg);

/** Report a recoverable, suspicious condition. */
void warn(const std::string &msg);

/** Report normal operating status. */
void inform(const std::string &msg);

/**
 * Abort via panic() if a library invariant does not hold.
 *
 * @param condition Invariant that must be true.
 * @param msg       Description of the violated invariant.
 */
inline void
panicIf(bool condition, const std::string &msg)
{
    if (condition)
        panic(msg);
}

/**
 * panicIf() for a literal message. The std::string overload would build
 * the message - a heap allocation once it outgrows the small-string
 * buffer - on every call, fired or not; this one builds it only when
 * the invariant fails, so a hot-path check costs one branch.
 */
inline void
panicIf(bool condition, const char *msg)
{
    if (condition)
        panic(msg);
}

/**
 * Exit via fatal() if a user-facing precondition does not hold.
 *
 * @param condition Error condition; true means the input is invalid.
 * @param msg       Description of the misuse.
 */
inline void
fatalIf(bool condition, const std::string &msg)
{
    if (condition)
        fatal(msg);
}

/** fatalIf() for a literal message; see panicIf(bool, const char *). */
inline void
fatalIf(bool condition, const char *msg)
{
    if (condition)
        fatal(msg);
}

} // namespace autopilot::util

/**
 * Debug-build invariant check for hot-path code: panics with @p msg when
 * @p condition is false in debug builds, compiles to nothing under
 * NDEBUG (the RelWithDebInfo default) so release hot loops pay zero
 * cost. Use where a degenerate input is tolerated with a safe fallback
 * in release (e.g. returning 0 instead of dividing by zero) but should
 * still be loud during development.
 */
#ifdef NDEBUG
#define AUTOPILOT_DEBUG_ASSERT(condition, msg) ((void)0)
#else
#define AUTOPILOT_DEBUG_ASSERT(condition, msg)                            \
    ::autopilot::util::panicIf(!(condition), (msg))
#endif

#endif // AUTOPILOT_UTIL_LOGGING_H
