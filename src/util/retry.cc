#include "util/retry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "util/cancel.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::util
{

Deadline
Deadline::after(double seconds)
{
    Deadline deadline;
    if (!(seconds > 0.0))
        return deadline; // Unlimited.
    deadline.bounded = true;
    deadline.budgetSeconds = seconds;
    // Saturate at the clock's end instead of overflowing its int64
    // tick count (a budget past ~292 years would wrap into the past).
    // The 1 s margin absorbs rounding in the double comparison.
    const Clock::time_point now = Clock::now();
    const double headroom =
        std::chrono::duration<double>(Clock::time_point::max() - now)
            .count();
    deadline.expiry =
        seconds < headroom - 1.0
            ? now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds))
            : Clock::time_point::max();
    return deadline;
}

bool
Deadline::expired() const
{
    return bounded && Clock::now() >= expiry;
}

double
Deadline::remainingSeconds() const
{
    if (!bounded)
        return std::numeric_limits<double>::infinity();
    const double remaining =
        std::chrono::duration<double>(expiry - Clock::now()).count();
    return std::max(remaining, 0.0);
}

void
Deadline::check(const std::string &what) const
{
    if (expired()) {
        throw DeadlineExceeded(what + ": deadline of " +
                               std::to_string(budgetSeconds) +
                               " s exceeded");
    }
}

double
retryBackoffSeconds(const RetryPolicy &policy, int attempt)
{
    panicIf(attempt < 2, "retryBackoffSeconds: attempt must be >= 2");
    // Clamp as soon as the ceiling is reached instead of multiplying
    // all the way out: a long-lived daemon reaches attempt counts where
    // the naive product overflows to infinity (and, with a zero initial
    // backoff, to 0 * inf == NaN, which std::min happily propagates
    // into sleep_for). The early exit also keeps the call O(log) in
    // the growing regime rather than O(attempt).
    double backoff = policy.initialBackoffSeconds;
    for (int a = 2; a < attempt; ++a) {
        if (backoff >= policy.maxBackoffSeconds)
            break;
        const double next = backoff * policy.backoffMultiplier;
        if (next == backoff)
            break; // Fixed point (multiplier 1, or backoff 0).
        backoff = next;
    }
    return std::min(backoff, policy.maxBackoffSeconds);
}

void
validateRetryPolicy(const RetryPolicy &policy)
{
    fatalIf(policy.maxAttempts < 1,
            "RetryPolicy: maxAttempts must be >= 1");
    fatalIf(!std::isfinite(policy.initialBackoffSeconds) ||
                !std::isfinite(policy.maxBackoffSeconds) ||
                !std::isfinite(policy.backoffMultiplier) ||
                policy.initialBackoffSeconds < 0.0 ||
                policy.maxBackoffSeconds < 0.0 ||
                policy.backoffMultiplier < 1.0,
            "RetryPolicy: bad backoff schedule");
}

void
sleepForRetry(const RetryPolicy &policy, int nextAttempt)
{
    Telemetry &telemetry = Telemetry::instance();
    if (telemetry.enabled())
        telemetry.metrics().counter("util.retry.attempts").add();
    const double seconds = retryBackoffSeconds(policy, nextAttempt);
    if (seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
    }
}

bool
shouldRetry(const RetryPolicy &policy, const std::exception &error)
{
    // The deadline is wall-clock: retrying cannot bring the time back.
    if (dynamic_cast<const DeadlineExceeded *>(&error) != nullptr)
        return false;
    // A cancel means the process is draining: retrying would fight
    // the shutdown it was asked to cooperate with.
    if (dynamic_cast<const CancelledError *>(&error) != nullptr)
        return false;
    return !policy.retryable || policy.retryable(error);
}

} // namespace autopilot::util
