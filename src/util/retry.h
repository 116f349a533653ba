/**
 * @file
 * Fault-tolerance primitives for long-running campaigns: bounded
 * retry-with-backoff for transient failures and wall-clock deadlines
 * for runaway tasks.
 *
 * Both are deliberately tiny and exception-based: a transient failure
 * anywhere in a task (an injected fault, a flaky cost-model backend, a
 * filesystem hiccup) surfaces as a thrown std::exception, and the
 * campaign layer decides whether to retry, skip or give up. The
 * helpers never call fatal(): a failed task must degrade to a
 * diagnosed skip, not kill the whole campaign.
 *
 * Telemetry: each retry sleep bumps the "util.retry.attempts" counter
 * when the global util::Telemetry is enabled.
 */

#ifndef AUTOPILOT_UTIL_RETRY_H
#define AUTOPILOT_UTIL_RETRY_H

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace autopilot::util
{

/** Thrown when a Deadline expires; never retried by retryWithBackoff. */
class DeadlineExceeded : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Wall-clock budget anchored at construction (steady_clock, so system
 * clock adjustments cannot expire a task early). Default-constructed
 * deadlines are unlimited and never expire.
 */
class Deadline
{
  public:
    /** Unlimited: expired() is always false. */
    Deadline() = default;

    /**
     * Deadline @p seconds from now; a non-positive (or NaN) budget
     * means unlimited (the "no deadline" encoding used by config
     * structs). A budget past the clock's range saturates at its end.
     */
    static Deadline after(double seconds);

    bool unlimited() const { return !bounded; }

    /** True once the budget is spent. */
    bool expired() const;

    /** Seconds left; +infinity when unlimited, 0 when expired. */
    double remainingSeconds() const;

    /**
     * Throw DeadlineExceeded("<what>: deadline of <budget> s exceeded")
     * when expired; cheap no-op otherwise. Sprinkle between pipeline
     * phases for cooperative cancellation.
     */
    void check(const std::string &what) const;

  private:
    using Clock = std::chrono::steady_clock;

    bool bounded = false;
    double budgetSeconds = 0.0;
    Clock::time_point expiry{};
};

/** Backoff schedule and retry budget for retryWithBackoff(). */
struct RetryPolicy
{
    /// Total attempts including the first (must be >= 1).
    int maxAttempts = 3;
    /// Sleep before attempt 2; each further retry multiplies it.
    double initialBackoffSeconds = 0.02;
    double backoffMultiplier = 2.0;
    /// Ceiling on a single backoff sleep.
    double maxBackoffSeconds = 1.0;
    /**
     * Which failures are worth retrying; null retries everything
     * except DeadlineExceeded, which is terminal by definition (the
     * time is gone no matter how often we try).
     */
    std::function<bool(const std::exception &)> retryable;
};

/** Backoff sleep before attempt @p attempt (2-based); clamped. */
double retryBackoffSeconds(const RetryPolicy &policy, int attempt);

/** @cond internal: out-of-line pieces of retryWithBackoff. */
void validateRetryPolicy(const RetryPolicy &policy);
void sleepForRetry(const RetryPolicy &policy, int nextAttempt);
bool shouldRetry(const RetryPolicy &policy, const std::exception &error);
/** @endcond */

/**
 * Run @p fn (called with the 1-based attempt number) until it returns,
 * retrying retryable failures up to policy.maxAttempts total attempts
 * with exponential backoff between them. The last failure is rethrown
 * once the budget is exhausted; non-retryable failures (including any
 * DeadlineExceeded) are rethrown immediately.
 *
 * @param onRetry Optional observer invoked after a failed attempt that
 *        will be retried (with the attempt number that failed and the
 *        error), before the backoff sleep.
 */
template <typename Fn>
auto
retryWithBackoff(const RetryPolicy &policy, Fn &&fn,
                 const std::function<void(int, const std::exception &)>
                     &onRetry = {})
{
    validateRetryPolicy(policy);
    for (int attempt = 1;; ++attempt) {
        try {
            return fn(attempt);
        } catch (const std::exception &error) {
            if (attempt >= policy.maxAttempts ||
                !shouldRetry(policy, error))
                throw;
            if (onRetry)
                onRetry(attempt, error);
            sleepForRetry(policy, attempt + 1);
        }
    }
}

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_RETRY_H
