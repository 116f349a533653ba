/**
 * @file
 * Run-telemetry subsystem: metrics and trace spans for the parallel
 * pipeline.
 *
 * Three pieces, all thread-safe:
 *
 *  - MetricsRegistry: named monotonic Counters, last-value Gauges (with a
 *    high-water mark) and count/sum/min/max Histograms. Instruments
 *    are created on first use and live for the registry's lifetime, so
 *    handles can be cached across calls.
 *  - TraceLog: completed spans ({name, category, tid, start, duration})
 *    recorded into per-thread buffers and exportable as a Chrome
 *    `chrome://tracing` / Perfetto-compatible trace-event JSON file.
 *  - Telemetry: the process-wide facade combining one registry and one
 *    trace log behind an atomic enabled flag. Everything is OFF by
 *    default; with telemetry disabled every instrumentation site reduces
 *    to one relaxed atomic load, so default output (and the golden
 *    tests) are byte-identical to an uninstrumented build.
 *
 * RAII helpers: ScopedTimer records a duration into a Histogram on
 * destruction; TraceSpan records a span into the global trace log for
 * the enclosing scope.
 *
 * Clocks are std::chrono::steady_clock throughout; trace timestamps are
 * microseconds since the log's epoch, so they are monotonic per process
 * and comparable across threads.
 */

#ifndef AUTOPILOT_UTIL_TELEMETRY_H
#define AUTOPILOT_UTIL_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace autopilot::util
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p delta (default 1) to the count. */
    void add(std::uint64_t delta = 1)
    {
        count.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return count.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> count{0};
};

/** Last-set instantaneous value plus its high-water mark. */
class Gauge
{
  public:
    /** Set the current value (and raise the high-water mark). */
    void set(std::int64_t value);

    /** Adjust the current value by @p delta. */
    void add(std::int64_t delta);

    std::int64_t value() const
    {
        return current.load(std::memory_order_relaxed);
    }

    /** Largest value ever observed by set()/add(). */
    std::int64_t maxValue() const
    {
        return highWater.load(std::memory_order_relaxed);
    }

  private:
    void raiseHighWater(std::int64_t value);

    std::atomic<std::int64_t> current{0};
    std::atomic<std::int64_t> highWater{0};
};

/**
 * Sample distribution summarised by its count, sum, min and max - the
 * aggregates every snapshot, CSV export and summary reads. Recording is
 * lock-free: one atomic add plus CAS loops for the floating-point
 * aggregates.
 */
class Histogram
{
  public:
    /** Record one sample. */
    void record(double value);

    std::uint64_t count() const
    {
        return samples.load(std::memory_order_relaxed);
    }

    double sum() const { return total.load(std::memory_order_relaxed); }

    /** Smallest recorded sample (0 when empty). */
    double min() const;

    /** Largest recorded sample (0 when empty). */
    double max() const;

    /** Arithmetic mean of the samples (0 when empty). */
    double mean() const;

  private:
    std::atomic<std::uint64_t> samples{0};
    std::atomic<double> total{0.0};
    std::atomic<double> lowest{std::numeric_limits<double>::infinity()};
    std::atomic<double> highest{-std::numeric_limits<double>::infinity()};
};

/** One row of a MetricsRegistry snapshot. */
struct MetricSample
{
    std::string name;
    std::string kind;   ///< "counter", "gauge" or "histogram".
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;   ///< Gauges report 0 / high-water in max.
    double max = 0.0;
    double value = 0.0; ///< Counter count, gauge value, histogram mean.
};

/**
 * Named instrument registry. Lookup takes a mutex; the returned
 * references stay valid for the registry's lifetime, so hot paths can
 * resolve a name once and update lock-free afterwards.
 */
class MetricsRegistry
{
  public:
    /** The counter named @p name, created on first use. */
    Counter &counter(const std::string &name);

    /** The gauge named @p name, created on first use. */
    Gauge &gauge(const std::string &name);

    /** The histogram named @p name, created on first use. */
    Histogram &histogram(const std::string &name);

    /** All instruments, sorted by name. */
    std::vector<MetricSample> snapshot() const;

    /** The sample for @p name, or a default-constructed one if absent. */
    MetricSample find(const std::string &name) const;

    /**
     * Write the snapshot as a flat CSV with header
     * `name,kind,count,sum,min,max,value`.
     */
    void writeCsv(std::ostream &os) const;

    /**
     * Drop every instrument from the registry. Outstanding handles
     * stay dereferenceable - cleared instruments are retired, not
     * freed, until the registry itself is destroyed - but they are
     * orphaned: updates through them are silently lost and they no
     * longer appear in snapshots. (A pool worker finishing its task
     * epilogue while a benchmark resets telemetry therefore records
     * into a retired instrument instead of freed memory.)
     */
    void clear();

    /**
     * Bumped by every clear(). Hot paths that cache instrument
     * references (the thread pool caches its per-task instruments per
     * worker) compare this against the generation they resolved under
     * and re-resolve on mismatch, so at most one task's samples land
     * in retired instruments after a clear().
     */
    std::uint64_t generation() const
    {
        return gen.load(std::memory_order_acquire);
    }

  private:
    mutable std::mutex mutex;
    std::atomic<std::uint64_t> gen{0};
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    /// Instruments dropped by clear(), kept alive so handles resolved
    /// before the clear never dangle. Grows by one generation's
    /// instruments per clear(); bounded in practice by how often tests
    /// and benchmarks reset telemetry.
    std::vector<std::shared_ptr<void>> retired;
};

/** One completed span. */
struct TraceEvent
{
    std::string name;
    std::string category;
    int tid = 0;                 ///< Log-assigned thread index.
    std::int64_t startUs = 0;    ///< Microseconds since the log epoch.
    std::int64_t durationUs = 0;
};

/**
 * Completed-span log with per-thread buffers.
 *
 * Each recording thread appends to its own mutex-guarded buffer (the
 * mutex is only ever contended by a concurrent events()/clear() walk),
 * so recording does not serialize worker threads against each other.
 */
class TraceLog
{
  public:
    TraceLog();

    /** Microseconds elapsed since the log was constructed. */
    std::int64_t nowUs() const;

    /** Record one completed span on the calling thread's buffer. */
    void record(std::string name, std::string category,
                std::int64_t start_us, std::int64_t duration_us);

    /** All events from all threads, sorted by start time. */
    std::vector<TraceEvent> events() const;

    /** Total number of recorded events. */
    std::size_t eventCount() const;

    /**
     * Write the log in Chrome trace-event JSON format (an object with a
     * "traceEvents" array of complete "X" events), loadable by
     * chrome://tracing and https://ui.perfetto.dev.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Drop all recorded events (buffers and thread ids are kept). */
    void clear();

  private:
    struct ThreadBuffer
    {
        std::mutex mutex;
        std::vector<TraceEvent> events;
        int tid = 0;
    };

    ThreadBuffer &localBuffer();

    std::chrono::steady_clock::time_point epoch;
    std::uint64_t logId;
    mutable std::mutex buffersMutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    int nextTid = 0;
};

/**
 * Process-wide telemetry context: one MetricsRegistry plus one TraceLog
 * behind an enabled flag. Instrumentation sites check enabled() (one
 * relaxed atomic load) and do nothing when telemetry is off.
 */
class Telemetry
{
  public:
    /** The process-wide instance. */
    static Telemetry &instance();

    void setEnabled(bool enabled)
    {
        on.store(enabled, std::memory_order_relaxed);
    }

    bool enabled() const { return on.load(std::memory_order_relaxed); }

    MetricsRegistry &metrics() { return registry; }
    const MetricsRegistry &metrics() const { return registry; }

    TraceLog &trace() { return traceLog; }
    const TraceLog &trace() const { return traceLog; }

    /** Clear metrics and trace (the enabled flag is left as is). */
    void reset();

    /**
     * Render the metrics snapshot as a human-readable aligned table
     * (name / kind / count / mean / min / max / value).
     */
    void printSummary(std::ostream &os) const;

  private:
    std::atomic<bool> on{false};
    MetricsRegistry registry;
    TraceLog traceLog;
};

/**
 * RAII wall-clock timer recording seconds into a Histogram.
 *
 * A null histogram makes the timer a no-op (the clock is not even
 * read), so call sites can write
 * `ScopedTimer t(enabled ? &hist : nullptr)`.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram *histogram);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Record now instead of at destruction; returns elapsed seconds. */
    double stop();

    /** Seconds since construction (0 for a no-op timer). */
    double elapsedSeconds() const;

  private:
    Histogram *target;
    std::chrono::steady_clock::time_point start;
    bool stopped = false;
};

/**
 * RAII trace span against the global Telemetry instance. The enabled
 * flag is sampled at construction; when telemetry is off the span costs
 * one atomic load and records nothing.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *category);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name;
    const char *category;
    bool active;
    std::int64_t startUs = 0;
};

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_TELEMETRY_H
