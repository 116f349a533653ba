#include "util/telemetry.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "util/table.h"

namespace autopilot::util
{

namespace
{

/** Lower a double atomically (CAS loop). */
void
atomicMin(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

/** Raise a double atomically (CAS loop). */
void
atomicMax(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

/** Accumulate into a double atomically (CAS loop). */
void
atomicAdd(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + value,
                                         std::memory_order_relaxed)) {
    }
}

/** Compact round-trippable decimal rendering for CSV cells. */
std::string
formatCompact(double value)
{
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
}

} // namespace

// ------------------------------------------------------------- gauge ----

void
Gauge::set(std::int64_t value)
{
    current.store(value, std::memory_order_relaxed);
    raiseHighWater(value);
}

void
Gauge::add(std::int64_t delta)
{
    const std::int64_t value =
        current.fetch_add(delta, std::memory_order_relaxed) + delta;
    raiseHighWater(value);
}

void
Gauge::raiseHighWater(std::int64_t value)
{
    std::int64_t seen = highWater.load(std::memory_order_relaxed);
    while (value > seen &&
           !highWater.compare_exchange_weak(seen, value,
                                            std::memory_order_relaxed)) {
    }
}

// --------------------------------------------------------- histogram ----

void
Histogram::record(double value)
{
    samples.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(total, value);
    atomicMin(lowest, value);
    atomicMax(highest, value);
}

double
Histogram::min() const
{
    return count() == 0 ? 0.0 : lowest.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return count() == 0 ? 0.0 : highest.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

// ---------------------------------------------------------- registry ----

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<Counter> &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<Gauge> &slot = gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<Histogram> &slot = histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<MetricSample>
MetricsRegistry::snapshot() const
{
    std::vector<MetricSample> samples;
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[name, counter] : counters) {
        MetricSample sample;
        sample.name = name;
        sample.kind = "counter";
        sample.count = counter->value();
        sample.sum = static_cast<double>(counter->value());
        sample.value = static_cast<double>(counter->value());
        samples.push_back(std::move(sample));
    }
    for (const auto &[name, gauge] : gauges) {
        MetricSample sample;
        sample.name = name;
        sample.kind = "gauge";
        sample.max = static_cast<double>(gauge->maxValue());
        sample.value = static_cast<double>(gauge->value());
        samples.push_back(std::move(sample));
    }
    for (const auto &[name, histogram] : histograms) {
        MetricSample sample;
        sample.name = name;
        sample.kind = "histogram";
        sample.count = histogram->count();
        sample.sum = histogram->sum();
        sample.min = histogram->min();
        sample.max = histogram->max();
        sample.value = histogram->mean();
        samples.push_back(std::move(sample));
    }
    std::sort(samples.begin(), samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return samples;
}

MetricSample
MetricsRegistry::find(const std::string &name) const
{
    for (const MetricSample &sample : snapshot()) {
        if (sample.name == name)
            return sample;
    }
    return MetricSample{};
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    Table table({"name", "kind", "count", "sum", "min", "max", "value"});
    for (const MetricSample &sample : snapshot()) {
        table.addRow({sample.name, sample.kind,
                      std::to_string(sample.count),
                      formatCompact(sample.sum), formatCompact(sample.min),
                      formatCompact(sample.max),
                      formatCompact(sample.value)});
    }
    table.printCsv(os);
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    // Retire instead of free: a worker that resolved a handle before
    // this clear may still be mid-update (e.g. a pool task epilogue
    // racing a benchmark's telemetry reset); its writes must land in
    // orphaned storage, not freed memory. The generation bump makes
    // cached handles re-resolve on their next use.
    for (auto &entry : counters)
        retired.push_back(std::shared_ptr<void>(std::move(entry.second)));
    for (auto &entry : gauges)
        retired.push_back(std::shared_ptr<void>(std::move(entry.second)));
    for (auto &entry : histograms)
        retired.push_back(std::shared_ptr<void>(std::move(entry.second)));
    counters.clear();
    gauges.clear();
    histograms.clear();
    gen.fetch_add(1, std::memory_order_release);
}

// --------------------------------------------------------- trace log ----

namespace
{

std::uint64_t
nextLogId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

TraceLog::TraceLog()
    : epoch(std::chrono::steady_clock::now()), logId(nextLogId())
{
}

std::int64_t
TraceLog::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

TraceLog::ThreadBuffer &
TraceLog::localBuffer()
{
    // Keyed by log id, not address, so a TraceLog recreated at the same
    // address cannot inherit another log's buffer.
    thread_local std::unordered_map<std::uint64_t,
                                    std::shared_ptr<ThreadBuffer>>
        cache;
    std::shared_ptr<ThreadBuffer> &slot = cache[logId];
    if (!slot) {
        slot = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(buffersMutex);
        slot->tid = nextTid++;
        buffers.push_back(slot);
    }
    return *slot;
}

void
TraceLog::record(std::string name, std::string category,
                 std::int64_t start_us, std::int64_t duration_us)
{
    ThreadBuffer &buffer = localBuffer();
    TraceEvent event;
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = buffer.tid;
    event.startUs = start_us;
    event.durationUs = duration_us;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceLog::events() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> snapshot;
    {
        std::lock_guard<std::mutex> lock(buffersMutex);
        snapshot = buffers;
    }
    std::vector<TraceEvent> all;
    for (const std::shared_ptr<ThreadBuffer> &buffer : snapshot) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        all.insert(all.end(), buffer->events.begin(),
                   buffer->events.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.startUs < b.startUs;
                     });
    return all;
}

std::size_t
TraceLog::eventCount() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> snapshot;
    {
        std::lock_guard<std::mutex> lock(buffersMutex);
        snapshot = buffers;
    }
    std::size_t count = 0;
    for (const std::shared_ptr<ThreadBuffer> &buffer : snapshot) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        count += buffer->events.size();
    }
    return count;
}

namespace
{

/** JSON string escaping (quotes, backslashes, control characters). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char ch : text) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                std::ostringstream os;
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(ch);
                out += os.str();
            } else {
                out += ch;
            }
        }
    }
    return out;
}

} // namespace

void
TraceLog::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &event : events()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << jsonEscape(event.name)
           << "\",\"cat\":\"" << jsonEscape(event.category)
           << "\",\"ph\":\"X\",\"ts\":" << event.startUs
           << ",\"dur\":" << event.durationUs
           << ",\"pid\":1,\"tid\":" << event.tid << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
TraceLog::clear()
{
    std::lock_guard<std::mutex> lock(buffersMutex);
    for (const std::shared_ptr<ThreadBuffer> &buffer : buffers) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        buffer->events.clear();
    }
}

// ----------------------------------------------------------- facade ----

Telemetry &
Telemetry::instance()
{
    static Telemetry telemetry;
    return telemetry;
}

void
Telemetry::reset()
{
    registry.clear();
    traceLog.clear();
}

void
Telemetry::printSummary(std::ostream &os) const
{
    Table table({"metric", "kind", "count", "mean", "min", "max",
                 "value"});
    for (const MetricSample &sample : registry.snapshot()) {
        if (sample.kind == "histogram") {
            // Histograms hold latencies in seconds; print milliseconds.
            table.addRow({sample.name, sample.kind,
                          std::to_string(sample.count),
                          formatDouble(sample.value * 1e3, 3) + " ms",
                          formatDouble(sample.min * 1e3, 3) + " ms",
                          formatDouble(sample.max * 1e3, 3) + " ms",
                          formatDouble(sample.value * 1e3, 3) + " ms"});
        } else {
            table.addRow({sample.name, sample.kind,
                          std::to_string(sample.count), "-", "-",
                          formatCompact(sample.max),
                          formatCompact(sample.value)});
        }
    }
    table.print(os);
}

// ------------------------------------------------------ RAII helpers ----

ScopedTimer::ScopedTimer(Histogram *histogram) : target(histogram)
{
    if (target != nullptr)
        start = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer()
{
    stop();
}

double
ScopedTimer::stop()
{
    if (target == nullptr || stopped)
        return 0.0;
    stopped = true;
    const double seconds = elapsedSeconds();
    target->record(seconds);
    return seconds;
}

double
ScopedTimer::elapsedSeconds() const
{
    if (target == nullptr)
        return 0.0;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

TraceSpan::TraceSpan(const char *name, const char *category)
    : name(name), category(category),
      active(Telemetry::instance().enabled())
{
    if (active)
        startUs = Telemetry::instance().trace().nowUs();
}

TraceSpan::~TraceSpan()
{
    if (!active)
        return;
    TraceLog &log = Telemetry::instance().trace();
    log.record(name, category, startUs, log.nowUs() - startUs);
}

} // namespace autopilot::util
