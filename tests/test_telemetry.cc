/**
 * @file
 * Tests for the run-telemetry subsystem: instrument semantics
 * (Counter/Gauge/Histogram), the MetricsRegistry, trace spans and their
 * Chrome trace-event JSON export, concurrent updates through the thread
 * pool, and the end-to-end contract that a telemetry-enabled pipeline
 * run emits the expected spans and cache counters.
 *
 * Telemetry is process-global, so every test runs under a fixture that
 * resets the registry/trace and restores the enabled flag.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "airlearning/trainer.h"
#include "core/autopilot.h"
#include "core/report.h"
#include "dse/evaluator.h"
#include "io/csv.h"
#include "io/json.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

#include "shared_fixtures.h"

namespace util = autopilot::util;
namespace io = autopilot::io;
namespace al = autopilot::airlearning;
namespace dse = autopilot::dse;
namespace core = autopilot::core;

using autopilot::fixtures::sharedDatabase;
using autopilot::fixtures::distinctEncodings;

namespace
{

/** Reset global telemetry around each test (it is process-wide). */
class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        util::Telemetry::instance().reset();
        util::Telemetry::instance().setEnabled(false);
    }

    void TearDown() override
    {
        util::Telemetry::instance().reset();
        util::Telemetry::instance().setEnabled(false);
    }
};

} // namespace

// -------------------------------------------------------- instruments ----

TEST_F(TelemetryTest, CounterAccumulates)
{
    util::Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
}

TEST_F(TelemetryTest, GaugeTracksValueAndHighWater)
{
    util::Gauge gauge;
    EXPECT_EQ(gauge.value(), 0);
    gauge.set(7);
    gauge.add(3);
    EXPECT_EQ(gauge.value(), 10);
    EXPECT_EQ(gauge.maxValue(), 10);
    gauge.add(-6);
    EXPECT_EQ(gauge.value(), 4);
    EXPECT_EQ(gauge.maxValue(), 10); // High water sticks.
    gauge.set(2);
    EXPECT_EQ(gauge.value(), 2);
    EXPECT_EQ(gauge.maxValue(), 10);
}

TEST_F(TelemetryTest, HistogramAggregates)
{
    util::Histogram hist;
    for (const double sample : {0.5, 1.0, 5.0, 50.0, 500.0})
        hist.record(sample);

    EXPECT_EQ(hist.count(), 5u);
    EXPECT_DOUBLE_EQ(hist.sum(), 556.5);
    EXPECT_DOUBLE_EQ(hist.min(), 0.5);
    EXPECT_DOUBLE_EQ(hist.max(), 500.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 556.5 / 5.0);
}

TEST_F(TelemetryTest, EmptyHistogramReportsZeros)
{
    util::Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
    EXPECT_DOUBLE_EQ(hist.max(), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

// ------------------------------------------------------------ registry ----

TEST_F(TelemetryTest, RegistryReturnsSameInstrumentForSameName)
{
    util::MetricsRegistry registry;
    util::Counter &a = registry.counter("events");
    util::Counter &b = registry.counter("events");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);

    util::Histogram &h1 = registry.histogram("lat");
    util::Histogram &h2 = registry.histogram("lat");
    EXPECT_EQ(&h1, &h2);
}

TEST_F(TelemetryTest, RegistrySnapshotSortedAndTyped)
{
    util::MetricsRegistry registry;
    registry.counter("z.count").add(5);
    registry.gauge("a.depth").set(3);
    registry.histogram("m.lat").record(0.25);

    const std::vector<util::MetricSample> samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "a.depth");
    EXPECT_EQ(samples[0].kind, "gauge");
    EXPECT_EQ(samples[1].name, "m.lat");
    EXPECT_EQ(samples[1].kind, "histogram");
    EXPECT_EQ(samples[2].name, "z.count");
    EXPECT_EQ(samples[2].kind, "counter");
    EXPECT_DOUBLE_EQ(samples[2].value, 5.0);
    EXPECT_DOUBLE_EQ(samples[1].value, 0.25); // Histogram mean.

    const util::MetricSample found = registry.find("z.count");
    EXPECT_EQ(found.kind, "counter");
    EXPECT_EQ(found.count, 5u);
    EXPECT_EQ(registry.find("missing").kind, "");
}

TEST_F(TelemetryTest, RegistryCsvRoundTrips)
{
    util::MetricsRegistry registry;
    registry.counter("dse.cache.hit").add(12);
    registry.gauge("pool.queue_depth").set(4);
    registry.histogram("dse.simulate_s").record(0.5);

    std::ostringstream csv;
    registry.writeCsv(csv);
    std::istringstream is(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(io::splitCsvLine(line),
              (std::vector<std::string>{"name", "kind", "count", "sum",
                                        "min", "max", "value"}));
    std::size_t rows = 0;
    bool saw_counter = false;
    while (std::getline(is, line)) {
        const std::vector<std::string> row = io::splitCsvLine(line);
        ASSERT_EQ(row.size(), 7u) << line;
        ++rows;
        if (row[0] != "dse.cache.hit")
            continue;
        saw_counter = true;
        EXPECT_EQ(row[1], "counter");
        long long count = 0;
        double value = 0.0;
        EXPECT_EQ(io::tryParseInt64(row[2], count), "");
        EXPECT_EQ(io::tryParseDouble(row[6], value), "");
        EXPECT_EQ(count, 12);
        EXPECT_DOUBLE_EQ(value, 12.0);
    }
    EXPECT_EQ(rows, 3u);
    EXPECT_TRUE(saw_counter);
}

// --------------------------------------------------------- timing/trace ----

TEST_F(TelemetryTest, ScopedTimerRecordsIntoHistogram)
{
    util::Histogram hist;
    {
        util::ScopedTimer timer(&hist);
        EXPECT_GE(timer.elapsedSeconds(), 0.0);
    }
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_GE(hist.sum(), 0.0);

    util::ScopedTimer timer(&hist);
    const double elapsed = timer.stop();
    EXPECT_GE(elapsed, 0.0);
    EXPECT_EQ(hist.count(), 2u); // stop() records exactly once...
    {
        // ...and destruction afterwards must not double-record.
    }
}

TEST_F(TelemetryTest, NullScopedTimerIsNoOp)
{
    util::ScopedTimer timer(nullptr);
    EXPECT_DOUBLE_EQ(timer.elapsedSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(timer.stop(), 0.0);
}

TEST_F(TelemetryTest, TraceLogRecordsSortedEvents)
{
    util::TraceLog log;
    log.record("late", "test", 200, 10);
    log.record("early", "test", 100, 50);
    ASSERT_EQ(log.eventCount(), 2u);
    const std::vector<util::TraceEvent> events = log.events();
    EXPECT_EQ(events[0].name, "early");
    EXPECT_EQ(events[1].name, "late");
    EXPECT_EQ(events[0].durationUs, 50);
    log.clear();
    EXPECT_EQ(log.eventCount(), 0u);
}

TEST_F(TelemetryTest, TraceSpanRespectsEnabledFlag)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    {
        util::TraceSpan span("disabled.span", "test");
    }
    EXPECT_EQ(telemetry.trace().eventCount(), 0u);

    telemetry.setEnabled(true);
    {
        util::TraceSpan span("enabled.span", "test");
    }
    ASSERT_EQ(telemetry.trace().eventCount(), 1u);
    EXPECT_EQ(telemetry.trace().events()[0].name, "enabled.span");
}

TEST_F(TelemetryTest, ChromeTraceJsonSchema)
{
    util::TraceLog log;
    log.record("simulate \"fast\"", "dse", 10, 5);
    log.record("phase1\nsetup", "autopilot", 0, 100);

    std::ostringstream os;
    log.writeChromeTrace(os);
    const io::JsonValue doc = io::parseJson(os.str());

    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const io::JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.size(), 2u);
    std::set<std::string> names;
    for (const io::JsonValue &event : events.asArray()) {
        EXPECT_EQ(event.at("ph").asString(), "X");
        EXPECT_TRUE(event.at("ts").isNumber());
        EXPECT_TRUE(event.at("dur").isNumber());
        EXPECT_TRUE(event.at("pid").isNumber());
        EXPECT_TRUE(event.at("tid").isNumber());
        EXPECT_TRUE(event.at("cat").isString());
        names.insert(event.at("name").asString());
    }
    // The escaped quote and newline must survive the round-trip.
    EXPECT_TRUE(names.count("simulate \"fast\""));
    EXPECT_TRUE(names.count("phase1\nsetup"));
}

// ---------------------------------------------------------- concurrency ----

TEST_F(TelemetryTest, ConcurrentUpdatesAreLossless)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.setEnabled(true);
    util::Counter &counter = telemetry.metrics().counter("hammer.count");
    util::Histogram &hist = telemetry.metrics().histogram("hammer.lat");
    util::Gauge &gauge = telemetry.metrics().gauge("hammer.depth");

    constexpr std::size_t kTasks = 2000;
    {
        // Scope: the pool destructor drains queued helper tasks and
        // joins the workers, so the pool metrics below are final
        // (parallelFor itself only waits for the iterations).
        util::ThreadPool pool(4);
        pool.parallelFor(kTasks, [&](std::size_t i) {
            counter.add();
            hist.record(static_cast<double>(i % 7) * 1e-4);
            gauge.add(1);
            gauge.add(-1);
            util::TraceSpan span("hammer.task", "test");
        });
        auto submitted = pool.submit([&] { counter.add(0); });
        submitted.get();
    }

    EXPECT_EQ(counter.value(), kTasks);
    EXPECT_EQ(hist.count(), kTasks);
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_GE(gauge.maxValue(), 1);
    EXPECT_EQ(telemetry.trace().eventCount(), kTasks);

    // The instrumented pool recorded its own task metrics too: one
    // helper per worker for the parallelFor plus the one submit, each
    // waited for and run exactly once.
    constexpr std::uint64_t kPoolTasks = 4 + 1;
    EXPECT_EQ(telemetry.metrics().find("pool.tasks").count, kPoolTasks);
    EXPECT_EQ(telemetry.metrics().find("pool.queue_wait_s").count,
              kPoolTasks);
    EXPECT_EQ(telemetry.metrics().find("pool.task_run_s").count,
              kPoolTasks);
    EXPECT_EQ(telemetry.metrics().find("pool.steals").count, 0u);
}

// ------------------------------------------------------------ pipeline ----

TEST_F(TelemetryTest, EvaluatorCountersMatchCacheStats)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.setEnabled(true);

    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    util::ThreadPool pool(4);
    evaluator.setThreadPool(&pool);

    const std::vector<dse::Encoding> first = distinctEncodings(24, 7);
    evaluator.evaluateBatch(first);
    // Second batch: half repeats (cache hits), half new points.
    std::vector<dse::Encoding> second(first.begin(),
                                      first.begin() + 12);
    const std::vector<dse::Encoding> extra = distinctEncodings(36, 7);
    second.insert(second.end(), extra.begin() + 24, extra.end());
    evaluator.evaluateBatch(second);

    const dse::CacheStats stats = evaluator.cacheStats();
    EXPECT_EQ(stats.requests(), 24u + 24u);
    EXPECT_EQ(telemetry.metrics().find("dse.cache.hit").count,
              stats.hits);
    EXPECT_EQ(telemetry.metrics().find("dse.cache.miss").count,
              stats.misses);
    // Every miss is simulated exactly once, and timed once.
    EXPECT_EQ(telemetry.metrics().find("dse.simulate_s").count,
              stats.misses);
}

TEST_F(TelemetryTest, PipelineRunEmitsPhaseAndSimulateSpans)
{
    core::TaskSpec task;
    task.density = al::ObstacleDensity::Dense;
    task.validationEpisodes = 40;
    task.dseBudget = 16;
    task.threads = 2;
    task.telemetry = true;
    core::AutoPilot pilot(task);
    EXPECT_TRUE(util::Telemetry::instance().enabled());

    const core::AutoPilotRun run =
        pilot.designFor(autopilot::uav::zhangNano());
    EXPECT_FALSE(run.candidates.empty());

    std::set<std::string> names;
    for (const util::TraceEvent &event :
         util::Telemetry::instance().trace().events())
        names.insert(event.name);
    EXPECT_TRUE(names.count("phase1"));
    EXPECT_TRUE(names.count("phase2"));
    EXPECT_TRUE(names.count("phase3"));
    EXPECT_TRUE(names.count("phase1.train_policy"));
    EXPECT_TRUE(names.count("dse.simulate"));
    EXPECT_TRUE(names.count("dse.evaluateBatch"));

    // The report gains a telemetry summary when enabled.
    std::ostringstream report;
    core::printRunReport(run, report);
    EXPECT_NE(report.str().find("Run telemetry:"), std::string::npos);
    EXPECT_NE(report.str().find("dse.cache.miss"), std::string::npos);
}
