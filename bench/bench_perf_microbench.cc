/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: the two
 * systolic engines, the GP surrogate, hypervolume, episode rollouts, and
 * the batch-parallel evaluation core at 1/2/4/8 worker threads. These
 * quantify the cost of one Phase 2 evaluation and one Phase 1 validation
 * - the quantities that set AutoPilot's end-to-end runtime - and the
 * wall-clock speedup evaluateBatch() buys on a cold memo cache.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "airlearning/rollout.h"
#include "airlearning/trainer.h"
#include "dram/config.h"
#include "dram/engine.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "dse/gaussian_process.h"
#include "dse/hypervolume.h"
#include "io/journal.h"
#include "nn/e2e_template.h"
#include "power/npu_power.h"
#include "systolic/cycle_engine.h"
#include "systolic/engine.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

using namespace autopilot;

namespace
{

systolic::AcceleratorConfig
midConfig()
{
    systolic::AcceleratorConfig config;
    config.peRows = 32;
    config.peCols = 32;
    config.ifmapSramKb = 256;
    config.filterSramKb = 256;
    config.ofmapSramKb = 256;
    return config;
}

void
BM_AnalyticalEngineFullModel(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::AnalyticalEngine engine(midConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(model).totalCycles);
    }
}
BENCHMARK(BM_AnalyticalEngineFullModel);

void
BM_CycleEngineFullModel(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::CycleEngine engine(midConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(model).totalCycles);
    }
}
BENCHMARK(BM_CycleEngineFullModel);

void
BM_DramChannelLayer(benchmark::State &state)
{
    // One bank-level DramCycleEngine pass over the (5, 32) E2E policy
    // plus a layer that spills every scratchpad, sharing the channel
    // with the paper's camera (400 MB/s, linear) and host (200 MB/s,
    // random) streams. Nearly every burst is background traffic, so
    // ns_per_burst is the per-burst cost of the channel arbiter.
    std::vector<nn::Layer> layers = nn::buildE2EModel({5, 32}).layers();
    layers.push_back(nn::conv2d("spill", 128, 128, 48, 3, 1, 96));
    systolic::AcceleratorConfig config;
    config.peRows = config.peCols = 16;
    config.ifmapSramKb = config.filterSramKb = config.ofmapSramKb = 64;
    const dram::DramSpec spec =
        dram::uavDramSpec(dram::DramTiming{}, 400e6, 200e6);
    double bursts = 0.0;
    double nanoseconds = 0.0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        const dram::DramCycleEngine engine(config, spec);
        std::int64_t cycles = 0;
        for (const nn::Layer &layer : layers)
            cycles += engine.runLayer(layer).totalCycles;
        benchmark::DoNotOptimize(cycles);
        nanoseconds += std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        const dram::ChannelStats &stats = engine.runStats();
        bursts += static_cast<double>(stats.npuRequests +
                                      stats.backgroundRequests);
    }
    state.counters["bursts"] =
        benchmark::Counter(bursts, benchmark::Counter::kAvgIterations);
    state.counters["ns_per_burst"] = nanoseconds / bursts;
}
BENCHMARK(BM_DramChannelLayer)->Unit(benchmark::kMillisecond);

void
BM_NpuPowerEstimate(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::AnalyticalEngine engine(midConfig());
    const systolic::RunResult run = engine.run(model);
    const power::NpuPowerModel npu(midConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(npu.averagePowerW(run));
    }
}
BENCHMARK(BM_NpuPowerEstimate);

void
BM_GpFitPredict(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(5);
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> targets(3); // One per objective.
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(7);
        for (double &v : x)
            v = rng.uniform();
        inputs.push_back(x);
        for (std::vector<double> &column : targets)
            column.push_back(rng.normal());
    }
    const std::vector<double> query(7, 0.5);
    for (auto _ : state) {
        dse::GaussianProcess gp;
        gp.fit(inputs, targets);
        benchmark::DoNotOptimize(gp.predict(query).front().mean);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GpFitPredict)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void
BM_Hypervolume3D(benchmark::State &state)
{
    util::Rng rng(9);
    std::vector<dse::Objectives> points;
    for (int i = 0; i < state.range(0); ++i)
        points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const dse::Objectives reference = {1.0, 1.0, 1.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(dse::hypervolume(points, reference));
    }
}
BENCHMARK(BM_Hypervolume3D)->Arg(16)->Arg(64)->Arg(256);

void
BM_HypervolumeContribution(benchmark::State &state)
{
    // One candidate against a fixed non-dominated front, sweep built
    // outside the loop: the per-candidate cost of the SMS-EGO screen.
    util::Rng rng(9);
    std::vector<dse::Objectives> front;
    while (front.size() < static_cast<std::size_t>(state.range(0))) {
        // Points on the simplex x + y + z = 1 are mutually
        // non-dominated.
        const double a = rng.uniform();
        const double b = rng.uniform() * (1.0 - a);
        front.push_back({a, b, 1.0 - a - b});
    }
    const dse::Objectives reference = {1.0, 1.0, 1.0};
    const dse::HypervolumeContribution gain(front, reference);
    // Just inside the front's centroid, so the candidate splits a middle
    // slab and re-sweeps the slabs above it.
    dse::Objectives candidate(3, 0.0);
    for (const dse::Objectives &point : front)
        for (std::size_t d = 0; d < 3; ++d)
            candidate[d] += 0.9 * point[d] / front.size();
    for (auto _ : state) {
        benchmark::DoNotOptimize(gain(candidate));
    }
}
BENCHMARK(BM_HypervolumeContribution)->Arg(16)->Arg(64)->Arg(256);

void
BM_RolloutEpisode(benchmark::State &state)
{
    const auto env_config = airlearning::EnvironmentConfig::forDensity(
        airlearning::ObstacleDensity::Dense);
    const airlearning::EnvironmentGenerator generator(env_config);
    const auto capability =
        airlearning::PolicyCapability::fromQuality(0.7);
    util::Rng rng(11);
    const airlearning::Environment env = generator.generate(rng);
    for (auto _ : state) {
        util::Rng episode_rng(state.iterations());
        benchmark::DoNotOptimize(
            airlearning::runEpisode(env, capability,
                                    airlearning::RolloutConfig(),
                                    episode_rng)
                .steps);
    }
}
BENCHMARK(BM_RolloutEpisode);

void
BM_PolicyValidation(benchmark::State &state)
{
    const auto env_config = airlearning::EnvironmentConfig::forDensity(
        airlearning::ObstacleDensity::Medium);
    const auto capability =
        airlearning::PolicyCapability::fromQuality(0.7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            airlearning::evaluatePolicy(env_config, capability, 50, 7)
                .successes);
    }
}
BENCHMARK(BM_PolicyValidation);

const autopilot::airlearning::PolicyDatabase &
benchDatabase()
{
    static const autopilot::airlearning::PolicyDatabase db = [] {
        autopilot::airlearning::TrainerConfig config;
        config.validationEpisodes = 30;
        const autopilot::airlearning::Trainer trainer(config);
        autopilot::airlearning::PolicyDatabase built;
        trainer.trainAll(nn::PolicySpace(),
                         autopilot::airlearning::ObstacleDensity::Dense,
                         built);
        return built;
    }();
    return db;
}

/**
 * Cold-cache batch evaluation of 128 distinct design points at N worker
 * threads: the serial-vs-parallel throughput comparison for one
 * optimizer generation. Arg(1) runs without a pool (the strictly serial
 * path); wall-clock time is what matters, hence UseRealTime.
 */
void
BM_BatchEvaluate128(benchmark::State &state)
{
    const std::size_t threads =
        static_cast<std::size_t>(state.range(0));
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBA7C);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 128) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(threads);

    // Collect the evaluator/pool telemetry for this thread count so the
    // benchmark report shows where the wall-clock goes (queue wait vs
    // task run) next to the throughput numbers.
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);

    for (auto _ : state) {
        state.PauseTiming(); // Fresh evaluator => cold memo cache.
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense);
        evaluator->setThreadPool(pool.get());
        state.ResumeTiming();

        const auto results = evaluator->evaluateBatch(points);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            128);

    if (pool)
        pool->shutdown(); // Quiesce task epilogues before reading.
    telemetry.setEnabled(false);
    const util::MetricsRegistry &metrics = telemetry.metrics();
    const util::MetricSample hits = metrics.find("dse.cache.hit");
    const util::MetricSample misses = metrics.find("dse.cache.miss");
    const util::MetricSample tasks = metrics.find("pool.tasks");
    const util::MetricSample run_s = metrics.find("pool.task_run_s");
    const util::MetricSample wait_s = metrics.find("pool.queue_wait_s");
    const util::MetricSample sim_s = metrics.find("dse.simulate_s");
    state.counters["cache_hits"] =
        benchmark::Counter(static_cast<double>(hits.count));
    state.counters["cache_misses"] =
        benchmark::Counter(static_cast<double>(misses.count));
    state.counters["pool_tasks"] =
        benchmark::Counter(static_cast<double>(tasks.count));
    auto mean_ms = [](const util::MetricSample &sample) {
        return sample.count == 0
                   ? 0.0
                   : sample.sum / static_cast<double>(sample.count) *
                         1e3;
    };
    state.counters["task_run_ms_mean"] =
        benchmark::Counter(mean_ms(run_s));
    state.counters["queue_wait_ms_mean"] =
        benchmark::Counter(mean_ms(wait_s));
    state.counters["simulate_ms_mean"] =
        benchmark::Counter(mean_ms(sim_s));
    telemetry.reset();
}
BENCHMARK(BM_BatchEvaluate128)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Cold-cache batch evaluation of 160 distinct points through each
 * cost-model backend at 4 worker threads (the bench_engine_validation
 * pool): the per-generation price of fidelity. The cycle_sims counter
 * shows how many cycle-accurate engine runs each backend paid for the
 * batch - the quantity the tiered backend exists to conserve (0 for
 * analytical, 160 for cycle, only the Pareto-competitive subset for
 * tiered).
 */
void
BM_BackendBatchEvaluate160(benchmark::State &state,
                           const char *backend_name)
{
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBEC0);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 160) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    util::ThreadPool pool(4);
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);

    std::size_t promoted_total = 0;
    for (auto _ : state) {
        state.PauseTiming(); // Fresh evaluator => cold memo cache.
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense,
            backend_name);
        evaluator->setThreadPool(&pool);
        state.ResumeTiming();

        const auto results = evaluator->evaluateBatch(points);
        benchmark::DoNotOptimize(results.data());

        state.PauseTiming();
        if (const auto *tiered = dynamic_cast<const dse::TieredBackend *>(
                &evaluator->backend()))
            promoted_total += tiered->promotedCount();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 160);

    pool.shutdown(); // Quiesce task epilogues before reading.
    telemetry.setEnabled(false);
    const std::string name(backend_name);
    double cycle_sims = 0.0;
    if (name == "cycle")
        cycle_sims = 160.0;
    else if (name == "tiered")
        cycle_sims = static_cast<double>(promoted_total) /
                     static_cast<double>(state.iterations());
    state.counters["cycle_sims"] = benchmark::Counter(cycle_sims);
    telemetry.reset();
}
BENCHMARK_CAPTURE(BM_BackendBatchEvaluate160, analytical, "analytical")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendBatchEvaluate160, cycle, "cycle")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendBatchEvaluate160, tiered, "tiered")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Claiming sweep: a cheap per-iteration body over 64k indices at 8
 * workers, so every index is its own fetch_add and latch count-down
 * and the claim itself is what gets timed. queue_wait_ms_mean tracks
 * how long helper tasks sat in the pool queue before draining.
 */
void
BM_ParallelFor(benchmark::State &state)
{
    constexpr std::size_t n = 1 << 16;
    util::ThreadPool pool(8);
    std::vector<double> data(n, 1.0);

    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);

    for (auto _ : state) {
        pool.parallelFor(n, [&](std::size_t i) {
            benchmark::DoNotOptimize(data[i] += 1.0);
        });
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));

    pool.shutdown(); // Quiesce late helper tasks before reading.
    telemetry.setEnabled(false);
    const util::MetricsRegistry &metrics = telemetry.metrics();
    const util::MetricSample wait_s = metrics.find("pool.queue_wait_s");
    const util::MetricSample tasks = metrics.find("pool.tasks");
    state.counters["pool_tasks"] =
        benchmark::Counter(static_cast<double>(tasks.count));
    state.counters["queue_wait_ms_mean"] = benchmark::Counter(
        wait_s.count == 0
            ? 0.0
            : wait_s.sum / static_cast<double>(wait_s.count) * 1e3);
    telemetry.reset();
}
BENCHMARK(BM_ParallelFor)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Per-batch journal flush overhead: the BM_BatchEvaluate128 workload
 * (cold cache, serial) with Arg(1) attaching an EvalJournalWriter sink
 * that appends+flushes the batch, Arg(0) running journal-free. The
 * delta between the two is what checkpoint durability costs one
 * optimizer generation - the ISSUE budget is < 5 % of the no-journal
 * batch time.
 */
void
BM_JournalAppend(benchmark::State &state)
{
    const bool journaled = state.range(0) != 0;
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBA7C);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 128) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    const std::string path =
        (std::filesystem::temp_directory_path() /
         "autopilot_bench_journal.csv")
            .string();

    for (auto _ : state) {
        state.PauseTiming(); // Fresh evaluator => cold memo cache.
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense);
        std::unique_ptr<io::EvalJournalWriter> writer;
        if (journaled) {
            writer = std::make_unique<io::EvalJournalWriter>(path, 0x1);
            evaluator->setJournalSink(
                [&writer](std::span<const dse::Evaluation> batch) {
                    writer->append(batch);
                });
        }
        state.ResumeTiming();

        const auto results = evaluator->evaluateBatch(points);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            128);
    std::filesystem::remove(path);
}
BENCHMARK(BM_JournalAppend)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Resume warm-start cost: replaying a 128-row journal prefix into a
 * fresh evaluator (preload: cache inserts + backend warm-start) versus
 * re-simulating the same 128 points from scratch (the work a resume
 * avoids). The ratio is the payoff of checkpoint/resume for one
 * generation-sized prefix; tiered replays re-screen analytically, so
 * they cost more than analytical replays but still skip every cycle-
 * accurate run.
 */
void
BM_ResumeWarmStart(benchmark::State &state, const char *backend_name)
{
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBA7C);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 128) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    // The "journal": one uninterrupted run's evaluations.
    dse::DseEvaluator source(
        db, autopilot::airlearning::ObstacleDensity::Dense,
        backend_name);
    source.evaluateBatch(points);
    const std::vector<dse::Evaluation> journal =
        source.allEvaluations();

    for (auto _ : state) {
        state.PauseTiming();
        auto resumed = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense,
            backend_name);
        state.ResumeTiming();

        resumed->preload(journal);
        benchmark::DoNotOptimize(resumed->evaluationCount());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            128);
}
BENCHMARK_CAPTURE(BM_ResumeWarmStart, analytical, "analytical")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResumeWarmStart, tiered, "tiered")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
