/**
 * @file
 * Tests for the batch-parallel evaluation core: the util::ThreadPool,
 * the memo cache of DseEvaluator::evaluateBatch, and the
 * hard determinism requirement that every optimizer produces a
 * byte-identical result with and without worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "airlearning/trainer.h"
#include "core/autopilot.h"
#include "dse/annealing.h"
#include "dse/bayesopt.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "dse/genetic.h"
#include "dse/optimizer.h"
#include "dse/random_search.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "shared_fixtures.h"

namespace dse = autopilot::dse;
namespace al = autopilot::airlearning;
namespace util = autopilot::util;

using autopilot::fixtures::sharedDatabase;
using autopilot::fixtures::distinctEncodings;

namespace
{

} // namespace

// --------------------------------------------------------- thread pool ----

TEST(ThreadPool, SubmitReturnsFutureResults)
{
    util::ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
    auto doubled = pool.submit([] { return 21 * 2; });
    auto greeting = pool.submit([] { return std::string("hi"); });
    EXPECT_EQ(doubled.get(), 42);
    EXPECT_EQ(greeting.get(), "hi");
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    util::ThreadPool pool(2);
    auto failing =
        pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> touched(n);
    pool.parallelFor(n, [&](std::size_t i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRethrowsFirstError)
{
    util::ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     64,
                     [](std::size_t i) {
                         if (i == 7)
                             throw std::runtime_error("bad iteration");
                     }),
                 std::runtime_error);
    // The pool must survive an erroring parallelFor.
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
        sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A pool task running its own parallelFor must not self-deadlock
    // even when the pool has a single worker.
    util::ThreadPool pool(1);
    std::atomic<int> total{0};
    auto outer = pool.submit([&] {
        pool.parallelFor(8, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    outer.get();
    EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, FreeFunctionRunsSeriallyWithoutPool)
{
    std::vector<std::size_t> order;
    util::parallel_for(nullptr, 5,
                       [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ----------------------------------------------------- concurrent cache ----

TEST(BatchEvaluator, FreshFlagsMarkFirstOccurrencesOnly)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    const auto points = distinctEncodings(3, 11);
    const std::vector<dse::Encoding> batch = {points[0], points[1],
                                              points[0], points[2],
                                              points[1]};
    const auto results = evaluator.evaluateBatch(batch);
    ASSERT_EQ(results.size(), 5u);
    EXPECT_TRUE(results[0].fresh);
    EXPECT_TRUE(results[1].fresh);
    EXPECT_FALSE(results[2].fresh);
    EXPECT_TRUE(results[3].fresh);
    EXPECT_FALSE(results[4].fresh);
    // Duplicates resolve to the same cached node.
    EXPECT_EQ(results[0].evaluation, results[2].evaluation);
    EXPECT_EQ(results[1].evaluation, results[4].evaluation);
    EXPECT_EQ(evaluator.evaluationCount(), 3u);

    const dse::CacheStats stats = evaluator.cacheStats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.requests(), 5u);

    // A later batch only pays for the genuinely new point.
    const auto next = evaluator.evaluateBatch(
        std::vector<dse::Encoding>{points[0], points[2]});
    EXPECT_FALSE(next[0].fresh);
    EXPECT_FALSE(next[1].fresh);
    EXPECT_EQ(evaluator.evaluationCount(), 3u);
}

TEST(BatchEvaluator, MatchesSerialEvaluateExactly)
{
    dse::DseEvaluator serial(sharedDatabase(),
                             al::ObstacleDensity::Dense);
    util::ThreadPool pool(4);
    dse::DseEvaluator parallel(sharedDatabase(),
                               al::ObstacleDensity::Dense);
    parallel.setThreadPool(&pool);

    const auto points = distinctEncodings(32, 23);
    const auto batch = parallel.evaluateBatch(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const dse::Evaluation &expected = serial.evaluate(points[i]);
        const dse::Evaluation &actual = *batch[i].evaluation;
        EXPECT_EQ(expected.objectives, actual.objectives);
        EXPECT_EQ(expected.latencyMs, actual.latencyMs);
        EXPECT_EQ(expected.socPowerW, actual.socPowerW);
        EXPECT_EQ(expected.fps, actual.fps);
    }
}

TEST(BatchEvaluator, AllEvaluationsReturnsFirstRequestOrder)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    util::ThreadPool pool(4);
    evaluator.setThreadPool(&pool);

    const auto points = distinctEncodings(10, 37);
    evaluator.evaluate(points[0]);
    evaluator.evaluateBatch(std::vector<dse::Encoding>{
        points[1], points[2], points[0], points[3]});
    evaluator.evaluate(points[4]);
    evaluator.evaluateBatch(std::vector<dse::Encoding>{
        points[5], points[4], points[6], points[7], points[8],
        points[9]});

    const std::vector<dse::Evaluation> all =
        evaluator.allEvaluations();
    ASSERT_EQ(all.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(all[i].encoding, points[i]) << "position " << i;
}

TEST(BatchEvaluator, ConcurrentHammerSimulatesEachPointOnce)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    util::ThreadPool pool(4);
    evaluator.setThreadPool(&pool);

    constexpr std::size_t distinct = 12;
    constexpr std::size_t callers = 8;
    constexpr std::size_t rounds = 16;
    const auto points = distinctEncodings(distinct, 51);

    // Every caller hammers the same distinct points, shuffled and
    // duplicated differently per round, racing both the pool workers
    // and each other on the cache lock.
    std::vector<std::thread> threads;
    threads.reserve(callers);
    std::atomic<std::uint64_t> requested{0};
    for (std::size_t t = 0; t < callers; ++t) {
        threads.emplace_back([&, t] {
            util::Rng rng(0x7A3B + t);
            for (std::size_t round = 0; round < rounds; ++round) {
                std::vector<dse::Encoding> batch;
                batch.reserve(2 * distinct);
                for (std::size_t rep = 0; rep < 2; ++rep)
                    for (const dse::Encoding &point : points)
                        batch.push_back(point);
                rng.shuffle(batch);
                requested.fetch_add(batch.size());
                const auto results = evaluator.evaluateBatch(batch);
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    ASSERT_NE(results[i].evaluation, nullptr);
                    EXPECT_EQ(results[i].evaluation->encoding,
                              batch[i]);
                }
            }
        });
    }
    // While the hammer runs, the counters must stay reconciled at every
    // instant: evaluationCount() always matches allEvaluations().
    std::atomic<bool> done{false};
    std::thread monitor([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::size_t before = evaluator.evaluationCount();
            const std::size_t snapshot =
                evaluator.allEvaluations().size();
            const std::size_t after = evaluator.evaluationCount();
            EXPECT_LE(before, snapshot);
            EXPECT_LE(snapshot, after);
            EXPECT_LE(after, distinct);
            std::this_thread::yield();
        }
    });
    for (std::thread &thread : threads)
        thread.join();
    done.store(true, std::memory_order_release);
    monitor.join();

    // Each distinct point was simulated exactly once process-wide.
    EXPECT_EQ(evaluator.evaluationCount(), distinct);
    EXPECT_EQ(evaluator.allEvaluations().size(),
              evaluator.evaluationCount());
    const dse::CacheStats stats = evaluator.cacheStats();
    EXPECT_EQ(stats.misses, distinct);
    EXPECT_EQ(stats.requests(), requested.load());
    EXPECT_EQ(stats.hits + stats.misses, requested.load());

    // Values agree with an independent serial evaluator.
    dse::DseEvaluator reference(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    for (const dse::Encoding &point : points) {
        EXPECT_EQ(evaluator.evaluate(point).objectives,
                  reference.evaluate(point).objectives);
    }
}

namespace
{

/** Field-exact equality of two evaluations. */
void
expectSameEvaluation(const dse::Evaluation &a, const dse::Evaluation &b)
{
    EXPECT_EQ(a.encoding, b.encoding);
    EXPECT_EQ(a.point, b.point);
    EXPECT_EQ(a.successRate, b.successRate);
    EXPECT_EQ(a.npuPowerW, b.npuPowerW);
    EXPECT_EQ(a.socPowerW, b.socPowerW);
    EXPECT_EQ(a.latencyMs, b.latencyMs);
    EXPECT_EQ(a.fps, b.fps);
    EXPECT_EQ(a.objectives, b.objectives);
    EXPECT_EQ(a.fidelity, b.fidelity);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.precision, b.precision);
}

/**
 * Analytical backend whose first batch commits one result and then
 * throws, like a simulator that crashes partway through a batch.
 */
class FailOnceBackend : public dse::AnalyticalBackend
{
  public:
    FailOnceBackend()
        : dse::AnalyticalBackend(dse::BackendContext{
              &sharedDatabase(), al::ObstacleDensity::Dense, {}, {}})
    {
    }

    void evaluateBatch(std::span<const dse::DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override
    {
        if (std::exchange(failNext, false)) {
            dse::AnalyticalBackend::evaluateBatch(points.first(1), pool,
                                                  commit);
            throw std::runtime_error("simulator crashed");
        }
        dse::AnalyticalBackend::evaluateBatch(points, pool, commit);
    }

  private:
    bool failNext = true;
};

} // namespace

TEST(BatchEvaluator, ThrowingBackendLeavesCacheAsBefore)
{
    const auto points = distinctEncodings(12, 61);
    // Journal prefix: the first four points, replayed into both
    // evaluators so the failed batch consumes replay-fresh marks.
    dse::DseEvaluator source(sharedDatabase(), al::ObstacleDensity::Dense);
    source.evaluateBatch(std::span(points).first(4));
    const std::vector<dse::Evaluation> replayed = source.allEvaluations();

    util::ThreadPool pool(4);
    // Shared with the retry thread, which keeps it alive if it hangs.
    auto evaluator = std::make_shared<dse::DseEvaluator>(
        sharedDatabase(), al::ObstacleDensity::Dense,
        std::make_unique<FailOnceBackend>());
    evaluator->setThreadPool(&pool);
    evaluator->preload(replayed);
    dse::DseEvaluator reference(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    reference.setThreadPool(&pool);
    reference.preload(replayed);

    // Two replayed hits, then every never-seen point.
    std::vector<dse::Encoding> batch = {points[1], points[3]};
    batch.insert(batch.end(), points.begin() + 4, points.end());

    const std::size_t countBefore = evaluator->evaluationCount();
    const dse::CacheStats statsBefore = evaluator->cacheStats();
    EXPECT_THROW(evaluator->evaluateBatch(batch), std::runtime_error);
    EXPECT_EQ(evaluator->evaluationCount(), countBefore);
    EXPECT_EQ(evaluator->cacheStats().hits, statsBefore.hits);
    EXPECT_EQ(evaluator->cacheStats().misses, statsBefore.misses);

    // The retry runs on its own thread so a cache left waiting on the
    // failed batch's claims fails the test instead of hanging it.
    auto retry = std::make_shared<
        std::promise<std::vector<dse::BatchResult>>>();
    std::future<std::vector<dse::BatchResult>> retried =
        retry->get_future();
    std::thread([evaluator, retry, batch] {
        retry->set_value(evaluator->evaluateBatch(batch));
    }).detach();
    ASSERT_EQ(retried.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "retry after a failed batch hung";
    const std::vector<dse::BatchResult> results = retried.get();

    const std::vector<dse::BatchResult> expected =
        reference.evaluateBatch(batch);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(results[i].fresh);
        expectSameEvaluation(*results[i].evaluation,
                             *expected[i].evaluation);
    }
    const std::vector<dse::Evaluation> all = evaluator->allEvaluations();
    const std::vector<dse::Evaluation> allExpected =
        reference.allEvaluations();
    ASSERT_EQ(all.size(), allExpected.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        expectSameEvaluation(all[i], allExpected[i]);
    EXPECT_EQ(evaluator->cacheStats().hits, reference.cacheStats().hits);
    EXPECT_EQ(evaluator->cacheStats().misses,
              reference.cacheStats().misses);
}

TEST(BatchEvaluator, ResultPointersSurviveLaterBatches)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    util::ThreadPool pool(4);
    evaluator.setThreadPool(&pool);

    constexpr std::size_t first = 16;
    constexpr std::size_t later = 640;
    const auto points = distinctEncodings(first + later, 71);
    const std::vector<dse::BatchResult> kept =
        evaluator.evaluateBatch(std::span(points).first(first));
    std::vector<dse::Evaluation> copies;
    for (const dse::BatchResult &result : kept)
        copies.push_back(*result.evaluation);

    // Grow the cache well past its first allocation, one batch at a
    // time, so a container that relocated its elements would leave
    // the kept pointers dangling.
    for (std::size_t begin = first; begin < points.size(); begin += 64)
        evaluator.evaluateBatch(std::span(points).subspan(begin, 64));
    ASSERT_EQ(evaluator.evaluationCount(), first + later);

    for (std::size_t i = 0; i < first; ++i) {
        SCOPED_TRACE(i);
        expectSameEvaluation(*kept[i].evaluation, copies[i]);
    }
}

// ------------------------------------- serial/parallel optimizer parity ----

namespace
{

std::unique_ptr<dse::Optimizer>
makeOptimizer(int kind)
{
    switch (kind) {
      case 0: return std::make_unique<dse::RandomSearch>();
      case 1: {
          // Batched BO: q-batch suggestions plus parallel screening.
          dse::BayesOpt::Settings settings;
          settings.initialSamples = 8;
          settings.candidatePool = 64;
          settings.batchSize = 4;
          return std::make_unique<dse::BayesOpt>(settings);
      }
      case 2: return std::make_unique<dse::GeneticAlgorithm>();
      case 3: {
          // Restart-heavy SA so the batch fan-out path actually runs.
          dse::SimulatedAnnealing::Settings settings;
          settings.initialTemperature = 5e-4;
          settings.coolingRate = 0.5;
          settings.restartFanout = 3;
          return std::make_unique<dse::SimulatedAnnealing>(settings);
      }
    }
    return nullptr;
}

} // namespace

class SerialParallelParity : public ::testing::TestWithParam<int>
{
};

TEST_P(SerialParallelParity, ByteIdenticalResultAcrossThreadCounts)
{
    dse::OptimizerConfig config;
    config.evaluationBudget = 40;
    config.seed = 0xC0FFEE;

    dse::DseEvaluator serial_eval(sharedDatabase(),
                                  al::ObstacleDensity::Dense);
    const dse::OptimizerResult serial =
        makeOptimizer(GetParam())->optimize(serial_eval, config);

    for (std::size_t threads : {2u, 4u}) {
        util::ThreadPool pool(threads);
        dse::DseEvaluator parallel_eval(sharedDatabase(),
                                        al::ObstacleDensity::Dense);
        parallel_eval.setThreadPool(&pool);
        const dse::OptimizerResult parallel =
            makeOptimizer(GetParam())->optimize(parallel_eval, config);

        ASSERT_EQ(serial.archive.size(), parallel.archive.size())
            << threads << " threads";
        for (std::size_t i = 0; i < serial.archive.size(); ++i) {
            EXPECT_EQ(serial.archive[i].encoding,
                      parallel.archive[i].encoding)
                << "archive position " << i;
            EXPECT_EQ(serial.archive[i].objectives,
                      parallel.archive[i].objectives)
                << "archive position " << i;
        }
        ASSERT_EQ(serial.hypervolumeHistory.size(),
                  parallel.hypervolumeHistory.size());
        for (std::size_t i = 0; i < serial.hypervolumeHistory.size();
             ++i) {
            EXPECT_EQ(serial.hypervolumeHistory[i],
                      parallel.hypervolumeHistory[i])
                << "history position " << i;
        }
        EXPECT_EQ(serial.frontIndices(), parallel.frontIndices());
    }
}

namespace
{

std::string
parityCaseName(const ::testing::TestParamInfo<int> &info)
{
    static const char *const names[] = {"Random", "BatchedBO", "Nsga2",
                                        "FanoutSA"};
    return names[info.param];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(All, SerialParallelParity,
                         ::testing::Values(0, 1, 2, 3), parityCaseName);

// -------------------------------------------------- pipeline threading ----

TEST(AutoPilotThreads, PipelineIsByteIdenticalAcrossThreadCounts)
{
    autopilot::core::TaskSpec task;
    task.validationEpisodes = 30;
    task.dseBudget = 20;
    task.threads = 1;
    autopilot::core::TaskSpec task4 = task;
    task4.threads = 4;

    autopilot::core::AutoPilot serial(task);
    autopilot::core::AutoPilot threaded(task4);
    const auto run_serial =
        serial.designFor(autopilot::uav::zhangNano());
    const auto run_threaded =
        threaded.designFor(autopilot::uav::zhangNano());

    ASSERT_EQ(run_serial.dseResult.archive.size(),
              run_threaded.dseResult.archive.size());
    for (std::size_t i = 0; i < run_serial.dseResult.archive.size();
         ++i) {
        EXPECT_EQ(run_serial.dseResult.archive[i].encoding,
                  run_threaded.dseResult.archive[i].encoding);
        EXPECT_EQ(run_serial.dseResult.archive[i].objectives,
                  run_threaded.dseResult.archive[i].objectives);
    }
    ASSERT_EQ(run_serial.candidates.size(),
              run_threaded.candidates.size());
    for (std::size_t i = 0; i < run_serial.candidates.size(); ++i) {
        EXPECT_EQ(run_serial.candidates[i].eval.encoding,
                  run_threaded.candidates[i].eval.encoding);
        EXPECT_EQ(run_serial.candidates[i].mission.numMissions,
                  run_threaded.candidates[i].mission.numMissions);
    }
    EXPECT_EQ(run_serial.selected.eval.encoding,
              run_threaded.selected.eval.encoding);
    EXPECT_EQ(run_serial.selected.mission.numMissions,
              run_threaded.selected.mission.numMissions);
}

// ------------------------------------------------- budget bookkeeping ----

TEST(RecordEvaluations, CapsFreshPointsAtMaxNewPoints)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    const auto points = distinctEncodings(6, 91);
    dse::OptimizerConfig config;
    dse::OptimizerResult result;

    const int recorded = dse::recordEvaluations(
        evaluator, points, config, result, 4);
    EXPECT_EQ(recorded, 4);
    ASSERT_EQ(result.archive.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(result.archive[i].encoding, points[i]);
    EXPECT_EQ(result.hypervolumeHistory.size(), 4u);

    // The over-budget points are memoized but unrecorded; re-proposing
    // them records nothing new.
    dse::OptimizerResult second;
    const int again = dse::recordEvaluations(evaluator, points, config,
                                             second, 10);
    EXPECT_EQ(again, 0);
    EXPECT_TRUE(second.archive.empty());
    EXPECT_EQ(evaluator.evaluationCount(), 6u);
}


// ------------------------------------------------ pool shutdown races ----

TEST(ThreadPool, ShutdownIsIdempotent)
{
    util::ThreadPool pool(2);
    auto before = pool.submit([] { return 7; });
    EXPECT_EQ(before.get(), 7);
    pool.shutdown();
    pool.shutdown(); // Second call must be a no-op, not a hang/crash.
    auto after = pool.submit([] { return 8; });
    EXPECT_THROW(after.get(), util::ThreadPoolStopped);
}

namespace
{

/**
 * Cap this process's address space a few thread stacks above what is
 * mapped, then start a 64-worker pool, whose stacks exceed the cap, so
 * a worker fails to start after a handful have. Exits 0 when the
 * constructor throws, 3 when the pool starts anyway, 4 when the cap
 * cannot be set; a joinable std::thread left behind aborts instead.
 */
[[noreturn]] void
startPoolUnderAddressCap()
{
    std::ifstream statm("/proc/self/statm");
    unsigned long pages = 0;
    statm >> pages;
    const rlim_t cap = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                       (rlim_t{32} << 20);
    const rlimit limit{cap, cap};
    if (pages == 0 || setrlimit(RLIMIT_AS, &limit) != 0)
        std::_Exit(4);
    try {
        util::ThreadPool pool(64);
    } catch (...) {
        std::_Exit(0);
    }
    std::_Exit(3);
}

} // namespace

TEST(ThreadPoolDeath, FailedWorkerStartJoinsTheStartedOnes)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtimes reserve more address space "
                    "than the cap leaves";
#else
    // The constructor must join the workers it started and rethrow.
    EXPECT_EXIT(startPoolUnderAddressCap(), ::testing::ExitedWithCode(0),
                "");
#endif
}

TEST(ThreadPool, SubmitAfterShutdownReturnsFailedFutureAndNeverRuns)
{
    util::ThreadPool pool(2);
    pool.shutdown();

    std::atomic<bool> ran{false};
    auto rejected = pool.submit([&] {
        ran.store(true);
        return 1;
    });
    ASSERT_TRUE(rejected.valid())
        << "a rejected submit must still hand back a waitable future";
    EXPECT_THROW(rejected.get(), util::ThreadPoolStopped);
    EXPECT_FALSE(ran.load()) << "rejected tasks must not execute";
}

TEST(ThreadPool, SubmitShutdownRaceNeverLosesAcceptedTasks)
{
    // The documented ordering: a submit that returns a normal future
    // was accepted and WILL run during the drain; a submit racing the
    // stop mark gets a future that throws ThreadPoolStopped. Nothing
    // hangs, nothing is silently dropped, nothing throws at the call
    // site. Many small rounds maximize shutdown/submit interleavings.
    constexpr int kRounds = 25;
    constexpr int kSubmitters = 4;
    for (int round = 0; round < kRounds; ++round) {
        auto pool = std::make_unique<util::ThreadPool>(2);
        std::atomic<std::size_t> executed{0};
        std::atomic<std::size_t> accepted{0};
        std::atomic<std::size_t> rejectedCount{0};

        std::vector<std::thread> submitters;
        for (int s = 0; s < kSubmitters; ++s) {
            submitters.emplace_back([&] {
                for (;;) {
                    auto future = pool->submit([&executed] {
                        executed.fetch_add(1);
                        return 0;
                    });
                    // get() classifies the submit: a value means the
                    // task was accepted (and by now has run), the
                    // rejection exception means the pool had stopped.
                    try {
                        future.get();
                        accepted.fetch_add(1);
                    } catch (const util::ThreadPoolStopped &) {
                        rejectedCount.fetch_add(1);
                        return;
                    }
                }
            });
        }
        // Let the submitters build up steam, then yank the pool.
        std::this_thread::yield();
        pool->shutdown();
        for (std::thread &submitter : submitters)
            submitter.join();

        EXPECT_EQ(executed.load(), accepted.load())
            << "round " << round
            << ": every accepted task must run before shutdown returns";
        EXPECT_EQ(rejectedCount.load(),
                  static_cast<std::size_t>(kSubmitters))
            << "round " << round
            << ": each submitter must end on a clean rejection";
        pool.reset(); // Destructor after explicit shutdown: no-op join.
    }
}

TEST(ThreadPool, UnevenStressExecutesEveryTaskExactlyOnce)
{
    // Thousands of external submissions with uneven task bodies keep
    // the queue, the workers' pops and their wake-ups busy at once.
    // Under TSan this is the main data-race stress for the queue.
    util::ThreadPool pool(4);
    constexpr std::size_t kTasks = 4000;
    std::atomic<std::size_t> executed{0};
    std::vector<std::future<std::size_t>> futures;
    futures.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit([i, &executed] {
            // Uneven busy-work: every 16th task is ~100x heavier, so
            // workers finish out of order and the queue backs up.
            std::size_t spin = (i % 16 == 0) ? 2500 : 25;
            volatile std::size_t acc = 0;
            for (std::size_t k = 0; k < spin; ++k)
                acc += k;
            executed.fetch_add(1);
            return i;
        }));
    }
    std::size_t checksum = 0;
    for (std::size_t i = 0; i < kTasks; ++i)
        checksum += futures[i].get() == i ? 1 : 0;
    EXPECT_EQ(checksum, kTasks);
    EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPool, ConcurrentParallelForCallersShareOnePool)
{
    // The campaign service's shape: several campaign threads each run
    // parallelFor on one shared pool, first with fewer workers than
    // callers, then with more. One caller's body throws at one index:
    // that caller gets the exception, and every other caller covers
    // each of its indices exactly once.
    constexpr std::size_t kCallers = 3;
    constexpr std::size_t kCount = 2000;
    constexpr std::size_t kFailingCaller = 1;
    constexpr std::size_t kFailingIndex = 777;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(workers);
        // Owned jointly with the callers, so a caller left behind by a
        // timed-out wait never touches a dead stack frame.
        struct Shared
        {
            explicit Shared(std::size_t threads) : pool(threads) {}
            util::ThreadPool pool;
            std::vector<std::vector<std::atomic<int>>> hits;
        };
        auto shared = std::make_shared<Shared>(workers);
        for (std::size_t c = 0; c < kCallers; ++c)
            shared->hits.emplace_back(kCount);

        std::vector<std::future<void>> done;
        std::vector<std::thread> callers;
        for (std::size_t c = 0; c < kCallers; ++c) {
            auto finished = std::make_shared<std::promise<void>>();
            done.push_back(finished->get_future());
            callers.emplace_back([shared, finished, c] {
                try {
                    shared->pool.parallelFor(kCount, [&](std::size_t i) {
                        shared->hits[c][i].fetch_add(1);
                        if (c == kFailingCaller && i == kFailingIndex)
                            throw std::runtime_error("caller 1 fails");
                    });
                    finished->set_value();
                } catch (...) {
                    finished->set_exception(std::current_exception());
                }
            });
        }
        bool allFinished = true;
        for (std::future<void> &future : done) {
            allFinished = allFinished &&
                          future.wait_for(std::chrono::seconds(60)) ==
                              std::future_status::ready;
        }
        if (!allFinished) {
            for (std::thread &caller : callers)
                caller.detach();
            FAIL() << "a parallelFor caller hung";
        }
        for (std::thread &caller : callers)
            caller.join();

        for (std::size_t c = 0; c < kCallers; ++c) {
            SCOPED_TRACE(c);
            if (c == kFailingCaller) {
                EXPECT_THROW(done[c].get(), std::runtime_error);
                EXPECT_EQ(shared->hits[c][kFailingIndex].load(), 1);
                for (std::size_t i = 0; i < kCount; ++i)
                    ASSERT_LE(shared->hits[c][i].load(), 1) << i;
                continue;
            }
            EXPECT_NO_THROW(done[c].get());
            for (std::size_t i = 0; i < kCount; ++i)
                ASSERT_EQ(shared->hits[c][i].load(), 1) << i;
        }
    }
}

TEST(ThreadPool, ParallelForCompletesOnStoppedPool)
{
    // parallelFor's helpers are rejected after shutdown, but the caller
    // participates in the drain, so the loop still covers every index.
    util::ThreadPool pool(2);
    pool.shutdown();
    std::vector<int> hits(257, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << i;
}
