/**
 * @file
 * Backend-parity suite for the pluggable cost-model layer:
 *
 *  - AnalyticalBackend reproduces the pre-backend-layer evaluator
 *    formula bit for bit (the golden guarantee that lets the default
 *    pipeline stay byte-identical across the refactor).
 *  - CycleBackend agrees with the analytical numbers within the
 *    engine-validation tolerance (the analytical runtime brackets the
 *    cycle-stepped runtime) and only the timing-derived metrics differ.
 *  - TieredBackend is deterministic across 1/2/4 worker threads (exact
 *    ==, the same rule test_parallel_eval.cc enforces), promotes a
 *    strict subset of points, and tags each archived evaluation with
 *    the fidelity that produced it.
 *  - The registry resolves the built-ins, rejects unknown names, and
 *    accepts runtime registration of custom backends.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "airlearning/trainer.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "dse/random_search.h"
#include "nn/e2e_template.h"
#include "power/npu_power.h"
#include "power/soc_power.h"
#include "systolic/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "shared_fixtures.h"

namespace dse = autopilot::dse;
namespace al = autopilot::airlearning;
namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;
namespace pw = autopilot::power;
namespace util = autopilot::util;

using autopilot::fixtures::sharedDatabase;
using autopilot::fixtures::distinctEncodings;

namespace
{

dse::BackendContext
sharedContext()
{
    return {&sharedDatabase(), al::ObstacleDensity::Dense, {}};
}

/**
 * The pre-backend-layer DseEvaluator::compute() formula, spelled out
 * by hand: any divergence between this and AnalyticalBackend breaks
 * the bit-identical guarantee the golden pipeline tests rely on.
 */
dse::Evaluation
legacyCompute(const dse::Encoding &encoding)
{
    const dse::DesignSpace space;
    dse::Evaluation evaluation;
    evaluation.encoding = encoding;
    evaluation.point = space.decode(encoding);

    const auto record = sharedDatabase().find(evaluation.point.policy,
                                              al::ObstacleDensity::Dense);
    evaluation.successRate = record->successRate;

    const nn::Model model = nn::buildE2EModel(evaluation.point.policy);
    const sys::AnalyticalEngine engine(evaluation.point.accel);
    const sys::RunResult run = engine.run(model);

    const pw::NpuPowerModel npu(evaluation.point.accel);
    evaluation.npuPowerW = npu.averagePowerW(run);
    evaluation.socPowerW = pw::socPower(evaluation.npuPowerW).totalW();

    const double clock = evaluation.point.accel.clockGhz;
    evaluation.latencyMs = run.runtimeSeconds(clock) * 1e3;
    evaluation.fps = run.framesPerSecond(clock);

    evaluation.objectives = {1.0 - evaluation.successRate,
                             evaluation.socPowerW, evaluation.latencyMs};
    return evaluation;
}

} // namespace

// ------------------------------------------------------------- registry ----

TEST(BackendRegistry, KnowsTheBuiltins)
{
    dse::BackendRegistry &registry = dse::BackendRegistry::instance();
    EXPECT_TRUE(registry.knows("analytical"));
    EXPECT_TRUE(registry.knows("cycle"));
    EXPECT_TRUE(registry.knows("tiered"));
    EXPECT_TRUE(registry.knows("contention"));
    EXPECT_TRUE(registry.knows("dram"));
    EXPECT_FALSE(registry.knows("no-such-backend"));

    const auto context = sharedContext();
    EXPECT_EQ(dse::makeBackend("analytical", context)->fidelity(),
              dse::Fidelity::Analytical);
    EXPECT_EQ(dse::makeBackend("cycle", context)->fidelity(),
              dse::Fidelity::CycleAccurate);
    EXPECT_EQ(dse::makeBackend("tiered", context)->fidelity(),
              dse::Fidelity::Mixed);
    EXPECT_EQ(dse::makeBackend("contention", context)->fidelity(),
              dse::Fidelity::CycleAccurate);
    // A disabled DramSpec degrades the dram backend to the pure cycle
    // path, and its advertised fidelity says so.
    EXPECT_EQ(dse::makeBackend("dram", context)->fidelity(),
              dse::Fidelity::CycleAccurate);
}

TEST(BackendRegistry, UnknownNameIsFatal)
{
    const auto context = sharedContext();
    EXPECT_EXIT(dse::makeBackend("warp-drive", context),
                ::testing::ExitedWithCode(1), "unknown backend");
}

TEST(BackendRegistry, CustomBackendPlugsIntoTheEvaluator)
{
    // A registered factory becomes reachable by name; the evaluator
    // archives the custom backend's fidelity/name tags.
    dse::BackendRegistry::instance().registerFactory(
        "test-analytical-clone", [](const dse::BackendContext &context) {
            return std::make_unique<dse::AnalyticalBackend>(context);
        });
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense,
                                "test-analytical-clone");
    EXPECT_EQ(evaluator.backendName(), "analytical");
    const auto points = distinctEncodings(2, 5);
    const dse::Evaluation &eval = evaluator.evaluate(points[0]);
    EXPECT_EQ(eval.fidelity, dse::Fidelity::Analytical);
}

// ------------------------------------------------------ analytical golden ----

TEST(AnalyticalBackend, BitIdenticalToLegacyComputeFormula)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    EXPECT_EQ(evaluator.backendName(), "analytical");

    for (const dse::Encoding &encoding : distinctEncodings(24, 17)) {
        const dse::Evaluation &actual = evaluator.evaluate(encoding);
        const dse::Evaluation expected = legacyCompute(encoding);
        EXPECT_EQ(actual.successRate, expected.successRate);
        EXPECT_EQ(actual.npuPowerW, expected.npuPowerW);
        EXPECT_EQ(actual.socPowerW, expected.socPowerW);
        EXPECT_EQ(actual.latencyMs, expected.latencyMs);
        EXPECT_EQ(actual.fps, expected.fps);
        EXPECT_EQ(actual.objectives, expected.objectives);
        EXPECT_EQ(actual.fidelity, dse::Fidelity::Analytical);
        EXPECT_EQ(actual.backend, "analytical");
    }
}

// ------------------------------------------------------- cycle tolerance ----

TEST(CycleBackend, AgreesWithAnalyticalWithinValidationTolerance)
{
    dse::DseEvaluator analytical(sharedDatabase(),
                                 al::ObstacleDensity::Dense,
                                 "analytical");
    dse::DseEvaluator cycle(sharedDatabase(), al::ObstacleDensity::Dense,
                            "cycle");

    for (const dse::Encoding &encoding : distinctEncodings(12, 29)) {
        const dse::Evaluation &fast = analytical.evaluate(encoding);
        const dse::Evaluation &reference = cycle.evaluate(encoding);
        EXPECT_EQ(reference.fidelity, dse::Fidelity::CycleAccurate);
        EXPECT_EQ(reference.backend, "cycle");

        // Success rate comes from Phase 1, not the engine.
        EXPECT_EQ(fast.successRate, reference.successRate);
        // Timing-derived metrics track the reference engine within the
        // bench_engine_validation band (p95 error is a few percent;
        // 15% is the generous outer envelope).
        EXPECT_NEAR(fast.latencyMs, reference.latencyMs,
                    0.15 * reference.latencyMs);
        EXPECT_NEAR(fast.socPowerW, reference.socPowerW,
                    0.15 * reference.socPowerW);
        EXPECT_GT(reference.latencyMs, 0.0);
    }
}

// ------------------------------------------------- tiered determinism ----

TEST(TieredBackend, ByteIdenticalAcrossThreadCounts)
{
    const auto points = distinctEncodings(48, 41);

    auto runAt = [&](std::size_t threads) {
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<util::ThreadPool>(threads);
        dse::DseEvaluator evaluator(sharedDatabase(),
                                    al::ObstacleDensity::Dense, "tiered");
        evaluator.setThreadPool(pool.get());
        // Several batches so the promotion state carries across calls.
        const std::size_t half = points.size() / 2;
        evaluator.evaluateBatch(std::span<const dse::Encoding>(
            points.data(), half));
        evaluator.evaluateBatch(std::span<const dse::Encoding>(
            points.data() + half, points.size() - half));
        return evaluator.allEvaluations();
    };

    const auto serial = runAt(1);
    ASSERT_EQ(serial.size(), points.size());
    for (std::size_t threads : {2u, 4u}) {
        const auto parallel = runAt(threads);
        ASSERT_EQ(parallel.size(), serial.size())
            << threads << " threads";
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].encoding, parallel[i].encoding)
                << "position " << i;
            EXPECT_EQ(serial[i].objectives, parallel[i].objectives)
                << "position " << i;
            EXPECT_EQ(serial[i].fidelity, parallel[i].fidelity)
                << "position " << i;
            EXPECT_EQ(serial[i].latencyMs, parallel[i].latencyMs)
                << "position " << i;
            EXPECT_EQ(serial[i].npuPowerW, parallel[i].npuPowerW)
                << "position " << i;
        }
    }
}

TEST(TieredBackend, PromotesCompetitiveSubsetAndTagsFidelity)
{
    auto backend = std::make_unique<dse::TieredBackend>(sharedContext());
    const dse::TieredBackend *tiered = backend.get();
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense,
                                std::move(backend));
    EXPECT_EQ(evaluator.backendName(), "tiered");

    const auto points = distinctEncodings(64, 53);
    evaluator.evaluateBatch(points);

    EXPECT_EQ(tiered->screenedCount(), points.size());
    const std::size_t promoted = tiered->promotedCount();
    // The first point is always on the (empty) front -> promoted; a
    // random pool is mostly dominated -> a strict subset is promoted.
    EXPECT_GE(promoted, 1u);
    EXPECT_LT(promoted, points.size());

    std::size_t cycleTagged = 0;
    for (const dse::Evaluation &eval : evaluator.allEvaluations()) {
        EXPECT_EQ(eval.backend, "tiered");
        if (eval.fidelity == dse::Fidelity::CycleAccurate)
            ++cycleTagged;
        else
            EXPECT_EQ(eval.fidelity, dse::Fidelity::Analytical);
    }
    EXPECT_EQ(cycleTagged, promoted);
}

TEST(TieredBackend, FrontMembersCarryCycleNumbers)
{
    // Every evaluation on the final Pareto front must have been
    // promoted: the band test passes for any point whose own
    // contribution is positive, which includes all front members.
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense, "tiered");
    dse::RandomSearch search;
    dse::OptimizerConfig config;
    config.evaluationBudget = 40;
    config.seed = 0xF1DE;
    const dse::OptimizerResult result =
        search.optimize(evaluator, config);

    // Every screened-front member is promoted by construction; an
    // analytical row can reach the *final* front only when the cycle
    // re-evaluation reshuffles dominance inside the band. Assert the
    // bulk invariant: the majority of the front is cycle-verified.
    std::size_t cycleOnFront = 0;
    const auto frontIdx = result.frontIndices();
    for (std::size_t index : frontIdx) {
        if (result.archive[index].fidelity ==
            dse::Fidelity::CycleAccurate)
            ++cycleOnFront;
    }
    EXPECT_GE(2 * cycleOnFront, frontIdx.size())
        << "most of the final front should be cycle-verified";
}

// ------------------------------------------------------------ contention ----

namespace
{

dse::BackendContext
contendedContext(double backgroundBytesPerSec)
{
    dse::BackendContext context = sharedContext();
    context.contention.cameraBytesPerSec = backgroundBytesPerSec;
    return context;
}

} // namespace

TEST(ContentionBackend, ZeroBackgroundBitIdenticalToCycle)
{
    dse::ContentionBackend quiet(sharedContext());
    dse::CycleBackend cycle(sharedContext());
    const dse::DesignSpace space;
    for (const dse::Encoding &encoding : distinctEncodings(8, 41)) {
        const dse::DesignPoint point = space.decode(encoding);
        const dse::Evaluation a = quiet.evaluate(point);
        const dse::Evaluation b = cycle.evaluate(point);
        EXPECT_EQ(a.successRate, b.successRate);
        EXPECT_EQ(a.npuPowerW, b.npuPowerW);
        EXPECT_EQ(a.socPowerW, b.socPowerW);
        EXPECT_EQ(a.latencyMs, b.latencyMs);
        EXPECT_EQ(a.fps, b.fps);
        EXPECT_EQ(a.objectives, b.objectives);
        EXPECT_EQ(a.fidelity, dse::Fidelity::CycleAccurate);
        EXPECT_EQ(a.backend, "contention");
        EXPECT_EQ(a.contentionBytesPerSec, 0.0);
    }
}

TEST(ContentionBackend, BackgroundTrafficShiftsLatencyAndPowerMonotonically)
{
    // All design points share the fixed 6.4 GB/s channel (32 B/cycle at
    // 0.2 GHz), so a rising background load must never make any point
    // faster or cheaper on DRAM power.
    const dse::DesignSpace space;
    const auto encodings = distinctEncodings(6, 53);
    std::vector<double> previousLatency(encodings.size(), 0.0);
    double quietTotal = 0.0;
    double heavyTotal = 0.0;
    for (const double background : {0.0, 1.6e9, 3.2e9, 4.8e9}) {
        dse::ContentionBackend backend(contendedContext(background));
        for (std::size_t i = 0; i < encodings.size(); ++i) {
            const dse::Evaluation eval =
                backend.evaluate(space.decode(encodings[i]));
            EXPECT_GE(eval.latencyMs, previousLatency[i])
                << "background " << background;
            EXPECT_EQ(eval.contentionBytesPerSec, background);
            previousLatency[i] = eval.latencyMs;
            if (background == 0.0)
                quietTotal += eval.latencyMs;
            if (background == 4.8e9)
                heavyTotal += eval.latencyMs;
        }
    }
    // A quarter of the channel must bite somewhere in the sample.
    EXPECT_GT(heavyTotal, quietTotal);
}

TEST(ContentionBackend, ComposesAsTieredVerifyTier)
{
    // The tiered verify tier inherits the context's contention profile:
    // promoted rows carry cycle fidelity, the contention bytes/s, and
    // strictly-no-faster latency than the contention-free tiered run.
    dse::TieredBackend quiet(sharedContext());
    dse::TieredBackend contended(contendedContext(3.2e9));
    const dse::DesignSpace space;
    std::vector<dse::DesignPoint> points;
    for (const dse::Encoding &encoding : distinctEncodings(24, 67))
        points.push_back(space.decode(encoding));

    auto runBatch = [&](dse::TieredBackend &backend) {
        std::vector<dse::Evaluation> out(points.size());
        backend.evaluateBatch(
            points, nullptr,
            [&](std::size_t i, dse::Evaluation &&eval) {
                out[i] = std::move(eval);
            });
        return out;
    };
    const auto quietEvals = runBatch(quiet);
    const auto contendedEvals = runBatch(contended);

    std::size_t promoted = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (contendedEvals[i].fidelity != dse::Fidelity::CycleAccurate)
            continue;
        ++promoted;
        EXPECT_EQ(contendedEvals[i].contentionBytesPerSec, 3.2e9);
        if (quietEvals[i].fidelity == dse::Fidelity::CycleAccurate)
            EXPECT_GE(contendedEvals[i].latencyMs,
                      quietEvals[i].latencyMs);
    }
    EXPECT_GT(promoted, 0u);
}

TEST(ContentionBackendDeath, StarvedProfileDiagnosedAtEvaluate)
{
    // 6.4 GB/s background saturates the fixed-peak channel; with no QoS
    // floor the first evaluation must diagnose the infeasible profile
    // instead of producing inf fold times.
    dse::ContentionBackend backend(contendedContext(6.4e9));
    const dse::DesignSpace space;
    const auto encodings = distinctEncodings(1, 71);
    EXPECT_EXIT(backend.evaluate(space.decode(encodings[0])),
                ::testing::ExitedWithCode(1), "no DRAM bandwidth");
}
