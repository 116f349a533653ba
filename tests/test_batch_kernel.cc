/**
 * @file
 * The analytical cost model against its oracle, and its batch path:
 *
 *  - Differential test: AnalyticalEngine::runLayer (closed form over
 *    FoldGrid/FoldTraffic) equals the fold-by-fold
 *    systolic::oracle::AnalyticalEngine field by field - folds,
 *    compute/stall/total cycles and all 8 traffic fields - on every
 *    layer of every bundled policy model, across randomly sampled
 *    hardware-space configurations, all three dataflows, operand widths
 *    1/2/4 and the corners of the space. FoldTraffic's per-fold fetch
 *    and writeback bytes equal the oracle's per-fold statement of the
 *    residency rules on random layers.
 *  - AnalyticalBackend batch path vs. its own scalar evaluate() -
 *    field-exact Evaluations, serially and through 2- and 4-worker
 *    pools.
 *  - Degenerate-denominator guards return 0 instead of inf/NaN.
 */

#include <gtest/gtest.h>

#include <vector>

#include "airlearning/trainer.h"
#include "dse/eval_backend.h"
#include "nn/e2e_template.h"
#include "oracle/analytical_engine.h"
#include "systolic/engine.h"
#include "systolic/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace al = autopilot::airlearning;
namespace dse = autopilot::dse;
namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;
namespace util = autopilot::util;

namespace
{

constexpr sys::Dataflow kDataflows[] = {sys::Dataflow::WeightStationary,
                                        sys::Dataflow::OutputStationary,
                                        sys::Dataflow::InputStationary};

/** Sample @p count configurations from the Table II hardware space,
 *  cycling through all three dataflows and operand widths 1/2/4, plus
 *  the corners of the space in every dataflow. */
std::vector<sys::AcceleratorConfig>
sampleConfigs(std::size_t count, std::uint64_t seed)
{
    const sys::HardwareSpace space;
    util::Rng rng(seed);
    std::vector<sys::AcceleratorConfig> configs;
    configs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        sys::AcceleratorConfig cfg;
        cfg.peRows = space.peRowChoices[rng.index(space.peRowChoices.size())];
        cfg.peCols = space.peColChoices[rng.index(space.peColChoices.size())];
        cfg.ifmapSramKb =
            space.sramKbChoices[rng.index(space.sramKbChoices.size())];
        cfg.filterSramKb =
            space.sramKbChoices[rng.index(space.sramKbChoices.size())];
        cfg.ofmapSramKb =
            space.sramKbChoices[rng.index(space.sramKbChoices.size())];
        cfg.dataflow = kDataflows[i % 3];
        cfg.bytesPerElement = 1 << (i / 3 % 3);
        cfg.dramBytesPerCycle = 1 << rng.uniformInt(2, 6);
        configs.push_back(cfg);
    }
    // Pin the corners of the space on top of the random sample.
    for (const sys::Dataflow dataflow : kDataflows) {
        sys::AcceleratorConfig smallest;
        smallest.dataflow = dataflow;
        smallest.peRows = smallest.peCols = 8;
        smallest.ifmapSramKb = smallest.filterSramKb =
            smallest.ofmapSramKb = 32;
        smallest.bytesPerElement = 4;
        configs.push_back(smallest);
        sys::AcceleratorConfig largest;
        largest.dataflow = dataflow;
        largest.peRows = largest.peCols = 1024;
        largest.ifmapSramKb = largest.filterSramKb =
            largest.ofmapSramKb = 4096;
        configs.push_back(largest);
    }
    return configs;
}

void
expectTrafficEq(const sys::LayerTraffic &a, const sys::LayerTraffic &b)
{
    EXPECT_EQ(a.ifmapDramBytes, b.ifmapDramBytes);
    EXPECT_EQ(a.filterDramBytes, b.filterDramBytes);
    EXPECT_EQ(a.ofmapDramBytes, b.ofmapDramBytes);
    EXPECT_EQ(a.ifmapSramReads, b.ifmapSramReads);
    EXPECT_EQ(a.filterSramReads, b.filterSramReads);
    EXPECT_EQ(a.ofmapSramWrites, b.ofmapSramWrites);
    EXPECT_EQ(a.psumSramReads, b.psumSramReads);
    EXPECT_EQ(a.psumSramWrites, b.psumSramWrites);
}

const al::PolicyDatabase &
sharedDatabase()
{
    static const al::PolicyDatabase db = [] {
        al::TrainerConfig config;
        config.validationEpisodes = 20;
        const al::Trainer trainer(config);
        al::PolicyDatabase built;
        trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Dense,
                         built);
        return built;
    }();
    return db;
}

dse::BackendContext
sharedContext()
{
    return {&sharedDatabase(), al::ObstacleDensity::Dense, {}};
}

void
expectEvaluationEq(const dse::Evaluation &a, const dse::Evaluation &b)
{
    EXPECT_EQ(a.successRate, b.successRate);
    EXPECT_EQ(a.npuPowerW, b.npuPowerW);
    EXPECT_EQ(a.socPowerW, b.socPowerW);
    EXPECT_EQ(a.latencyMs, b.latencyMs);
    EXPECT_EQ(a.fps, b.fps);
    ASSERT_EQ(a.objectives.size(), b.objectives.size());
    for (std::size_t k = 0; k < a.objectives.size(); ++k)
        EXPECT_EQ(a.objectives[k], b.objectives[k]);
    EXPECT_EQ(a.fidelity, b.fidelity);
    EXPECT_EQ(a.backend, b.backend);
}

} // namespace

// ------------------------------------------------------- differential ----

TEST(AnalyticalDifferential, EngineMatchesOracleLayerByLayer)
{
    // >= 200 sampled configurations plus the space corners, every
    // bundled policy model, all three dataflows, widths 1/2/4.
    const std::vector<sys::AcceleratorConfig> configs =
        sampleConfigs(201, 0xB47C11u);

    for (const nn::PolicyHyperParams &policy :
         nn::PolicySpace().enumerate()) {
        const nn::Model model = nn::buildE2EModel(policy);
        for (const sys::AcceleratorConfig &config : configs) {
            const sys::AnalyticalEngine engine(config);
            const sys::oracle::AnalyticalEngine oracle(config);
            for (const nn::Layer &layer : model.layers()) {
                SCOPED_TRACE(model.name() + "/" + layer.name + " @ " +
                             config.name() + " x" +
                             std::to_string(config.bytesPerElement));
                const sys::LayerResult got = engine.runLayer(layer);
                const sys::LayerResult want = oracle.runLayer(layer);
                EXPECT_EQ(got.rowFolds, want.rowFolds);
                EXPECT_EQ(got.colFolds, want.colFolds);
                EXPECT_EQ(got.computeCycles, want.computeCycles);
                EXPECT_EQ(got.stallCycles, want.stallCycles);
                EXPECT_EQ(got.totalCycles, want.totalCycles);
                expectTrafficEq(got.traffic, want.traffic);
            }
        }
    }
}

TEST(AnalyticalDifferential, FoldTrafficMatchesOraclePerFold)
{
    // Random conv and dense layers on arrays of 1-40 PEs a side and
    // scratchpads of 1-512 KiB, so every residency case and share
    // remainder occurs; every fold of each layer is compared.
    util::Rng rng(0xF01D5u);
    for (int trial = 0; trial < 2000; ++trial) {
        sys::AcceleratorConfig config;
        config.peRows = rng.uniformInt(1, 40);
        config.peCols = rng.uniformInt(1, 40);
        config.ifmapSramKb = rng.uniformInt(1, 512);
        config.filterSramKb = rng.uniformInt(1, 512);
        config.ofmapSramKb = rng.uniformInt(1, 512);
        config.dataflow = kDataflows[trial % 3];
        config.bytesPerElement = 1 << rng.uniformInt(0, 2);
        const nn::Layer layer =
            trial % 2 == 0
                ? nn::conv2d("c", rng.uniformInt(3, 40),
                             rng.uniformInt(3, 40), rng.uniformInt(1, 24),
                             3, rng.uniformInt(1, 2), rng.uniformInt(1, 48))
                : nn::dense("fc", rng.uniformInt(1, 600),
                            rng.uniformInt(1, 200));

        const sys::FoldTraffic folds(layer, config);
        const sys::oracle::FoldSchedule schedule =
            sys::oracle::scheduleGemm(layer.gemm(), config);
        ASSERT_EQ(folds.grid().rowFolds, schedule.rowFolds);
        ASSERT_EQ(folds.grid().colFolds, schedule.colFolds);
        for (std::int64_t f = 0; f < schedule.foldCount(); ++f) {
            const std::int64_t i = f / schedule.colFolds;
            const std::int64_t j = f % schedule.colFolds;
            SCOPED_TRACE(config.name() + " fold " + std::to_string(f));
            ASSERT_EQ(folds.fetchBytes(i, j),
                      sys::oracle::foldFetchBytes(layer, schedule, config,
                                                  f));
            ASSERT_EQ(folds.writebackBytes(i, j),
                      sys::oracle::foldWritebackBytes(layer, schedule,
                                                      config, f));
            ASSERT_EQ(folds.grid().cycles(i, j),
                      schedule.folds[static_cast<std::size_t>(f)].cycles);
        }
    }
}

// ------------------------------------------------------------- guards ----

TEST(EngineGuards, DegenerateDenominatorsReturnZero)
{
#ifndef NDEBUG
    GTEST_SKIP() << "debug builds assert on degenerate denominators";
#else
    sys::LayerResult layer;
    layer.gemm = {4, 4, 4};
    layer.totalCycles = 0;
    EXPECT_EQ(layer.utilization(16), 0.0);
    layer.totalCycles = 100;
    EXPECT_EQ(layer.utilization(0), 0.0);

    sys::RunResult run;
    run.totalCycles = 0;
    EXPECT_EQ(run.runtimeSeconds(1.0), 0.0);
    run.totalCycles = 1000;
    run.totalMacs = 1000;
    EXPECT_EQ(run.runtimeSeconds(0.0), 0.0);
    EXPECT_EQ(run.runtimeSeconds(-1.0), 0.0);
    EXPECT_EQ(run.framesPerSecond(0.0), 0.0);
    EXPECT_EQ(run.peUtilization(0), 0.0);
    EXPECT_GT(run.runtimeSeconds(0.2), 0.0);
#endif
}

// ------------------------------------------------------------ backend ----

TEST(AnalyticalBatch, BatchPathMatchesScalarEvaluate)
{
    dse::AnalyticalBackend backend(sharedContext());
    dse::DesignSpace space;
    util::Rng rng(0x5EEDu);
    std::vector<dse::DesignPoint> points;
    for (int i = 0; i < 64; ++i)
        points.push_back(space.decode(space.randomEncoding(rng)));

    std::vector<dse::Evaluation> batch(points.size());
    backend.evaluateBatch(points, nullptr,
                          [&batch](std::size_t i, dse::Evaluation &&e) {
                              batch[i] = std::move(e);
                          });

    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(i);
        expectEvaluationEq(batch[i], backend.evaluate(points[i]));
    }
}

TEST(AnalyticalBatch, PooledBatchMatchesSerialBatch)
{
    dse::AnalyticalBackend backend(sharedContext());
    dse::DesignSpace space;
    util::Rng rng(0xF00Du);
    std::vector<dse::DesignPoint> points;
    for (int i = 0; i < 48; ++i)
        points.push_back(space.decode(space.randomEncoding(rng)));

    std::vector<dse::Evaluation> serial(points.size());
    backend.evaluateBatch(points, nullptr,
                          [&serial](std::size_t i, dse::Evaluation &&e) {
                              serial[i] = std::move(e);
                          });

    for (const std::size_t workers : {2u, 4u}) {
        util::ThreadPool pool(workers);
        std::vector<dse::Evaluation> pooled(points.size());
        backend.evaluateBatch(
            points, &pool, [&pooled](std::size_t i, dse::Evaluation &&e) {
                pooled[i] = std::move(e);
            });

        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(std::to_string(workers) + " workers, point " +
                         std::to_string(i));
            expectEvaluationEq(pooled[i], serial[i]);
        }
    }
}
