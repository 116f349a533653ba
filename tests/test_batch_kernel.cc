/**
 * @file
 * Batch-kernel equivalence suite for the raw-speed analytical core:
 *
 *  - Randomized property test: evaluatePlanBatch() aggregates are
 *    byte-identical to scalar AnalyticalEngine::run on every bundled
 *    policy model, across randomly sampled hardware-space configurations
 *    and all three dataflows (the scalar engine stays the reference
 *    implementation; the SoA kernel must never drift from it).
 *  - Arena semantics: alignment, growth without invalidation, reset()
 *    recycling (same blocks, same pointers), and the reuse property -
 *    two batches through one arena produce results identical to fresh
 *    arenas per batch.
 *  - AnalyticalBackend batch path vs. its own scalar evaluate() -
 *    field-exact Evaluations, including through a thread pool.
 *  - Degenerate-denominator guards return 0 instead of inf/NaN.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "airlearning/trainer.h"
#include "dse/eval_backend.h"
#include "nn/e2e_template.h"
#include "systolic/compiled_plan.h"
#include "systolic/engine.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace al = autopilot::airlearning;
namespace dse = autopilot::dse;
namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;
namespace util = autopilot::util;

namespace
{

/** Sample @p count configurations from the Table II hardware space,
 *  cycling through all three dataflows. */
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
        switch (i % 3) {
          case 0: cfg.dataflow = sys::Dataflow::WeightStationary; break;
          case 1: cfg.dataflow = sys::Dataflow::OutputStationary; break;
          case 2: cfg.dataflow = sys::Dataflow::InputStationary; break;
        }
        configs.push_back(cfg);
    }
    // Pin the corners of the space on top of the random sample.
    sys::AcceleratorConfig smallest;
    smallest.peRows = smallest.peCols = 8;
    smallest.ifmapSramKb = smallest.filterSramKb = smallest.ofmapSramKb = 32;
    configs.push_back(smallest);
    sys::AcceleratorConfig largest;
    largest.peRows = largest.peCols = 1024;
    largest.ifmapSramKb = largest.filterSramKb = largest.ofmapSramKb = 4096;
    configs.push_back(largest);
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

// ------------------------------------------------------------- kernel ----

TEST(CompiledPlan, InvariantsMatchModel)
{
    const nn::Model model = nn::buildE2EModel({4, 48});
    const sys::CompiledModelPlan plan =
        sys::CompiledModelPlan::compile(model);
    ASSERT_EQ(plan.layerCount(), model.layers().size());
    std::int64_t macs = 0;
    for (std::size_t l = 0; l < plan.layerCount(); ++l) {
        const nn::Layer &layer = model.layers()[l];
        const nn::GemmShape gemm = layer.gemm();
        EXPECT_EQ(plan.gemmM[l], gemm.m);
        EXPECT_EQ(plan.gemmN[l], gemm.n);
        EXPECT_EQ(plan.gemmK[l], gemm.k);
        EXPECT_EQ(plan.mk[l], gemm.m * gemm.k);
        EXPECT_EQ(plan.kn[l], gemm.k * gemm.n);
        EXPECT_EQ(plan.mn[l], gemm.m * gemm.n);
        EXPECT_EQ(plan.ifmapElems[l], layer.ifmapElems());
        EXPECT_EQ(plan.filterElems[l], layer.filterElems());
        EXPECT_EQ(plan.ofmapElems[l], layer.ofmapElems());
        macs += gemm.macs();
    }
    EXPECT_EQ(plan.totalMacs(), macs);
}

TEST(CompiledPlan, BatchKernelByteIdenticalToScalarEngine)
{
    // >= 200 sampled configurations (plus the space corners), every
    // bundled policy model, all three dataflows.
    const std::vector<sys::AcceleratorConfig> configs =
        sampleConfigs(200, 0xB47C11u);
    util::Arena arena;

    for (const nn::PolicyHyperParams &policy :
         nn::PolicySpace().enumerate()) {
        const nn::Model model = nn::buildE2EModel(policy);
        const sys::CompiledModelPlan plan =
            sys::CompiledModelPlan::compile(model);

        arena.reset();
        const sys::BatchRunView batch =
            sys::evaluatePlanBatch(plan, configs, arena);

        for (std::size_t c = 0; c < configs.size(); ++c) {
            SCOPED_TRACE(model.name() + " @ " + configs[c].name());
            const sys::AnalyticalEngine engine(configs[c]);
            const sys::RunResult scalar = engine.run(model);
            EXPECT_EQ(batch.totalCycles[c], scalar.totalCycles);
            EXPECT_EQ(batch.computeCycles[c], scalar.computeCycles);
            EXPECT_EQ(batch.stallCycles[c], scalar.stallCycles);
            EXPECT_EQ(batch.totalMacs[c], scalar.totalMacs);
            expectTrafficEq(batch.traffic[c], scalar.traffic);
        }
    }
}

// -------------------------------------------------------------- arena ----

TEST(Arena, AlignedAllocationAndAccounting)
{
    util::Arena arena(128);
    EXPECT_EQ(arena.blockCount(), 1u);
    EXPECT_EQ(arena.usedBytes(), 0u);

    const std::span<std::int64_t> a = arena.allocate<std::int64_t>(4);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) %
                  alignof(std::int64_t),
              0u);
    for (const std::int64_t value : a)
        EXPECT_EQ(value, 0); // Value-initialized.
    EXPECT_EQ(arena.usedBytes(), 4 * sizeof(std::int64_t));

    // Force growth past the 128-byte first block; earlier spans stay
    // valid and the chain gains a block.
    a[0] = 42;
    const std::span<double> b = arena.allocate<double>(64);
    ASSERT_EQ(b.size(), 64u);
    EXPECT_EQ(a[0], 42);
    EXPECT_GE(arena.blockCount(), 2u);
    EXPECT_GE(arena.capacityBytes(), 128u + 64 * sizeof(double));
}

TEST(Arena, ResetRecyclesBlocksAndPointers)
{
    util::Arena arena(256);
    void *first = arena.allocateBytes(64, 8);
    arena.allocateBytes(1024, 8); // Grow.
    const std::size_t capacity = arena.capacityBytes();
    const std::size_t blocks = arena.blockCount();

    arena.reset();
    EXPECT_EQ(arena.usedBytes(), 0u);
    EXPECT_EQ(arena.capacityBytes(), capacity);
    EXPECT_EQ(arena.blockCount(), blocks);
    // Same block chain, so the first allocation lands on the same spot.
    EXPECT_EQ(arena.allocateBytes(64, 8), first);
}

TEST(Arena, ReusedArenaMatchesFreshArenas)
{
    const std::vector<sys::AcceleratorConfig> batchA =
        sampleConfigs(40, 0xAAu);
    const std::vector<sys::AcceleratorConfig> batchB =
        sampleConfigs(40, 0xBBu);
    const nn::Model model = nn::buildE2EModel({7, 64});
    const sys::CompiledModelPlan plan =
        sys::CompiledModelPlan::compile(model);

    // Reference: one fresh arena per batch.
    util::Arena freshA, freshB;
    const sys::BatchRunView refA =
        sys::evaluatePlanBatch(plan, batchA, freshA);
    const sys::BatchRunView refB =
        sys::evaluatePlanBatch(plan, batchB, freshB);

    // One arena, reset between batches (the backend's steady state).
    util::Arena reused;
    sys::BatchRunView gotA = sys::evaluatePlanBatch(plan, batchA, reused);
    for (std::size_t i = 0; i < batchA.size(); ++i) {
        EXPECT_EQ(gotA.totalCycles[i], refA.totalCycles[i]);
        EXPECT_EQ(gotA.totalMacs[i], refA.totalMacs[i]);
        expectTrafficEq(gotA.traffic[i], refA.traffic[i]);
    }
    reused.reset();
    const sys::BatchRunView gotB =
        sys::evaluatePlanBatch(plan, batchB, reused);
    const std::size_t warmCapacity = reused.capacityBytes();
    for (std::size_t i = 0; i < batchB.size(); ++i) {
        EXPECT_EQ(gotB.totalCycles[i], refB.totalCycles[i]);
        EXPECT_EQ(gotB.computeCycles[i], refB.computeCycles[i]);
        EXPECT_EQ(gotB.stallCycles[i], refB.stallCycles[i]);
        EXPECT_EQ(gotB.totalMacs[i], refB.totalMacs[i]);
        expectTrafficEq(gotB.traffic[i], refB.traffic[i]);
    }
    // A warm arena serves an identical batch without growing.
    reused.reset();
    sys::evaluatePlanBatch(plan, batchB, reused);
    EXPECT_EQ(reused.capacityBytes(), warmCapacity);
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

    util::ThreadPool pool(4);
    std::vector<dse::Evaluation> pooled(points.size());
    backend.evaluateBatch(points, &pool,
                          [&pooled](std::size_t i, dse::Evaluation &&e) {
                              pooled[i] = std::move(e);
                          });

    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(i);
        expectEvaluationEq(pooled[i], serial[i]);
    }
}

