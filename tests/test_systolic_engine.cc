/**
 * @file
 * Tests for the two performance engines, including the bracketing
 * property between the analytical and cycle-stepped models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "nn/e2e_template.h"
#include "systolic/cycle_engine.h"
#include "systolic/engine.h"
#include "util/rng.h"

namespace sys = autopilot::systolic;
namespace nn = autopilot::nn;

namespace
{

sys::AcceleratorConfig
makeConfig(int rows, int cols, int sram_kb,
           sys::Dataflow dataflow = sys::Dataflow::WeightStationary)
{
    sys::AcceleratorConfig config;
    config.peRows = rows;
    config.peCols = cols;
    config.ifmapSramKb = sram_kb;
    config.filterSramKb = sram_kb;
    config.ofmapSramKb = sram_kb;
    config.dataflow = dataflow;
    return config;
}

nn::Model
smallModel()
{
    nn::Model model("small");
    model.append(nn::conv2d("c0", 32, 32, 3, 3, 2, 8));
    model.append(nn::dense("fc", 15 * 15 * 8, 10));
    return model;
}

} // namespace

TEST(AnalyticalEngine, LayerResultSelfConsistent)
{
    const sys::AnalyticalEngine engine(makeConfig(16, 16, 128));
    const nn::Layer conv = nn::conv2d("c", 64, 64, 3, 5, 2, 16);
    const sys::LayerResult result = engine.runLayer(conv);
    EXPECT_EQ(result.totalCycles,
              result.computeCycles + result.stallCycles);
    EXPECT_GT(result.computeCycles, 0);
    EXPECT_GE(result.stallCycles, 0);
    EXPECT_GT(result.traffic.totalDramBytes(), 0);
}

TEST(AnalyticalEngine, RunAggregatesLayers)
{
    const sys::AnalyticalEngine engine(makeConfig(16, 16, 128));
    const nn::Model model = smallModel();
    const sys::RunResult run = engine.run(model);
    EXPECT_EQ(run.layers.size(), model.size());
    std::int64_t cycle_sum = 0;
    for (const auto &layer : run.layers)
        cycle_sum += layer.totalCycles;
    EXPECT_EQ(run.totalCycles, cycle_sum);
    EXPECT_EQ(run.totalMacs, model.totalMacs());
}

TEST(AnalyticalEngine, FpsScalesLinearlyWithClock)
{
    auto config = makeConfig(16, 16, 128);
    const sys::AnalyticalEngine engine(config);
    const sys::RunResult run = engine.run(smallModel());
    const double fps_200 = run.framesPerSecond(0.2);
    const double fps_400 = run.framesPerSecond(0.4);
    EXPECT_NEAR(fps_400 / fps_200, 2.0, 1e-9);
}

TEST(AnalyticalEngine, UtilizationBounded)
{
    const auto config = makeConfig(32, 32, 256);
    const sys::AnalyticalEngine engine(config);
    const sys::RunResult run = engine.run(nn::buildE2EModel({5, 32}));
    const double util = run.peUtilization(config.peCount());
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(CycleEngine, MatchesTrafficTotals)
{
    const auto config = makeConfig(16, 16, 64);
    const sys::CycleEngine cycle(config);
    const sys::AnalyticalEngine analytic(config);
    const nn::Layer conv = nn::conv2d("c", 64, 64, 8, 3, 2, 32);
    const auto cycle_result = cycle.runLayer(conv);
    const auto analytic_result = analytic.runLayer(conv);
    // Both engines report identical traffic (shared memory model).
    EXPECT_EQ(cycle_result.traffic.totalDramBytes(),
              analytic_result.traffic.totalDramBytes());
    EXPECT_EQ(cycle_result.computeCycles,
              analytic_result.computeCycles);
}

/**
 * Bracketing property: for every layer,
 *   max(compute, dram) <= cycle_total <= compute + dram + slack,
 * where slack covers the first-tile fill and last-writeback drain.
 */
class EngineBracketing
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, sys::Dataflow>>
{
};

TEST_P(EngineBracketing, CycleEngineWithinAnalyticalBounds)
{
    const auto [rows, cols, sram_kb, dataflow] = GetParam();
    const auto config = makeConfig(rows, cols, sram_kb, dataflow);
    const sys::CycleEngine cycle(config);

    const nn::Layer layers[] = {
        nn::conv2d("conv", 64, 64, 16, 3, 2, 48),
        nn::dense("fc", 4096, 512),
    };
    for (const nn::Layer &layer : layers) {
        const auto result = cycle.runLayer(layer);
        const std::int64_t dram_cycles =
            (result.traffic.totalDramBytes() + config.dramBytesPerCycle -
             1) /
            config.dramBytesPerCycle;
        const std::int64_t lower =
            std::max(result.computeCycles, dram_cycles);
        // Generous slack: fill/drain plus double-buffer serialization
        // bubbles (a few percent of the serialized time).
        const std::int64_t serialized =
            result.computeCycles + dram_cycles;
        const std::int64_t slack =
            4 * (rows + cols) + 2 * config.dramBytesPerCycle +
            serialized / 20;
        EXPECT_GE(result.totalCycles, lower) << layer.name;
        EXPECT_LE(result.totalCycles, serialized + slack) << layer.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Space, EngineBracketing,
    ::testing::Combine(
        ::testing::Values(8, 32, 128),
        ::testing::Values(8, 64),
        ::testing::Values(32, 512),
        ::testing::Values(sys::Dataflow::WeightStationary,
                          sys::Dataflow::OutputStationary,
                          sys::Dataflow::InputStationary)));

TEST(Engines, BiggerArrayNeverSlowerOnBigLayers)
{
    // For a fixed large conv layer, growing the array monotonically
    // reduces (or keeps) the cycle count.
    const nn::Layer conv = nn::conv2d("c", 128, 128, 32, 3, 1, 64);
    std::int64_t prev = -1;
    for (int size : {8, 16, 32, 64, 128}) {
        const sys::CycleEngine engine(makeConfig(size, size, 1024));
        const auto result = engine.runLayer(conv);
        if (prev >= 0) {
            EXPECT_LE(result.totalCycles, prev) << size;
        }
        prev = result.totalCycles;
    }
}

TEST(Engines, DramBoundLayerShowsStalls)
{
    // A big dense layer on a huge array with a narrow DRAM interface must
    // be dominated by stalls.
    auto config = makeConfig(256, 256, 4096);
    config.dramBytesPerCycle = 1;
    const sys::CycleEngine engine(config);
    const auto result = engine.runLayer(nn::dense("fc", 12288, 2048));
    EXPECT_GT(result.stallCycles, result.computeCycles);
}

TEST(Engines, ComputeBoundLayerHasFewStalls)
{
    // A deep conv on a tiny array with a wide interface is compute-bound.
    auto config = makeConfig(8, 8, 4096);
    config.dramBytesPerCycle = 256;
    const sys::CycleEngine engine(config);
    const auto result =
        engine.runLayer(nn::conv2d("c", 64, 64, 32, 3, 1, 64));
    EXPECT_LT(result.stallCycles, result.computeCycles / 4);
}

TEST(Engines, FullPolicyModelRunsOnAllDataflows)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    for (sys::Dataflow dataflow :
         {sys::Dataflow::WeightStationary,
          sys::Dataflow::OutputStationary,
          sys::Dataflow::InputStationary}) {
        const sys::CycleEngine engine(
            makeConfig(32, 32, 256, dataflow));
        const sys::RunResult run = engine.run(model);
        EXPECT_GT(run.framesPerSecond(0.2), 1.0)
            << sys::dataflowName(dataflow);
        EXPECT_EQ(run.totalMacs, model.totalMacs());
    }
}

TEST(EnginesDeath, EmptyModelRejected)
{
    const sys::AnalyticalEngine engine(makeConfig(8, 8, 32));
    nn::Model empty("empty");
    EXPECT_EXIT(engine.run(empty), ::testing::ExitedWithCode(1), "empty");
}

// ------------------------------------------------------- contention ----

TEST(Contention, EmptyProfileIsBitIdentical)
{
    const auto config = makeConfig(16, 16, 128);
    const sys::CycleEngine plain(config);
    const sys::CycleEngine contended(config, sys::ContentionProfile{});
    const nn::Model model = nn::buildE2EModel({5, 32});
    const sys::RunResult a = plain.run(model);
    const sys::RunResult b = contended.run(model);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.traffic.totalDramBytes(), b.traffic.totalDramBytes());
}

TEST(Contention, BackgroundTrafficMonotonicallySlows)
{
    const auto config = makeConfig(16, 16, 128);
    const nn::Model model = nn::buildE2EModel({5, 32});
    // Peak channel bandwidth: 32 B/cycle * 0.2 GHz = 6.4 GB/s.
    std::int64_t previous = 0;
    for (const double background : {0.0, 1.6e9, 3.2e9, 4.8e9}) {
        sys::ContentionProfile profile;
        profile.cameraBytesPerSec = background;
        const sys::CycleEngine engine(config, profile);
        const std::int64_t cycles = engine.run(model).totalCycles;
        EXPECT_GE(cycles, previous) << "background " << background;
        previous = cycles;
    }
    // The most contended sweep point must be strictly slower than the
    // quiet channel, and only stall cycles may grow.
    sys::ContentionProfile heavy;
    heavy.cameraBytesPerSec = 4.8e9;
    const sys::CycleEngine quiet(config);
    const sys::CycleEngine contended(config, heavy);
    const sys::RunResult q = quiet.run(model);
    const sys::RunResult c = contended.run(model);
    EXPECT_GT(c.totalCycles, q.totalCycles);
    EXPECT_EQ(c.computeCycles, q.computeCycles);
}

TEST(Contention, QosFloorBoundsTheSlowdown)
{
    const auto config = makeConfig(16, 16, 128);
    const nn::Model model = nn::buildE2EModel({5, 32});
    sys::ContentionProfile floored;
    floored.cameraBytesPerSec = 1e12; // Way past the 6.4 GB/s peak.
    floored.npuFloorFraction = 0.25;
    const sys::CycleEngine engine(config, floored);
    sys::ContentionProfile quarter;
    quarter.cameraBytesPerSec = 4.8e9; // Exactly 25% of peak left.
    const sys::CycleEngine reference(config, quarter);
    EXPECT_EQ(engine.run(model).totalCycles,
              reference.run(model).totalCycles);
}

TEST(ContentionDeath, FullyContendedChannelDiagnosed)
{
    const auto config = makeConfig(16, 16, 128);
    sys::ContentionProfile profile;
    profile.cameraBytesPerSec = 6.4e9; // == peak; zero left, no floor.
    EXPECT_EXIT(sys::CycleEngine(config, profile),
                ::testing::ExitedWithCode(1),
                "no DRAM bandwidth");
}

TEST(Contention, SmallestAcceptedDerateIsNoFasterThanIdeal)
{
    // The default config and (5, 32) policy under a saturating camera
    // stream, so the QoS floor is the derate. At the smallest accepted
    // derate every cycle count still fits int64, and the run is slower
    // than on the ideal channel; a floor below it is rejected (1e-15
    // overflowed in the fast-forward, 1e-300 in the transfer cast and
    // returned fewer cycles than the ideal engine).
    const sys::AcceleratorConfig config;
    const nn::Model model = nn::buildE2EModel({5, 32});
    sys::ContentionProfile profile;
    profile.cameraBytesPerSec = 1e11;
    profile.npuFloorFraction = sys::ContentionProfile::minDerate;
    ASSERT_EQ(profile.infeasibleReason(config), "");
    const sys::RunResult ideal = sys::CycleEngine(config).run(model);
    const sys::RunResult slowest =
        sys::CycleEngine(config, profile).run(model);
    EXPECT_GE(slowest.totalCycles, ideal.totalCycles);
    EXPECT_EQ(slowest.computeCycles, ideal.computeCycles);

    for (const double floor :
         {std::nextafter(sys::ContentionProfile::minDerate, 0.0), 1e-15,
          1e-300}) {
        profile.npuFloorFraction = floor;
        EXPECT_NE(profile.infeasibleReason(config).find("below the minimum"),
                  std::string::npos)
            << floor;
    }
}

TEST(ContentionDeath, RejectsBadProfiles)
{
    sys::ContentionProfile negative;
    negative.hostBytesPerSec = -1.0;
    EXPECT_EXIT(negative.validate(), ::testing::ExitedWithCode(1),
                "host rate");
    sys::ContentionProfile nan;
    nan.cameraBytesPerSec = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(nan.validate(), ::testing::ExitedWithCode(1),
                "camera rate");
    sys::ContentionProfile floor;
    floor.npuFloorFraction = 1.0;
    EXPECT_EXIT(floor.validate(), ::testing::ExitedWithCode(1),
                "QoS floor");
}

// ------------------------------------- fast-forwarded fold timeline ----

namespace
{

/** A random layer and accelerator for the fold-timeline differentials. */
struct TimelineCase
{
    nn::Layer layer;
    sys::AcceleratorConfig config;
    double derate = 1.0;
};

/**
 * Conv and dense layers on non-power-of-two arrays of 1-40 PEs a side,
 * all three dataflows, scratchpads of 1-512 KiB (so every residency
 * combination occurs), DRAM widths 1-64, operand widths 1/2/4, and
 * derates of 1 or in (0.05, 1). Layers over @p max_folds folds are
 * redrawn to bound the stepped oracle's run time.
 */
TimelineCase
randomTimelineCase(autopilot::util::Rng &rng, std::int64_t max_folds)
{
    for (;;) {
        TimelineCase c{nn::dense("fc", 1, 1), {}, 1.0};
        sys::AcceleratorConfig &config = c.config;
        config.peRows = rng.uniformInt(1, 40);
        config.peCols = rng.uniformInt(1, 40);
        config.ifmapSramKb = rng.uniformInt(1, 512);
        config.filterSramKb = rng.uniformInt(1, 512);
        config.ofmapSramKb = rng.uniformInt(1, 512);
        config.dataflow = static_cast<sys::Dataflow>(rng.uniformInt(0, 2));
        config.dramBytesPerCycle = rng.uniformInt(1, 64);
        config.bytesPerElement = 1 << rng.uniformInt(0, 2);
        if (rng.bernoulli(0.5))
            c.derate = rng.uniform(0.05, 1.0);
        if (rng.bernoulli(0.7)) {
            const int kernel = rng.uniformInt(1, 5);
            c.layer = nn::conv2d("conv", kernel + rng.uniformInt(0, 40),
                                 kernel + rng.uniformInt(0, 40),
                                 rng.uniformInt(1, 48), kernel,
                                 rng.uniformInt(1, 3),
                                 rng.uniformInt(1, 96));
        } else {
            c.layer = nn::dense("fc", rng.uniformInt(1, 4096),
                                rng.uniformInt(1, 512));
        }
        if (sys::foldGrid(c.layer.gemm(), config).foldCount() <= max_folds)
            return c;
    }
}

/** The case's parameters, for a failure message. */
std::string
describe(const TimelineCase &c)
{
    const nn::GemmShape gemm = c.layer.gemm();
    return c.config.name() + " width " +
           std::to_string(c.config.dramBytesPerCycle) + " bpe " +
           std::to_string(c.config.bytesPerElement) + " derate " +
           std::to_string(c.derate) + " gemm m" + std::to_string(gemm.m) +
           " k" + std::to_string(gemm.k) + " n" + std::to_string(gemm.n);
}

/**
 * Random boundaries of runs over @p length: 0, up to four inner
 * boundaries, @p length.
 */
sys::FoldRuns
randomRuns(autopilot::util::Rng &rng, std::int64_t length)
{
    std::vector<std::int64_t> at = {0, length};
    for (int k = rng.uniformInt(0, 4); k > 0 && length > 1; --k)
        at.push_back(rng.uniformInt(1, static_cast<int>(length) - 1));
    std::sort(at.begin(), at.end());
    at.erase(std::unique(at.begin(), at.end()), at.end());
    sys::FoldRuns runs;
    for (const std::int64_t boundary : at)
        runs.at[static_cast<std::size_t>(runs.count++)] = boundary;
    return runs;
}

/** Index of the run of @p runs that holds @p index. */
int
runOf(const sys::FoldRuns &runs, std::int64_t index)
{
    int r = 0;
    while (runs.at[r + 1] <= index)
        ++r;
    return r;
}

/**
 * Per-fold inputs with FoldTraffic's interface, drawn at random and
 * constant on random runs of rows and of columns over a grid of full
 * tiles. Unlike the traffic model's, the last fold may sit inside a
 * long run, so the fast-forward's jumps decide the final writeback.
 */
struct RandomRunFolds
{
    sys::FoldGrid foldGrid;
    sys::FoldRuns rows;
    sys::FoldRuns cols;
    std::vector<std::int64_t> fetch;     ///< Per (row run, column run).
    std::vector<std::int64_t> writeback; ///< Per (row run, column run).

    explicit RandomRunFolds(autopilot::util::Rng &rng)
    {
        foldGrid.peRows = rng.uniformInt(1, 40);
        foldGrid.peCols = rng.uniformInt(1, 40);
        foldGrid.rowFolds = rng.uniformInt(1, 80);
        foldGrid.colFolds = rng.uniformInt(1, 80);
        foldGrid.rowDim = foldGrid.rowFolds * foldGrid.peRows;
        foldGrid.colDim = foldGrid.colFolds * foldGrid.peCols;
        foldGrid.streamDim = rng.uniformInt(1, 300);
        rows = randomRuns(rng, foldGrid.rowFolds);
        cols = randomRuns(rng, foldGrid.colFolds);
        for (int k = 0; k < (rows.count - 1) * (cols.count - 1); ++k) {
            fetch.push_back(rng.bernoulli(0.2) ? 0
                                               : rng.uniformInt(1, 6000));
            writeback.push_back(
                rng.bernoulli(0.3) ? 0 : rng.uniformInt(1, 6000));
        }
    }

    std::size_t cell(std::int64_t i, std::int64_t j) const
    {
        return static_cast<std::size_t>(runOf(rows, i) * (cols.count - 1) +
                                        runOf(cols, j));
    }

    const sys::FoldGrid &grid() const { return foldGrid; }
    std::int64_t fetchBytes(std::int64_t i, std::int64_t j) const
    {
        return fetch[cell(i, j)];
    }
    std::int64_t writebackBytes(std::int64_t i, std::int64_t j) const
    {
        return writeback[cell(i, j)];
    }
    sys::FoldRuns rowRuns() const { return rows; }
    sys::FoldRuns columnRuns(std::int64_t) const { return cols; }
};

} // namespace

TEST(FoldTimelineDifferential, FlatLayerMatchesSteppedTimelineExactly)
{
    autopilot::util::Rng rng(20221001);
    int residency_seen[2][2][2] = {};
    int dataflow_seen[3] = {};
    int derated = 0;
    for (int n = 0; n < 12000; ++n) {
        const TimelineCase c = randomTimelineCase(rng, 6000);
        const sys::FlatChannel channel(c.config.dramBytesPerCycle,
                                       c.derate);
        const sys::LayerResult stepped =
            sys::runFoldTimeline(c.layer, c.config, channel);
        const sys::LayerResult fast =
            sys::runFlatLayer(c.layer, c.config, c.derate);
        ASSERT_EQ(fast.totalCycles, stepped.totalCycles) << describe(c);
        ASSERT_EQ(fast.computeCycles, stepped.computeCycles) << describe(c);
        ASSERT_EQ(fast.stallCycles, stepped.stallCycles) << describe(c);
        ASSERT_EQ(fast.rowFolds, stepped.rowFolds) << describe(c);
        ASSERT_EQ(fast.colFolds, stepped.colFolds) << describe(c);
        ASSERT_TRUE(fast.traffic == stepped.traffic) << describe(c);

        const sys::Residency residency =
            sys::analyzeResidency(c.layer, c.config);
        ++residency_seen[residency.ifmapResident][residency.filterResident]
                        [residency.psumOnChip];
        ++dataflow_seen[static_cast<int>(c.config.dataflow)];
        derated += c.derate < 1.0;
    }
    for (const auto &filter : residency_seen)
        for (const auto &psum : filter)
            for (const int seen : psum)
                EXPECT_GT(seen, 0) << "a residency case never occurred";
    for (const int seen : dataflow_seen)
        EXPECT_GT(seen, 0);
    EXPECT_GT(derated, 0);
}

TEST(FoldTimelineDifferential, FastForwardMatchesSteppingOnAnyRuns)
{
    autopilot::util::Rng rng(20221002);
    for (int n = 0; n < 4000; ++n) {
        const RandomRunFolds folds(rng);
        const sys::FlatChannel channel(
            rng.uniformInt(1, 64),
            rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.05, 1.0));
        const sys::TimelineCycles stepped =
            sys::stepTimeline(folds, channel);
        const sys::TimelineCycles fast =
            sys::fastForwardTimeline(folds, channel);
        ASSERT_EQ(fast.total, stepped.total) << "case " << n;
        ASSERT_EQ(fast.busy, stepped.busy) << "case " << n;
    }
}
