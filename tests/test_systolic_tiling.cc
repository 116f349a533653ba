/**
 * @file
 * Tests for the systolic fold grid: coverage, timing formula and
 * per-dataflow dimension assignment, including property sweeps over the
 * Table II hardware space.
 */

#include <gtest/gtest.h>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/tiling.h"

namespace sys = autopilot::systolic;
namespace nn = autopilot::nn;

namespace
{

sys::AcceleratorConfig
makeConfig(int rows, int cols, sys::Dataflow dataflow)
{
    sys::AcceleratorConfig config;
    config.peRows = rows;
    config.peCols = cols;
    config.dataflow = dataflow;
    return config;
}

} // namespace

TEST(FoldCycles, MatchesPipelineFormula)
{
    // 2 * rows + cols + stream - 2.
    EXPECT_EQ(sys::foldCycles(8, 8, 100), 2 * 8 + 8 + 100 - 2);
    EXPECT_EQ(sys::foldCycles(1, 1, 1), 2 + 1 + 1 - 2);
}

TEST(ScheduleGemm, ExactFitSingleFold)
{
    const nn::GemmShape gemm{32, 16, 8}; // m, n, k.
    const sys::FoldGrid grid = sys::foldGrid(
        gemm, makeConfig(8, 16, sys::Dataflow::WeightStationary));
    // WS: rows <- k (8), cols <- n (16): one fold.
    EXPECT_EQ(grid.rowFolds, 1);
    EXPECT_EQ(grid.colFolds, 1);
    EXPECT_EQ(grid.foldCount(), 1);
    EXPECT_EQ(grid.streamDim, 32);
}

TEST(ScheduleGemm, PartialFoldsUsePartialArray)
{
    const nn::GemmShape gemm{10, 20, 12};
    const sys::FoldGrid grid = sys::foldGrid(
        gemm, makeConfig(8, 16, sys::Dataflow::WeightStationary));
    // k = 12 over 8 rows -> folds of 8 and 4; n = 20 over 16 cols -> 16, 4.
    EXPECT_EQ(grid.rowFolds, 2);
    EXPECT_EQ(grid.colFolds, 2);
    EXPECT_EQ(grid.rowsUsed(0), 8);
    EXPECT_EQ(grid.colsUsed(0), 16);
    EXPECT_EQ(grid.rowsUsed(1), 4);
    EXPECT_EQ(grid.colsUsed(1), 4);
}

TEST(ScheduleGemm, DimensionAssignmentPerDataflow)
{
    const nn::GemmShape gemm{100, 20, 30};
    const sys::FoldGrid ws = sys::foldGrid(
        gemm, makeConfig(8, 8, sys::Dataflow::WeightStationary));
    const sys::FoldGrid os = sys::foldGrid(
        gemm, makeConfig(8, 8, sys::Dataflow::OutputStationary));
    const sys::FoldGrid is = sys::foldGrid(
        gemm, makeConfig(8, 8, sys::Dataflow::InputStationary));

    // WS: rows <- k=30 (4 folds), cols <- n=20 (3), stream m=100.
    EXPECT_EQ(ws.rowFolds, 4);
    EXPECT_EQ(ws.colFolds, 3);
    EXPECT_EQ(ws.streamDim, 100);
    // OS: rows <- m=100 (13), cols <- n=20 (3), stream k=30.
    EXPECT_EQ(os.rowFolds, 13);
    EXPECT_EQ(os.colFolds, 3);
    EXPECT_EQ(os.streamDim, 30);
    // IS: rows <- k=30 (4), cols <- m=100 (13), stream n=20.
    EXPECT_EQ(is.rowFolds, 4);
    EXPECT_EQ(is.colFolds, 13);
    EXPECT_EQ(is.streamDim, 20);
}

/** Property sweep: MAC coverage and fold accounting over the space. */
class TilingProperty
    : public ::testing::TestWithParam<
          std::tuple<int, int, sys::Dataflow>>
{
};

TEST_P(TilingProperty, FoldsCoverAllMacsExactly)
{
    const auto [rows, cols, dataflow] = GetParam();
    const nn::Layer conv = nn::conv2d("c", 64, 64, 16, 3, 2, 40);
    const nn::GemmShape gemm = conv.gemm();
    const sys::FoldGrid grid =
        sys::foldGrid(gemm, makeConfig(rows, cols, dataflow));
    std::int64_t macs = 0;
    std::int64_t folds = 0;
    for (std::int64_t i = 0; i < grid.rowFolds; ++i) {
        for (std::int64_t j = 0; j < grid.colFolds; ++j) {
            macs += grid.rowsUsed(i) * grid.colsUsed(j) * grid.streamDim;
            ++folds;
        }
    }
    EXPECT_EQ(macs, gemm.macs());
    EXPECT_EQ(folds, grid.foldCount());
}

TEST_P(TilingProperty, FoldDimensionsWithinArray)
{
    const auto [rows, cols, dataflow] = GetParam();
    const nn::Layer fc = nn::dense("fc", 1000, 77);
    const sys::FoldGrid grid =
        sys::foldGrid(fc.gemm(), makeConfig(rows, cols, dataflow));
    for (std::int64_t i = 0; i < grid.rowFolds; ++i) {
        for (std::int64_t j = 0; j < grid.colFolds; ++j) {
            EXPECT_GE(grid.rowsUsed(i), 1);
            EXPECT_LE(grid.rowsUsed(i), rows);
            EXPECT_GE(grid.colsUsed(j), 1);
            EXPECT_LE(grid.colsUsed(j), cols);
            EXPECT_EQ(grid.cycles(i, j),
                      sys::foldCycles(grid.rowsUsed(i), grid.colsUsed(j),
                                      grid.streamDim));
        }
    }
}

TEST_P(TilingProperty, ComputeCyclesAtLeastIdealMacs)
{
    const auto [rows, cols, dataflow] = GetParam();
    const nn::Layer conv = nn::conv2d("c", 32, 32, 8, 3, 1, 24);
    const nn::GemmShape gemm = conv.gemm();
    const sys::FoldGrid grid =
        sys::foldGrid(gemm, makeConfig(rows, cols, dataflow));
    const std::int64_t ideal =
        (gemm.macs() + static_cast<std::int64_t>(rows) * cols - 1) /
        (static_cast<std::int64_t>(rows) * cols);
    EXPECT_GE(grid.computeCycles(), ideal);
    // The closed form is the fold-by-fold sum.
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < grid.rowFolds; ++i)
        for (std::int64_t j = 0; j < grid.colFolds; ++j)
            sum += grid.cycles(i, j);
    EXPECT_EQ(grid.computeCycles(), sum);
}

INSTANTIATE_TEST_SUITE_P(
    Space, TilingProperty,
    ::testing::Combine(
        ::testing::Values(8, 16, 64, 256),
        ::testing::Values(8, 32, 128),
        ::testing::Values(sys::Dataflow::WeightStationary,
                          sys::Dataflow::OutputStationary,
                          sys::Dataflow::InputStationary)));

TEST(Config, NameIsDescriptive)
{
    sys::AcceleratorConfig config;
    config.peRows = 16;
    config.peCols = 32;
    config.ifmapSramKb = 128;
    config.filterSramKb = 64;
    config.ofmapSramKb = 64;
    EXPECT_EQ(config.name(), "ws_16x32_i128_f64_o64");
}

TEST(Config, PeCountAndTotalSram)
{
    sys::AcceleratorConfig config;
    config.peRows = 64;
    config.peCols = 128;
    EXPECT_EQ(config.peCount(), 64 * 128);
    config.ifmapSramKb = 32;
    config.filterSramKb = 64;
    config.ofmapSramKb = 128;
    EXPECT_EQ(config.totalSramKb(), 224);
}

TEST(Config, HardwareSpaceCardinality)
{
    const sys::HardwareSpace space;
    // 8 rows x 8 cols x 8^3 SRAM combinations.
    EXPECT_EQ(space.cardinality(), 8LL * 8 * 8 * 8 * 8);
}

TEST(Config, HardwareSpaceContains)
{
    const sys::HardwareSpace space;
    sys::AcceleratorConfig config; // 32x32, 256KB defaults.
    EXPECT_TRUE(space.contains(config));
    config.peRows = 24;
    EXPECT_FALSE(space.contains(config));
}

TEST(ConfigDeath, ValidateRejectsBadClock)
{
    sys::AcceleratorConfig config;
    config.clockGhz = 0.0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1), "clock");
}

TEST(Dataflow, Names)
{
    EXPECT_EQ(sys::dataflowName(sys::Dataflow::WeightStationary), "WS");
    EXPECT_EQ(sys::dataflowName(sys::Dataflow::OutputStationary), "OS");
    EXPECT_EQ(sys::dataflowName(sys::Dataflow::InputStationary), "IS");
}
