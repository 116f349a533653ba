/**
 * @file
 * Ground-truth validation of the systolic timing model: the functional
 * register-level array must (a) compute bit-exact GEMM results through
 * the skewed weight-stationary pipeline and (b) take exactly the cycle
 * count the analytic fold formula predicts, across shapes and tilings.
 */

#include <gtest/gtest.h>

#include "nn/layer.h"
#include "oracle/systolic_functional.h"
#include "systolic/tiling.h"
#include "util/rng.h"

namespace sys = autopilot::systolic;
namespace oracle = autopilot::systolic::oracle;
namespace nn = autopilot::nn;
using autopilot::util::Rng;

namespace
{

oracle::IntMatrix
randomMatrix(std::int64_t rows, std::int64_t cols, Rng &rng)
{
    oracle::IntMatrix m(rows, cols);
    for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c = 0; c < cols; ++c)
            m.at(r, c) = rng.uniformInt(-128, 127); // INT8 operands.
    return m;
}

} // namespace

TEST(Functional, ReferenceGemmKnownValues)
{
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50].
    oracle::IntMatrix a(2, 2), b(2, 2);
    a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
    b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
    const oracle::IntMatrix c = oracle::referenceGemm(a, b);
    EXPECT_EQ(c.at(0, 0), 19);
    EXPECT_EQ(c.at(0, 1), 22);
    EXPECT_EQ(c.at(1, 0), 43);
    EXPECT_EQ(c.at(1, 1), 50);
}

TEST(Functional, SingleFoldExactFit)
{
    Rng rng(1);
    const oracle::IntMatrix a = randomMatrix(5, 8, rng);  // M=5, K=8.
    const oracle::IntMatrix b = randomMatrix(8, 4, rng);  // K=8, N=4.
    const auto result = oracle::runWeightStationaryGemm(a, b, 8, 4);
    EXPECT_EQ(result.foldCount, 1);
    const oracle::IntMatrix expected = oracle::referenceGemm(a, b);
    EXPECT_EQ(result.output.data, expected.data);
    // 2*K + N + M - 2 for one full fold.
    EXPECT_EQ(result.totalCycles, 2 * 8 + 4 + 5 - 2);
}

/** Shapes x array sizes property sweep. */
class FunctionalSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int>>
{
};

TEST_P(FunctionalSweep, BitExactAndCycleExact)
{
    const auto [m, k, n, pe_rows, pe_cols] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m) * 1000003 + k * 1009 +
            n * 101 + pe_rows * 7 + pe_cols);
    const oracle::IntMatrix a = randomMatrix(m, k, rng);
    const oracle::IntMatrix b = randomMatrix(k, n, rng);

    const auto result =
        oracle::runWeightStationaryGemm(a, b, pe_rows, pe_cols);
    const oracle::IntMatrix expected = oracle::referenceGemm(a, b);
    ASSERT_EQ(result.output.rows, expected.rows);
    ASSERT_EQ(result.output.cols, expected.cols);
    EXPECT_EQ(result.output.data, expected.data);

    // Cycle count must equal the analytic schedule exactly.
    nn::GemmShape gemm;
    gemm.m = m;
    gemm.n = n;
    gemm.k = k;
    sys::AcceleratorConfig config;
    config.peRows = pe_rows;
    config.peCols = pe_cols;
    const sys::FoldGrid grid = sys::foldGrid(gemm, config);
    EXPECT_EQ(result.foldCount, grid.foldCount());
    EXPECT_EQ(result.totalCycles, grid.computeCycles());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FunctionalSweep,
    ::testing::Values(
        // (M, K, N, peRows, peCols)
        std::make_tuple(1, 16, 8, 8, 8),    // Dense-layer shape.
        std::make_tuple(7, 5, 3, 8, 8),     // Smaller than the array.
        std::make_tuple(12, 20, 17, 8, 8),  // Ragged folds both ways.
        std::make_tuple(9, 8, 8, 4, 4),     // Even 2x2 fold grid.
        std::make_tuple(3, 33, 2, 16, 16),  // Deep reduction, thin out.
        std::make_tuple(25, 6, 30, 8, 16),  // Wide output.
        std::make_tuple(10, 10, 10, 2, 2),  // Tiny array, many folds.
        std::make_tuple(4, 1, 4, 8, 8),     // K = 1 edge case.
        std::make_tuple(1, 1, 1, 8, 8)));   // Scalar product.

TEST(Functional, ConvLayerLoweredGemmMatches)
{
    // Lower a small conv to its GEMM and execute it functionally: the
    // im2col'd GEMM through the array must match the reference product.
    const nn::Layer conv = nn::conv2d("c", 8, 8, 3, 3, 1, 5);
    const nn::GemmShape gemm = conv.gemm();
    Rng rng(42);
    const oracle::IntMatrix a = randomMatrix(gemm.m, gemm.k, rng);
    const oracle::IntMatrix b = randomMatrix(gemm.k, gemm.n, rng);
    const auto result = oracle::runWeightStationaryGemm(a, b, 16, 16);
    EXPECT_EQ(result.output.data, oracle::referenceGemm(a, b).data);
}

TEST(Functional, AccumulationAcrossRowFoldsIsExact)
{
    // K much larger than the array: partial sums must accumulate
    // exactly across many row folds.
    Rng rng(7);
    const oracle::IntMatrix a = randomMatrix(6, 70, rng);
    const oracle::IntMatrix b = randomMatrix(70, 6, rng);
    const auto result = oracle::runWeightStationaryGemm(a, b, 8, 8);
    EXPECT_EQ(result.foldCount, 9); // ceil(70/8) x ceil(6/8) = 9 x 1.
    EXPECT_EQ(result.output.data, oracle::referenceGemm(a, b).data);
}

/** Output-stationary execution must also be bit- and cycle-exact. */
class FunctionalOsSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int>>
{
};

TEST_P(FunctionalOsSweep, BitExactAndCycleExact)
{
    const auto [m, k, n, pe_rows, pe_cols] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m) * 997 + k * 83 + n * 11 +
            pe_rows + pe_cols);
    const oracle::IntMatrix a = randomMatrix(m, k, rng);
    const oracle::IntMatrix b = randomMatrix(k, n, rng);

    const auto result =
        oracle::runOutputStationaryGemm(a, b, pe_rows, pe_cols);
    EXPECT_EQ(result.output.data, oracle::referenceGemm(a, b).data);

    nn::GemmShape gemm;
    gemm.m = m;
    gemm.n = n;
    gemm.k = k;
    sys::AcceleratorConfig config;
    config.peRows = pe_rows;
    config.peCols = pe_cols;
    config.dataflow = sys::Dataflow::OutputStationary;
    const sys::FoldGrid grid = sys::foldGrid(gemm, config);
    EXPECT_EQ(result.foldCount, grid.foldCount());
    EXPECT_EQ(result.totalCycles, grid.computeCycles());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FunctionalOsSweep,
    ::testing::Values(std::make_tuple(12, 20, 17, 8, 8),
                      std::make_tuple(5, 9, 3, 4, 4),
                      std::make_tuple(30, 4, 30, 8, 16),
                      std::make_tuple(1, 16, 8, 8, 8),
                      std::make_tuple(10, 10, 10, 2, 2)));

TEST(Functional, InputStationaryBitAndCycleExact)
{
    Rng rng(91);
    const oracle::IntMatrix a = randomMatrix(11, 19, rng);
    const oracle::IntMatrix b = randomMatrix(19, 13, rng);
    const auto result = oracle::runInputStationaryGemm(a, b, 8, 8);
    EXPECT_EQ(result.output.data, oracle::referenceGemm(a, b).data);

    nn::GemmShape gemm;
    gemm.m = 11;
    gemm.n = 13;
    gemm.k = 19;
    sys::AcceleratorConfig config;
    config.peRows = 8;
    config.peCols = 8;
    config.dataflow = sys::Dataflow::InputStationary;
    const sys::FoldGrid grid = sys::foldGrid(gemm, config);
    EXPECT_EQ(result.foldCount, grid.foldCount());
    EXPECT_EQ(result.totalCycles, grid.computeCycles());
}

TEST(Functional, TransposeRoundTrip)
{
    Rng rng(8);
    const oracle::IntMatrix m = randomMatrix(5, 9, rng);
    const oracle::IntMatrix round = oracle::transposed(oracle::transposed(m));
    EXPECT_EQ(round.data, m.data);
}

TEST(Functional, WsAndOsAgreeNumerically)
{
    Rng rng(55);
    const oracle::IntMatrix a = randomMatrix(14, 22, rng);
    const oracle::IntMatrix b = randomMatrix(22, 9, rng);
    const auto ws = oracle::runWeightStationaryGemm(a, b, 8, 8);
    const auto os = oracle::runOutputStationaryGemm(a, b, 8, 8);
    EXPECT_EQ(ws.output.data, os.output.data);
}

TEST(FunctionalDeath, ShapeMismatchRejected)
{
    oracle::IntMatrix a(2, 3), b(4, 2);
    EXPECT_EXIT(oracle::runWeightStationaryGemm(a, b, 8, 8),
                ::testing::ExitedWithCode(1), "shape mismatch");
}
