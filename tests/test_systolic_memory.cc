/**
 * @file
 * Tests for the scratchpad/DRAM traffic model, including the conservation
 * property that per-fold fetch/writeback shares sum exactly to the layer
 * totals (the invariant the cycle engine relies on).
 */

#include <gtest/gtest.h>

#include "nn/layer.h"
#include "systolic/memory.h"

namespace sys = autopilot::systolic;
namespace nn = autopilot::nn;

namespace
{

sys::AcceleratorConfig
makeConfig(int rows, int cols, int sram_kb, sys::Dataflow dataflow)
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

} // namespace

TEST(Residency, SmallTensorsAreResident)
{
    const nn::Layer fc = nn::dense("fc", 100, 50); // 5 KB of weights.
    const auto config =
        makeConfig(8, 8, 64, sys::Dataflow::WeightStationary);
    const sys::Residency residency = sys::analyzeResidency(fc, config);
    EXPECT_TRUE(residency.ifmapResident);
    EXPECT_TRUE(residency.filterResident);
    EXPECT_TRUE(residency.psumOnChip);
    EXPECT_EQ(residency.streamChunks, 1);
}

TEST(Residency, LargeFilterNotResident)
{
    const nn::Layer fc = nn::dense("fc", 12288, 2048); // 25 MB weights.
    const auto config =
        makeConfig(8, 8, 64, sys::Dataflow::WeightStationary);
    const sys::Residency residency = sys::analyzeResidency(fc, config);
    EXPECT_FALSE(residency.filterResident);
}

TEST(Residency, BigOfmapNeedsChunking)
{
    // Conv with a large output map and deep reduction: psums cannot all
    // stay on chip at once with a small ofmap scratchpad.
    const nn::Layer conv = nn::conv2d("c", 128, 128, 48, 3, 1, 96);
    const auto config =
        makeConfig(16, 16, 32, sys::Dataflow::WeightStationary);
    const sys::Residency residency = sys::analyzeResidency(conv, config);
    EXPECT_FALSE(residency.psumOnChip);
    EXPECT_GT(residency.streamChunks, 1);
}

TEST(Traffic, PsumNeverSpillsToDram)
{
    const nn::Layer conv = nn::conv2d("c", 128, 128, 48, 3, 1, 96);
    for (sys::Dataflow dataflow :
         {sys::Dataflow::WeightStationary,
          sys::Dataflow::OutputStationary,
          sys::Dataflow::InputStationary}) {
        const auto config = makeConfig(16, 16, 32, dataflow);
        const sys::LayerTraffic traffic =
            sys::FoldTraffic(conv, config).totals();
        // The only DRAM write is the final ofmap, written once.
        EXPECT_EQ(traffic.ofmapDramBytes,
                  conv.ofmapElems() * config.bytesPerElement)
            << sys::dataflowName(dataflow);
    }
}

TEST(Traffic, WeightsFetchedOncePerChunkInWs)
{
    const nn::Layer fc = nn::dense("fc", 12288, 2048);
    const auto config =
        makeConfig(16, 16, 128, sys::Dataflow::WeightStationary);
    const sys::LayerTraffic traffic =
        sys::FoldTraffic(fc, config).totals();
    // Dense layer: m = 1, so psums always fit -> single chunk -> every
    // weight crosses DRAM exactly once.
    EXPECT_EQ(traffic.filterDramBytes, fc.filterElems());
}

TEST(Traffic, ResidentFilterAvoidsRefetchInOs)
{
    const nn::Layer conv = nn::conv2d("c", 64, 64, 8, 3, 2, 16);
    const auto small =
        makeConfig(8, 8, 32, sys::Dataflow::OutputStationary);
    const auto large =
        makeConfig(8, 8, 4096, sys::Dataflow::OutputStationary);
    const sys::LayerTraffic traffic_s =
        sys::FoldTraffic(conv, small).totals();
    const sys::LayerTraffic traffic_l =
        sys::FoldTraffic(conv, large).totals();
    EXPECT_GE(traffic_s.filterDramBytes, traffic_l.filterDramBytes);
    EXPECT_EQ(traffic_l.filterDramBytes, conv.filterElems());
}

TEST(Traffic, OfmapWrittenExactlyOnce)
{
    const nn::Layer conv = nn::conv2d("c", 64, 64, 8, 3, 2, 16);
    for (sys::Dataflow dataflow :
         {sys::Dataflow::WeightStationary,
          sys::Dataflow::OutputStationary,
          sys::Dataflow::InputStationary}) {
        const auto config = makeConfig(16, 32, 64, dataflow);
        const sys::LayerTraffic traffic =
            sys::FoldTraffic(conv, config).totals();
        EXPECT_EQ(traffic.ofmapDramBytes, conv.ofmapElems());
        EXPECT_EQ(traffic.ofmapSramWrites,
                  conv.gemm().m * conv.gemm().n);
    }
}

TEST(Traffic, AccumulateSumsComponentwise)
{
    sys::LayerTraffic a;
    a.ifmapDramBytes = 10;
    a.filterSramReads = 5;
    sys::LayerTraffic b;
    b.ifmapDramBytes = 7;
    b.psumSramWrites = 3;
    a.accumulate(b);
    EXPECT_EQ(a.ifmapDramBytes, 17);
    EXPECT_EQ(a.filterSramReads, 5);
    EXPECT_EQ(a.psumSramWrites, 3);
}

/**
 * Conservation property: the per-fold fetch and writeback shares must sum
 * exactly to the layer's total DRAM traffic, for every dataflow, array
 * shape and scratchpad size.
 */
class TrafficConservation
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, sys::Dataflow>>
{
};

TEST_P(TrafficConservation, FoldSharesSumToTotals)
{
    const auto [rows, cols, sram_kb, dataflow] = GetParam();
    const auto config = makeConfig(rows, cols, sram_kb, dataflow);

    const nn::Layer layers[] = {
        nn::conv2d("conv_small", 32, 32, 3, 3, 2, 16),
        nn::conv2d("conv_deep", 64, 64, 48, 3, 1, 96),
        nn::dense("fc_big", 12288, 2048),
        nn::dense("fc_small", 64, 25),
    };

    for (const nn::Layer &layer : layers) {
        const sys::FoldTraffic folds(layer, config);
        const sys::LayerTraffic &traffic = folds.totals();

        std::int64_t fetch_sum = 0;
        std::int64_t writeback_sum = 0;
        for (std::int64_t i = 0; i < folds.grid().rowFolds; ++i) {
            for (std::int64_t j = 0; j < folds.grid().colFolds; ++j) {
                fetch_sum += folds.fetchBytes(i, j);
                writeback_sum += folds.writebackBytes(i, j);
            }
        }
        EXPECT_EQ(fetch_sum + writeback_sum, traffic.totalDramBytes())
            << layer.name << " on " << config.name();
        EXPECT_EQ(writeback_sum, traffic.ofmapDramBytes) << layer.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Space, TrafficConservation,
    ::testing::Combine(
        ::testing::Values(8, 32, 256),
        ::testing::Values(8, 64),
        ::testing::Values(32, 256, 4096),
        ::testing::Values(sys::Dataflow::WeightStationary,
                          sys::Dataflow::OutputStationary,
                          sys::Dataflow::InputStationary)));

TEST(Traffic, WsChunkedFilterRefetchExactValue)
{
    // Construct a layer whose cross-fold psums need exactly known
    // chunking: conv with m*n psums far beyond the ofmap scratchpad.
    const nn::Layer conv = nn::conv2d("c", 66, 66, 32, 3, 1, 64);
    // GEMM: m = 64*64 = 4096, k = 288, n = 64.
    const auto config =
        makeConfig(16, 16, 64, sys::Dataflow::WeightStationary);
    const auto residency = sys::analyzeResidency(conv, config);
    // Half of 64 KiB = 32768 B; chunk rows = 32768 / (16 * 4) = 512;
    // chunks = ceil(4096 / 512) = 8.
    EXPECT_FALSE(residency.psumOnChip);
    EXPECT_EQ(residency.streamChunks, 8);

    const sys::LayerTraffic traffic =
        sys::FoldTraffic(conv, config).totals();
    // Filter not resident (288 * 64 = 18432 B > 32768? no - it IS
    // resident), so weights cross DRAM once despite the chunking.
    EXPECT_TRUE(residency.filterResident);
    EXPECT_EQ(traffic.filterDramBytes, conv.filterElems());
    // SRAM re-streams weights once per chunk.
    EXPECT_EQ(traffic.filterSramReads,
              conv.gemm().k * conv.gemm().n * 8);
}

TEST(Traffic, IsPinnedIfmapRefetchPerChunk)
{
    const nn::Layer conv = nn::conv2d("c", 66, 66, 32, 3, 1, 64);
    const auto config =
        makeConfig(16, 16, 64, sys::Dataflow::InputStationary);
    const auto residency = sys::analyzeResidency(conv, config);
    ASSERT_FALSE(residency.ifmapResident); // 139 KB > 32 KB half-cap.
    const sys::LayerTraffic traffic =
        sys::FoldTraffic(conv, config).totals();
    // IS pins the im2col footprint once per stream chunk.
    const std::int64_t im2col =
        conv.gemm().m * conv.gemm().k * 1; // 1 byte/element.
    EXPECT_EQ(traffic.ifmapDramBytes,
              im2col * residency.streamChunks);
}

TEST(Traffic, DenseLayerNeverChunks)
{
    // m = 1: cross-fold psums always fit.
    const nn::Layer fc = nn::dense("fc", 12288, 2048);
    for (sys::Dataflow dataflow :
         {sys::Dataflow::WeightStationary,
          sys::Dataflow::InputStationary}) {
        const auto config = makeConfig(32, 32, 32, dataflow);
        const auto residency = sys::analyzeResidency(fc, config);
        if (dataflow == sys::Dataflow::WeightStationary) {
            EXPECT_TRUE(residency.psumOnChip);
        }
        const sys::LayerTraffic traffic =
            sys::FoldTraffic(fc, config).totals();
        EXPECT_EQ(traffic.ofmapDramBytes,
                  fc.ofmapElems() * config.bytesPerElement);
    }
}

TEST(Traffic, MoreSramNeverIncreasesDramTraffic)
{
    const nn::Layer conv = nn::conv2d("c", 128, 128, 16, 3, 2, 64);
    for (sys::Dataflow dataflow :
         {sys::Dataflow::WeightStationary,
          sys::Dataflow::OutputStationary,
          sys::Dataflow::InputStationary}) {
        std::int64_t prev = -1;
        for (int sram_kb : {32, 64, 128, 256, 512, 1024, 2048, 4096}) {
            const auto config = makeConfig(16, 16, sram_kb, dataflow);
            const sys::LayerTraffic traffic =
                sys::FoldTraffic(conv, config).totals();
            if (prev >= 0) {
                EXPECT_LE(traffic.totalDramBytes(), prev)
                    << sys::dataflowName(dataflow) << " " << sram_kb;
            }
            prev = traffic.totalDramBytes();
        }
    }
}
