/**
 * @file
 * Tests for the fold-granular trace generator, including the property
 * that trace totals match the analytic traffic model exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "nn/e2e_template.h"
#include "systolic/cycle_engine.h"
#include "systolic/trace.h"

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

TEST(Trace, EventKindNames)
{
    EXPECT_EQ(sys::traceEventKindName(sys::TraceEventKind::DramFetch),
              "dram_fetch");
    EXPECT_EQ(
        sys::traceEventKindName(sys::TraceEventKind::DramWriteback),
        "dram_writeback");
    EXPECT_EQ(sys::traceEventKindName(sys::TraceEventKind::SramRead),
              "sram_read");
    EXPECT_EQ(sys::traceEventKindName(sys::TraceEventKind::SramWrite),
              "sram_write");
}

class TraceConservation
    : public ::testing::TestWithParam<sys::Dataflow>
{
};

TEST_P(TraceConservation, TotalsMatchTrafficModel)
{
    const auto config = makeConfig(16, 32, 128, GetParam());
    const nn::Layer layers[] = {
        nn::conv2d("conv", 64, 64, 16, 3, 2, 48),
        nn::dense("fc", 4096, 512),
    };
    for (const nn::Layer &layer : layers) {
        const sys::LayerTraffic traffic =
            sys::FoldTraffic(layer, config).totals();
        const sys::LayerTrace trace = sys::traceLayer(layer, config);

        EXPECT_EQ(trace.totalOf(sys::TraceEventKind::DramFetch) +
                      trace.totalOf(sys::TraceEventKind::DramWriteback),
                  traffic.totalDramBytes())
            << layer.name;
        EXPECT_EQ(trace.totalOf(sys::TraceEventKind::SramRead),
                  traffic.ifmapSramReads + traffic.filterSramReads +
                      traffic.psumSramReads)
            << layer.name;
        EXPECT_EQ(trace.totalOf(sys::TraceEventKind::SramWrite),
                  traffic.ofmapSramWrites + traffic.psumSramWrites)
            << layer.name;
    }
}

TEST_P(TraceConservation, CyclesMonotoneWithinTimeline)
{
    const auto config = makeConfig(16, 16, 64, GetParam());
    const nn::Layer conv = nn::conv2d("c", 64, 64, 8, 3, 2, 32);
    const sys::LayerTrace trace = sys::traceLayer(conv, config);
    ASSERT_FALSE(trace.events.empty());
    // Fold indices are non-decreasing and start cycles non-negative.
    std::int64_t prev_fold = 0;
    for (const sys::TraceEvent &event : trace.events) {
        EXPECT_GE(event.foldIndex, prev_fold);
        EXPECT_GE(event.startCycle, 0);
        EXPECT_GE(event.amount, 0);
        prev_fold = event.foldIndex;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Dataflows, TraceConservation,
    ::testing::Values(sys::Dataflow::WeightStationary,
                      sys::Dataflow::OutputStationary,
                      sys::Dataflow::InputStationary));

TEST(Trace, LastEventEndsAtCycleEngineTotal)
{
    // The trace steps every fold of the timeline; CycleEngine
    // fast-forwards it. The layer retires when the last compute or the
    // last writeback ends, so the latest event end in the trace must be
    // the engine's total cycle count exactly.
    const nn::Layer layers[] = {
        nn::dense("fc", 12288, 2048),
        nn::dense("fc_odd", 1000, 300),
        nn::conv2d("conv", 21, 19, 13, 3, 1, 37),
        nn::conv2d("conv_s2", 40, 40, 8, 5, 2, 70),
    };
    const int shapes[][2] = {{32, 32}, {13, 7}, {1, 40}, {40, 3}, {24, 17}};
    for (const sys::Dataflow dataflow :
         {sys::Dataflow::WeightStationary, sys::Dataflow::OutputStationary,
          sys::Dataflow::InputStationary}) {
        for (const auto &shape : shapes) {
            for (const int sram_kb : {4, 256}) {
                const auto config =
                    makeConfig(shape[0], shape[1], sram_kb, dataflow);
                const sys::CycleEngine engine(config);
                for (const nn::Layer &layer : layers) {
                    const sys::FoldGrid grid =
                        sys::foldGrid(layer.gemm(), config);
                    if (grid.foldCount() > 100000)
                        continue; // Keeps the trace's event list small.
                    const std::int64_t width = config.dramBytesPerCycle;
                    std::int64_t last_end = 0;
                    for (const sys::TraceEvent &event :
                         sys::traceLayer(layer, config).events) {
                        std::int64_t end = event.startCycle;
                        if (event.kind == sys::TraceEventKind::SramRead)
                            end += grid.cycles(
                                event.foldIndex / grid.colFolds,
                                event.foldIndex % grid.colFolds);
                        else if (event.kind ==
                                 sys::TraceEventKind::DramWriteback)
                            end += (event.amount + width - 1) / width;
                        last_end = std::max(last_end, end);
                    }
                    EXPECT_EQ(last_end, engine.runLayer(layer).totalCycles)
                        << layer.name << " on " << config.name();
                }
            }
        }
    }
}

TEST(Trace, CsvOutputWellFormed)
{
    const auto config =
        makeConfig(8, 8, 32, sys::Dataflow::WeightStationary);
    const nn::Layer fc = nn::dense("fc", 64, 16);
    const sys::LayerTrace trace = sys::traceLayer(fc, config);
    std::ostringstream os;
    trace.writeCsv(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("layer,fold,cycle,kind,amount"),
              std::string::npos);
    EXPECT_NE(text.find("fc,"), std::string::npos);
    // One header plus one line per event.
    const auto lines =
        std::count(text.begin(), text.end(), '\n');
    EXPECT_EQ(static_cast<std::size_t>(lines),
              trace.events.size() + 1);
}

TEST(Trace, FullPolicyModelTraceable)
{
    const auto config =
        makeConfig(32, 32, 256, sys::Dataflow::WeightStationary);
    const nn::Model model = nn::buildE2EModel({5, 32});
    std::int64_t dram_total = 0;
    for (const nn::Layer &layer : model.layers()) {
        const sys::LayerTrace trace = sys::traceLayer(layer, config);
        dram_total +=
            trace.totalOf(sys::TraceEventKind::DramFetch) +
            trace.totalOf(sys::TraceEventKind::DramWriteback);
    }
    const sys::CycleEngine engine(config);
    const auto run = engine.run(model);
    EXPECT_EQ(dram_total, run.traffic.totalDramBytes());
}
