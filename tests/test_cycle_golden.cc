/**
 * @file
 * Exact golden fixture for the cycle tier.
 *
 * Pins integers, not tolerances: the cycle counts of the three memory
 * models that drive the fold timeline (flat channel, derated contention
 * profile, bank-level DRAM channel) for every dataflow, the bank
 * channel's command counts, and the fold trace's event count and start
 * cycles. The model is the (5, 32) E2E policy plus one layer whose
 * tensors and partial sums overflow the scratchpads, so the resident,
 * refetched and stream-chunked traffic splits are all exercised. Any
 * change to these numbers changes simulated cycles and must be
 * justified on its own.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dram/config.h"
#include "dram/engine.h"
#include "nn/e2e_template.h"
#include "systolic/cycle_engine.h"
#include "systolic/trace.h"

namespace dram = autopilot::dram;
namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;

namespace
{

struct CycleTotals
{
    std::int64_t totalCycles = 0;
    std::int64_t stallCycles = 0;
    std::int64_t computeCycles = 0;
};

struct GoldenCase
{
    sys::Dataflow dataflow;
    CycleTotals flat;
    CycleTotals derated;
    CycleTotals bank;
    std::int64_t rowHits, rowMisses, rowConflicts, refreshes;
    std::int64_t traceEvents, traceStartCycleSum;
};

sys::AcceleratorConfig
goldenConfig(sys::Dataflow dataflow)
{
    sys::AcceleratorConfig config;
    config.peRows = config.peCols = 16;
    config.ifmapSramKb = config.filterSramKb = config.ofmapSramKb = 64;
    config.dataflow = dataflow;
    return config;
}

/** The E2E policy plus a layer that spills every scratchpad. */
std::vector<nn::Layer>
goldenLayers()
{
    std::vector<nn::Layer> layers =
        nn::buildE2EModel({5, 32}).layers();
    layers.push_back(nn::conv2d("spill", 128, 128, 48, 3, 1, 96));
    return layers;
}

CycleTotals
runAll(const sys::Engine &engine, const std::vector<nn::Layer> &layers)
{
    CycleTotals totals;
    for (const nn::Layer &layer : layers) {
        const sys::LayerResult result = engine.runLayer(layer);
        totals.totalCycles += result.totalCycles;
        totals.stallCycles += result.stallCycles;
        totals.computeCycles += result.computeCycles;
    }
    return totals;
}

void
expectTotals(const CycleTotals &actual, const CycleTotals &expected,
             const char *channel)
{
    EXPECT_EQ(actual.totalCycles, expected.totalCycles) << channel;
    EXPECT_EQ(actual.stallCycles, expected.stallCycles) << channel;
    EXPECT_EQ(actual.computeCycles, expected.computeCycles) << channel;
}

// Recorded from the three separately written fold loops that preceded
// the shared timeline.
const GoldenCase kGolden[] = {
    {sys::Dataflow::WeightStationary,
     {7565536, 98048, 7467488}, {7624301, 156813, 7467488},
     {15175321, 7707833, 7467488},
     833489, 77800, 649587, 9722,
     214790, 306014702033},
    {sys::Dataflow::OutputStationary,
     {8520060, 2824949, 5695111}, {10217699, 4522588, 5695111},
     {17205891, 11510780, 5695111},
     1701204, 88060, 412570, 11024,
     41080, 55301781232},
    {sys::Dataflow::InputStationary,
     {7466259, 158458, 7307801}, {7561765, 253964, 7307801},
     {16306325, 8998524, 7307801},
     1432641, 83535, 467164, 10447,
     138794, 171233740232},
};

} // namespace

TEST(CycleGolden, ExactCyclesCommandsAndTrace)
{
    const std::vector<nn::Layer> layers = goldenLayers();
    sys::ContentionProfile profile;
    profile.cameraBytesPerSec = 1.6e9;
    profile.hostBytesPerSec = 0.8e9;
    const dram::DramSpec spec =
        dram::uavDramSpec(dram::DramTiming{}, 1.0e9, 0.5e9);

    for (const GoldenCase &golden : kGolden) {
        SCOPED_TRACE(sys::dataflowName(golden.dataflow));
        const sys::AcceleratorConfig config =
            goldenConfig(golden.dataflow);

        expectTotals(runAll(sys::CycleEngine(config), layers),
                     golden.flat, "flat");
        expectTotals(runAll(sys::CycleEngine(config, profile), layers),
                     golden.derated, "derated");

        const dram::DramCycleEngine bank(config, spec);
        expectTotals(runAll(bank, layers), golden.bank, "bank");
        EXPECT_EQ(bank.runStats().rowHits, golden.rowHits);
        EXPECT_EQ(bank.runStats().rowMisses, golden.rowMisses);
        EXPECT_EQ(bank.runStats().rowConflicts, golden.rowConflicts);
        EXPECT_EQ(bank.runStats().refreshes, golden.refreshes);

        std::int64_t events = 0;
        std::int64_t startSum = 0;
        for (const nn::Layer &layer : layers) {
            const sys::LayerTrace trace = sys::traceLayer(layer, config);
            events += static_cast<std::int64_t>(trace.events.size());
            for (const sys::TraceEvent &event : trace.events)
                startSum += event.startCycle;
        }
        EXPECT_EQ(events, golden.traceEvents);
        EXPECT_EQ(startSum, golden.traceStartCycleSum);
    }
}
