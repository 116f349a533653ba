#include "systolic/engine.h"

#include <algorithm>

#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::systolic
{

double
LayerResult::utilization(std::int64_t pe_count) const
{
    AUTOPILOT_DEBUG_ASSERT(totalCycles > 0 && pe_count > 0,
                           "LayerResult::utilization: degenerate "
                           "cycle count or PE count");
    if (totalCycles <= 0 || pe_count <= 0)
        return 0.0;
    return static_cast<double>(gemm.macs()) /
           (static_cast<double>(totalCycles) *
            static_cast<double>(pe_count));
}

double
RunResult::runtimeSeconds(double clock_ghz) const
{
    AUTOPILOT_DEBUG_ASSERT(clock_ghz > 0.0 && totalCycles > 0,
                           "RunResult::runtimeSeconds: degenerate "
                           "clock or cycle count");
    // NaN clocks fail the positivity test too, so the inf/NaN seconds
    // the old division produced collapse to the 0.0 sentinel.
    if (totalCycles <= 0 || !(clock_ghz > 0.0))
        return 0.0;
    return static_cast<double>(totalCycles) / (clock_ghz * 1e9);
}

double
RunResult::framesPerSecond(double clock_ghz) const
{
    const double seconds = runtimeSeconds(clock_ghz);
    return seconds > 0.0 ? 1.0 / seconds : 0.0;
}

double
RunResult::peUtilization(std::int64_t pe_count) const
{
    AUTOPILOT_DEBUG_ASSERT(totalCycles > 0 && pe_count > 0,
                           "RunResult::peUtilization: degenerate "
                           "cycle count or PE count");
    if (totalCycles <= 0 || pe_count <= 0)
        return 0.0;
    return static_cast<double>(totalMacs) /
           (static_cast<double>(totalCycles) *
            static_cast<double>(pe_count));
}

RunResult
Engine::run(const nn::Model &model) const
{
    util::fatalIf(model.empty(), "Engine::run: empty model");
    util::TraceSpan span("systolic.run", "systolic");
    RunResult result;
    for (const nn::Layer &layer : model.layers()) {
        LayerResult lr = runLayer(layer);
        result.totalCycles += lr.totalCycles;
        result.computeCycles += lr.computeCycles;
        result.stallCycles += lr.stallCycles;
        result.totalMacs += lr.gemm.macs();
        result.traffic.accumulate(lr.traffic);
        result.layers.push_back(std::move(lr));
    }
    util::Telemetry &telemetry = util::Telemetry::instance();
    if (telemetry.enabled()) {
        telemetry.metrics().counter("systolic.runs").add();
        telemetry.metrics()
            .counter("systolic.cycles")
            .add(static_cast<std::uint64_t>(result.totalCycles));
    }
    return result;
}

AnalyticalEngine::AnalyticalEngine(const AcceleratorConfig &config)
    : cfg(config)
{
    cfg.validate();
}

LayerResult
AnalyticalEngine::runLayer(const nn::Layer &layer) const
{
    const FoldTraffic folds(layer, cfg);

    LayerResult result;
    result.layerName = layer.name;
    result.gemm = layer.gemm();
    result.rowFolds = folds.grid().rowFolds;
    result.colFolds = folds.grid().colFolds;
    result.computeCycles = folds.grid().computeCycles();
    result.traffic = folds.totals();

    const std::int64_t bw = cfg.dramBytesPerCycle;
    const std::int64_t dram_cycles =
        (result.traffic.totalDramBytes() + bw - 1) / bw;
    const std::int64_t first_tile = (folds.fetchBytes(0, 0) + bw - 1) / bw;

    result.totalCycles =
        std::max(result.computeCycles, dram_cycles) + first_tile;
    result.stallCycles = result.totalCycles - result.computeCycles;
    return result;
}

} // namespace autopilot::systolic
