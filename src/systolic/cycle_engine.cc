#include "systolic/cycle_engine.h"

#include <string>

#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::systolic
{

CycleEngine::CycleEngine(const AcceleratorConfig &config) : cfg(config)
{
    cfg.validate();
}

CycleEngine::CycleEngine(const AcceleratorConfig &config,
                         const ContentionProfile &contention)
    : cfg(config), profile(contention)
{
    cfg.validate();
    const std::string reason = profile.infeasibleReason(cfg);
    util::fatalIf(!reason.empty(),
                  "CycleEngine: infeasible contention profile: " + reason);
    bandwidthDerate = profile.enabled() ? profile.derate(cfg) : 1.0;
}

LayerResult
CycleEngine::runLayer(const nn::Layer &layer) const
{
    return runFlatLayer(layer, cfg, bandwidthDerate);
}

LayerResult
foldTimelineResult(const nn::Layer &layer, const FoldTraffic &split,
                   const TimelineCycles &cycles)
{
    LayerResult result;
    result.layerName = layer.name;
    result.gemm = layer.gemm();
    result.rowFolds = split.grid().rowFolds;
    result.colFolds = split.grid().colFolds;
    result.computeCycles = cycles.busy;
    result.traffic = split.totals();
    result.totalCycles = cycles.total;
    result.stallCycles = cycles.total - cycles.busy;
    return result;
}

LayerResult
runFlatLayer(const nn::Layer &layer, const AcceleratorConfig &config,
             double derate)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    util::ScopedTimer sim_timer(
        telemetry.enabled()
            ? &telemetry.metrics().histogram(
                  "systolic.cycle.layer_sim_s")
            : nullptr);

    const FlatChannel channel(config.dramBytesPerCycle, derate);
    const FoldTraffic split(layer, config);
    LayerResult result = foldTimelineResult(
        layer, split, fastForwardTimeline(split, channel));

    if (telemetry.enabled()) {
        telemetry.metrics().counter("systolic.cycle.layers").add();
        telemetry.metrics()
            .counter("systolic.cycle.cycles")
            .add(static_cast<std::uint64_t>(result.totalCycles));
    }
    return result;
}

} // namespace autopilot::systolic
