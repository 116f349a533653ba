#include "systolic/cycle_engine.h"

#include <sstream>

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
    profile.validate();
    bandwidthDerate = profile.enabled() ? profile.derate(cfg) : 1.0;
    if (bandwidthDerate <= 0.0) {
        std::ostringstream what;
        what << "CycleEngine: contention profile leaves no DRAM "
                "bandwidth to the NPU (background "
             << profile.totalBytesPerSec() << " B/s >= peak "
             << static_cast<double>(cfg.dramBytesPerCycle) *
                    cfg.clockGhz * 1e9
             << " B/s and no QoS floor) - raise npuFloorFraction or "
                "lower the background load";
        util::fatal(what.str());
    }
}

LayerResult
CycleEngine::runLayer(const nn::Layer &layer) const
{
    return runFlatLayer(layer, cfg, bandwidthDerate);
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
    LayerResult result = runFoldTimeline(layer, config, channel);

    if (telemetry.enabled()) {
        telemetry.metrics().counter("systolic.cycle.layers").add();
        telemetry.metrics()
            .counter("systolic.cycle.cycles")
            .add(static_cast<std::uint64_t>(result.totalCycles));
    }
    return result;
}

} // namespace autopilot::systolic
