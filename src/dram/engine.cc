#include "dram/engine.h"

#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::dram
{

DramCycleEngine::DramCycleEngine(const systolic::AcceleratorConfig &config,
                                 const DramSpec &spec)
    : cfg(config), dramSpec(spec)
{
    cfg.validate();
    dramSpec.validate();
    if (dramSpec.enabled()) {
        // Surface config-dependent degeneracies (refresh interval vs
        // burst time at this channel width) at construction, not in the
        // middle of a batch.
        const std::string reason =
            dramSpec.infeasibleReasonAt(cfg.dramBytesPerCycle);
        util::fatalIf(!reason.empty(), "DramCycleEngine: " + reason);
    }
}

systolic::LayerResult
DramCycleEngine::runLayer(const nn::Layer &layer) const
{
    if (!dramSpec.enabled())
        return systolic::runFlatLayer(layer, cfg);

    util::Telemetry &telemetry = util::Telemetry::instance();
    util::ScopedTimer sim_timer(
        telemetry.enabled()
            ? &telemetry.metrics().histogram("dram.layer_sim_s")
            : nullptr);

    // Fresh per-layer channel: generator phase, bank rows and refresh
    // state reset so layers are independent of simulation order.
    ChannelTimeline channel(dramSpec, cfg);
    systolic::LayerResult result =
        systolic::runFoldTimeline(layer, cfg, channel);
    runStats_.accumulate(channel.stats());

    if (telemetry.enabled()) {
        telemetry.metrics().counter("dram.layers").add();
        telemetry.metrics()
            .counter("dram.cycles")
            .add(static_cast<std::uint64_t>(result.totalCycles));
    }
    return result;
}

} // namespace autopilot::dram
