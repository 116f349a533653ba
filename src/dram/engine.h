/**
 * @file
 * Cycle-stepped accelerator engine over the bank-level DRAM channel.
 *
 * Runs systolic::runFoldTimeline() - the one double-buffered fold
 * timeline, also behind systolic::CycleEngine and systolic::traceLayer()
 * - with a ChannelTimeline as its channel instead of a flat
 * bytes-over-bandwidth ceiling: every transfer is split into bursts,
 * classified per bank (row hit/miss/conflict, refresh) and interleaved
 * with the background generators' requests in deterministic arrival
 * order. With no generators configured the timeline runs over the flat
 * channel (systolic::runFlatLayer), so a disabled DramSpec is
 * bit-identical to the pure-cycle path - the backward-compatibility
 * contract every sidecar in this codebase follows.
 */

#ifndef AUTOPILOT_DRAM_ENGINE_H
#define AUTOPILOT_DRAM_ENGINE_H

#include "dram/channel.h"
#include "dram/config.h"
#include "systolic/cycle_engine.h"
#include "systolic/engine.h"

namespace autopilot::dram
{

/** Bank-accurate reference engine (highest fidelity tier). */
class DramCycleEngine : public systolic::Engine
{
  public:
    /**
     * @param config Accelerator configuration (validated).
     * @param spec   Channel description (validated; fatal with the
     *               infeasibleReason diagnosis on degenerate timing).
     */
    DramCycleEngine(const systolic::AcceleratorConfig &config,
                    const DramSpec &spec);

    systolic::LayerResult runLayer(const nn::Layer &layer) const override;

    const systolic::AcceleratorConfig &config() const { return cfg; }
    const DramSpec &spec() const { return dramSpec; }

    /**
     * Command/traffic counters accumulated across every layer simulated
     * since construction; generator state itself is per layer - each
     * runLayer() opens a fresh ChannelTimeline, keeping layers
     * independent and runs order-insensitive.
     */
    const ChannelStats &runStats() const { return runStats_; }

  private:
    systolic::AcceleratorConfig cfg;
    DramSpec dramSpec;
    mutable ChannelStats runStats_;
};

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_ENGINE_H
