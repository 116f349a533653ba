/**
 * @file
 * The fold timeline and the cycle-stepped accelerator engine.
 *
 * runFoldTimeline() walks the fold schedule fold by fold with an
 * explicit double-buffered prefetch timeline over a single DRAM channel:
 *
 *   fetch_start[f]   = max(fetch_done[f-1], compute_done[f-2])
 *   fetch_done[f]    = channel.transfer(fetch_start[f], fetch_bytes[f])
 *   compute_start[f] = max(compute_done[f-1], fetch_done[f])
 *   compute_done[f]  = compute_start[f] + fold_cycles[f]
 *
 * Writebacks share the DRAM channel and are issued after the producing
 * fold completes; the layer retires when both the last fold's compute and
 * all writebacks have drained. The compute_done[f-2] term models the two
 * buffer halves: with two halves, fold f's buffer is freed when fold f-2
 * completes, allowing fetch f to begin.
 *
 * The channel is the only thing that differs between the timeline's
 * users: CycleEngine and traceLayer() use the FlatChannel below (bytes
 * over bandwidth, derated under a contention profile), and
 * dram::DramCycleEngine uses the bank-level dram::ChannelTimeline.
 */

#ifndef AUTOPILOT_SYSTOLIC_CYCLE_ENGINE_H
#define AUTOPILOT_SYSTOLIC_CYCLE_ENGINE_H

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "systolic/contention.h"
#include "systolic/engine.h"

namespace autopilot::systolic
{

/** A DRAM channel with a flat bandwidth and no bank state. */
class FlatChannel
{
  public:
    /**
     * @param bytesPerCycle Channel width.
     * @param derate        Effective-bandwidth fraction left to the NPU
     *                      (> 0). At >= 1 a transfer takes the exact
     *                      integer ceiling of bytes / width, so an empty
     *                      contention profile is bit-identical to none;
     *                      below 1 it takes ceil(bytes / (width * derate)).
     */
    explicit FlatChannel(std::int64_t bytesPerCycle, double derate = 1.0)
        : bw(bytesPerCycle), derate(derate)
    {
    }

    /** Completion cycle of @p bytes starting at @p earliestStart. */
    std::int64_t transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool /*write*/) const
    {
        if (derate >= 1.0)
            return earliestStart + (bytes + bw - 1) / bw;
        return earliestStart +
               static_cast<std::int64_t>(std::ceil(
                   static_cast<double>(bytes) /
                   (static_cast<double>(bw) * derate)));
    }

  private:
    std::int64_t bw;
    double derate;
};

/** Where one fold landed on the timeline. */
struct FoldTiming
{
    std::int64_t index = 0;
    std::int64_t fetchStart = 0;
    std::int64_t fetchBytes = 0;
    std::int64_t computeStart = 0;
    std::int64_t writebackStart = 0; ///< Set only when writebackBytes > 0.
    std::int64_t writebackBytes = 0;
};

/** Fold observer that records nothing. */
struct IgnoreFolds
{
    void operator()(const FoldTiming &) const {}
};

/**
 * Step the fold timeline (see the file comment) of @p layer on
 * @p config.
 *
 * @param channel Maps transfer(earliestStart, bytes, write) to the
 *                transfer's completion cycle; a zero-byte transfer
 *                completes at its start.
 * @param onFold  Called with each fold's timing once it is scheduled.
 */
template <class Channel, class Observer = IgnoreFolds>
LayerResult
runFoldTimeline(const nn::Layer &layer, const AcceleratorConfig &config,
                Channel &channel, Observer onFold = {})
{
    const FoldSchedule schedule = scheduleGemm(layer.gemm(), config);
    const FoldTraffic split(layer, schedule, config);

    // The channel serializes fetches and writebacks; writebacks queue
    // behind the fetch stream as they are produced.
    std::int64_t dram_free = 0;         // When the channel is next idle.
    std::int64_t compute_done = 0;      // Fold f-1 completion.
    std::int64_t compute_done_prev = 0; // Fold f-2 completion.
    std::int64_t compute_busy = 0;      // Accumulated array-busy cycles.
    std::int64_t last_writeback_done = 0;

    for (std::int64_t f = 0; f < schedule.foldCount(); ++f) {
        FoldTiming fold;
        fold.index = f;
        fold.fetchBytes = split.fetchBytes(f);
        fold.writebackBytes = split.writebackBytes(f);

        // Prefetch for fold f may start once the channel is free and the
        // target buffer half is released (fold f-2 retired).
        fold.fetchStart = std::max(dram_free, compute_done_prev);
        dram_free = channel.transfer(fold.fetchStart, fold.fetchBytes,
                                     false);

        const std::int64_t fold_cycles =
            schedule.folds[static_cast<std::size_t>(f)].cycles;
        fold.computeStart = std::max(compute_done, dram_free);
        compute_done_prev = compute_done;
        compute_done = fold.computeStart + fold_cycles;
        compute_busy += fold_cycles;

        if (fold.writebackBytes > 0) {
            fold.writebackStart = std::max(dram_free, compute_done);
            last_writeback_done = channel.transfer(
                fold.writebackStart, fold.writebackBytes, true);
            dram_free = last_writeback_done;
        }
        onFold(fold);
    }

    LayerResult result;
    result.layerName = layer.name;
    result.gemm = layer.gemm();
    result.rowFolds = schedule.rowFolds;
    result.colFolds = schedule.colFolds;
    result.computeCycles = compute_busy;
    result.traffic = split.totals();
    result.totalCycles = std::max(compute_done, last_writeback_done);
    result.stallCycles = result.totalCycles - result.computeCycles;
    return result;
}

/**
 * One layer on a FlatChannel at @p derate, timed and counted under the
 * systolic.cycle.* telemetry. The body of CycleEngine::runLayer, and
 * dram::DramCycleEngine's path for a spec without background streams.
 */
LayerResult runFlatLayer(const nn::Layer &layer,
                         const AcceleratorConfig &config,
                         double derate = 1.0);

/** Reference engine: the fold timeline over a FlatChannel. */
class CycleEngine : public Engine
{
  public:
    /** @param config Accelerator configuration (validated). */
    explicit CycleEngine(const AcceleratorConfig &config);

    /**
     * @param config  Accelerator configuration (validated).
     * @param profile Background traffic sharing the DRAM channel
     *                (validated). Fetch/writeback cycles are scaled by
     *                the profile's effective-bandwidth derate; fatal at
     *                construction when the derated bandwidth is not
     *                positive (fully-contended channel with no QoS
     *                floor) - an infeasible profile must be diagnosed,
     *                not simulated into infinite fold times.
     */
    CycleEngine(const AcceleratorConfig &config,
                const ContentionProfile &profile);

    LayerResult runLayer(const nn::Layer &layer) const override;

    const AcceleratorConfig &config() const { return cfg; }
    const ContentionProfile &contention() const { return profile; }

  private:
    AcceleratorConfig cfg;
    ContentionProfile profile;
    /// Effective-bandwidth fraction left to the NPU; 1.0 when the
    /// profile is empty (exact integer fold-cycle path, bit-identical
    /// to the contention-free engine).
    double bandwidthDerate = 1.0;
};

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_CYCLE_ENGINE_H
