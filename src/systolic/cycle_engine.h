/**
 * @file
 * The fold timeline and the cycle-level accelerator engine.
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
 * completes, allowing fetch f to begin. The per-fold inputs (fetch and
 * writeback bytes, fold cycles) come in closed form from FoldTraffic
 * (memory.h).
 *
 * The channel is the only thing that differs between the timeline's
 * users: CycleEngine and traceLayer() use the FlatChannel below (bytes
 * over bandwidth, derated under a contention profile), and
 * dram::DramCycleEngine uses the bank-level dram::ChannelTimeline.
 *
 * runFlatLayer(), the flat-channel path of CycleEngine, does not step
 * every fold. FoldTraffic cuts the layer into runs of identical rows and,
 * within a row, runs of identical folds. Inside a run it steps one unit
 * (a fold, or a whole row) at a time until a unit moves the timeline
 * state (dram_free, compute_done, compute_done_prev) by one common
 * delta; it then adds that delta, and the unit's busy cycles, once per
 * remaining unit. That is exact: every step is max/+ of the state and
 * constants that depend only on the unit's inputs (a FlatChannel
 * transfer takes a duration set by the byte count alone), so shifting
 * the state by c shifts every later state by c, and identical units
 * repeat the shift to the end of the run. last_writeback_done is set
 * from the state by every unit that writes back, so it shifts with it;
 * a unit that writes nothing leaves it alone. In practice a run
 * settles after two or three units, with period one (no run of the
 * differential tests needed a longer period), so no longer period is
 * looked for: a run that does not settle is stepped to its end, which
 * is exact too.
 *
 * The stepped runFoldTimeline() over a FlatChannel is the oracle.
 * FoldTimelineDifferential (test_systolic_engine.cc) holds
 * runFlatLayer() to it exactly over random layers, arrays, scratchpads,
 * widths and derates, and fastForwardTimeline() to stepTimeline() over
 * random runs of random inputs; Trace.LastEventEndsAtCycleEngineTotal
 * holds it to the stepped trace.
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
     * @param derate        Effective-bandwidth fraction left to the NPU,
     *                      at least ContentionProfile::minDerate so
     *                      cycle counts fit int64 (see there). At >= 1
     *                      a transfer takes the exact integer ceiling of
     *                      bytes / width, so an empty contention
     *                      profile is bit-identical to none; below 1 it
     *                      takes ceil(bytes / (width * derate)).
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

/** The fold timeline between two folds (see the file comment). */
struct FoldTimelineState
{
    std::int64_t dramFree = 0;        ///< When the channel is next idle.
    std::int64_t computeDone = 0;     ///< Fold f-1 completion.
    std::int64_t computeDonePrev = 0; ///< Fold f-2 completion.
    std::int64_t lastWritebackDone = 0;

    /**
     * Schedule the next fold: @p fetchBytes before @p cycles of compute,
     * then @p writebackBytes. Returns where it landed (index unset).
     */
    template <class Channel>
    FoldTiming step(Channel &channel, std::int64_t fetchBytes,
                    std::int64_t cycles, std::int64_t writebackBytes)
    {
        FoldTiming fold;
        fold.fetchBytes = fetchBytes;
        fold.writebackBytes = writebackBytes;

        // Prefetch for fold f may start once the channel is free and the
        // target buffer half is released (fold f-2 retired).
        fold.fetchStart = std::max(dramFree, computeDonePrev);
        dramFree = channel.transfer(fold.fetchStart, fetchBytes, false);

        fold.computeStart = std::max(computeDone, dramFree);
        computeDonePrev = computeDone;
        computeDone = fold.computeStart + cycles;

        // The channel serializes fetches and writebacks; writebacks queue
        // behind the fetch stream as they are produced.
        if (writebackBytes > 0) {
            fold.writebackStart = std::max(dramFree, computeDone);
            lastWritebackDone =
                channel.transfer(fold.writebackStart, writebackBytes, true);
            dramFree = lastWritebackDone;
        }
        return fold;
    }

    /** The layer retires when compute and every writeback are done. */
    std::int64_t finish() const
    {
        return std::max(computeDone, lastWritebackDone);
    }
};

/** Completion and array-busy cycles of one layer's fold timeline. */
struct TimelineCycles
{
    std::int64_t total = 0;
    std::int64_t busy = 0;
};

/**
 * Step the fold timeline (see the file comment) over every fold of
 * @p folds, one at a time in row-major order.
 *
 * @param folds   Per-fold inputs with FoldTraffic's interface: grid(),
 *                fetchBytes(i, j), writebackBytes(i, j).
 * @param channel Maps transfer(earliestStart, bytes, write) to the
 *                transfer's completion cycle; a zero-byte transfer
 *                completes at its start.
 * @param onFold  Called with each fold's timing once it is scheduled.
 */
template <class Folds, class Channel, class Observer = IgnoreFolds>
TimelineCycles
stepTimeline(const Folds &folds, Channel &channel, Observer onFold = {})
{
    const FoldGrid &grid = folds.grid();
    FoldTimelineState state;
    TimelineCycles cycles;
    for (std::int64_t i = 0; i < grid.rowFolds; ++i) {
        for (std::int64_t j = 0; j < grid.colFolds; ++j) {
            const std::int64_t fold_cycles = grid.cycles(i, j);
            FoldTiming fold =
                state.step(channel, folds.fetchBytes(i, j), fold_cycles,
                           folds.writebackBytes(i, j));
            fold.index = i * grid.colFolds + j;
            cycles.busy += fold_cycles;
            onFold(fold);
        }
    }
    cycles.total = state.finish();
    return cycles;
}

namespace detail
{

/** What one unit of a run (a fold, or a whole row) contributed. */
struct UnitStep
{
    std::int64_t busy = 0;   ///< Array-busy cycles.
    bool writesBack = false; ///< Some fold of the unit wrote back.
};

/**
 * True when every state component the recurrence reads moved by the
 * same amount from @p then to @p now; that amount goes to @p delta.
 */
inline bool
shiftedBy(const FoldTimelineState &now, const FoldTimelineState &then,
          std::int64_t &delta)
{
    delta = now.computeDone - then.computeDone;
    return now.dramFree - then.dramFree == delta &&
           now.computeDonePrev - then.computeDonePrev == delta;
}

/**
 * Advance @p state through @p count identical units, adding their busy
 * cycles to @p busy. @p step applies one unit to a state. Once a unit
 * shifts the whole state by one delta, every later unit does too (see
 * the file comment), so the rest of the run is added arithmetically.
 */
template <class Step>
void
runUnits(FoldTimelineState &state, std::int64_t &busy, std::int64_t count,
         Step step)
{
    for (std::int64_t done = 1; done <= count; ++done) {
        const FoldTimelineState before = state;
        const UnitStep unit = step(state);
        busy += unit.busy;
        std::int64_t delta = 0;
        if (!shiftedBy(state, before, delta))
            continue;

        const std::int64_t rest = count - done;
        state.dramFree += rest * delta;
        state.computeDone += rest * delta;
        state.computeDonePrev += rest * delta;
        if (unit.writesBack)
            state.lastWritebackDone += rest * delta;
        busy += rest * unit.busy;
        return;
    }
}

} // namespace detail

/**
 * stepTimeline()'s result without stepping every fold: each run of
 * identical rows, and within a row each run of identical folds, is
 * stepped until it settles and then fast-forwarded (see the file comment).
 *
 * @param folds   Per-fold inputs with FoldTraffic's interface, including
 *                rowRuns() and columnRuns(i).
 * @param channel A channel whose transfer duration depends only on the
 *                byte count (FlatChannel).
 */
template <class Folds, class Channel>
TimelineCycles
fastForwardTimeline(const Folds &folds, Channel &channel)
{
    const FoldGrid &grid = folds.grid();
    FoldTimelineState state;
    TimelineCycles cycles;
    const FoldRuns rows = folds.rowRuns();
    for (int r = 0; r + 1 < rows.count; ++r) {
        // Every row of this run has the folds of row i.
        const std::int64_t i = rows.at[r];
        const FoldRuns cols = folds.columnRuns(i);
        const auto step_row = [&](FoldTimelineState &row_state) {
            detail::UnitStep row;
            for (int c = 0; c + 1 < cols.count; ++c) {
                const std::int64_t j = cols.at[c];
                const std::int64_t fetch = folds.fetchBytes(i, j);
                const std::int64_t writeback = folds.writebackBytes(i, j);
                const std::int64_t fold_cycles = grid.cycles(i, j);
                detail::runUnits(
                    row_state, row.busy, cols.at[c + 1] - j,
                    [&](FoldTimelineState &fold_state) {
                        fold_state.step(channel, fetch, fold_cycles,
                                        writeback);
                        return detail::UnitStep{fold_cycles,
                                                writeback > 0};
                    });
                row.writesBack = row.writesBack || writeback > 0;
            }
            return row;
        };
        detail::runUnits(state, cycles.busy, rows.at[r + 1] - i, step_row);
    }
    cycles.total = state.finish();
    return cycles;
}

/** The LayerResult of a timeline over @p split's folds. */
LayerResult foldTimelineResult(const nn::Layer &layer,
                               const FoldTraffic &split,
                               const TimelineCycles &cycles);

/**
 * Step the fold timeline (see the file comment) of @p layer on
 * @p config: stepTimeline() over its FoldTraffic.
 */
template <class Channel, class Observer = IgnoreFolds>
LayerResult
runFoldTimeline(const nn::Layer &layer, const AcceleratorConfig &config,
                Channel &channel, Observer onFold = {})
{
    const FoldTraffic split(layer, config);
    return foldTimelineResult(layer, split,
                              stepTimeline(split, channel, onFold));
}

/**
 * One layer on a FlatChannel at @p derate, timed and counted under the
 * systolic.cycle.* telemetry: the result of runFoldTimeline() over that
 * channel, fast-forwarded through runs of identical folds (see the file
 * comment). The body of CycleEngine::runLayer, and
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
     * @param profile Background traffic sharing the DRAM channel.
     *                Fetch/writeback cycles are scaled by the profile's
     *                effective-bandwidth derate; fatal at construction
     *                with profile.infeasibleReason(config) (a bad rate or
     *                floor, or a fully-contended channel with no QoS
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
