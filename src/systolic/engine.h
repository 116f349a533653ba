/**
 * @file
 * Accelerator performance engines.
 *
 * Engines share one result format:
 *
 *  - AnalyticalEngine: closed-form per-layer timing
 *    (max(compute, DRAM-transfer) plus first-tile latency) read from
 *    the layer's FoldGrid and FoldTraffic (tiling.h, memory.h) without
 *    visiting a fold. Fast; used inside the Phase 2 design-space
 *    exploration loop. Its oracle is the fold-by-fold
 *    systolic::oracle::AnalyticalEngine (tests/oracle/analytical_engine.h);
 *    AnalyticalDifferential (test_batch_kernel.cc) holds the two equal
 *    field by field.
 *  - The fold timeline, runFoldTimeline() (cycle_engine.h): steps the
 *    fold schedule through an explicit double-buffered prefetch/
 *    writeback recurrence over a pluggable DRAM channel. It has three
 *    users: CycleEngine (flat channel, optionally derated by a
 *    contention profile; the reference model used by the benches),
 *    which fast-forwards it through runs of identical folds,
 *    dram::DramCycleEngine (bank-level channel) and traceLayer()
 *    (trace.h), which records each fold's events.
 *
 * Property tests assert the analytical runtime brackets the cycle-stepped
 * runtime: max(C, D) <= T_cycle <= C + D (+ first tile, last drain).
 */

#ifndef AUTOPILOT_SYSTOLIC_ENGINE_H
#define AUTOPILOT_SYSTOLIC_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.h"
#include "systolic/config.h"
#include "systolic/memory.h"

namespace autopilot::systolic
{

/** Timing and memory activity of one layer. */
struct LayerResult
{
    std::string layerName;
    nn::GemmShape gemm;
    std::int64_t rowFolds = 0;
    std::int64_t colFolds = 0;
    std::int64_t computeCycles = 0; ///< Pure array busy cycles.
    std::int64_t stallCycles = 0;   ///< Cycles waiting on DRAM.
    std::int64_t totalCycles = 0;   ///< computeCycles + stallCycles.
    LayerTraffic traffic;

    /** Useful-MAC utilization of the PE array over totalCycles. */
    double utilization(std::int64_t pe_count) const;
};

/** Aggregate result of running a whole model on the accelerator. */
struct RunResult
{
    std::vector<LayerResult> layers;
    std::int64_t totalCycles = 0;
    std::int64_t computeCycles = 0;
    std::int64_t stallCycles = 0;
    std::int64_t totalMacs = 0;
    LayerTraffic traffic;

    /**
     * End-to-end inference latency in seconds at the given clock.
     * Degenerate inputs (totalCycles <= 0, clock_ghz <= 0 or NaN)
     * return 0 instead of inf/NaN (debug builds assert).
     */
    double runtimeSeconds(double clock_ghz) const;

    /** Inferences per second at the given clock. */
    double framesPerSecond(double clock_ghz) const;

    /** Useful-MAC utilization of the PE array over the whole run. */
    double peUtilization(std::int64_t pe_count) const;
};

/** Shared interface of the engines. */
class Engine
{
  public:
    virtual ~Engine() = default;

    /** Simulate one layer. */
    virtual LayerResult runLayer(const nn::Layer &layer) const = 0;

    /** Simulate a whole model (layers execute back to back). */
    RunResult run(const nn::Model &model) const;
};

/**
 * Closed-form engine: per layer,
 * total = max(computeCycles, dramCycles) + firstTileLatency, where
 * dramCycles = ceil(totalDramBytes / dramBytesPerCycle) and
 * firstTileLatency = ceil(fold 0's fetch bytes / dramBytesPerCycle).
 */
class AnalyticalEngine : public Engine
{
  public:
    /** @param config Accelerator configuration (validated). */
    explicit AnalyticalEngine(const AcceleratorConfig &config);

    LayerResult runLayer(const nn::Layer &layer) const override;

    const AcceleratorConfig &config() const { return cfg; }

  private:
    AcceleratorConfig cfg;
};

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_ENGINE_H
