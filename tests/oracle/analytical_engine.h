/**
 * @file
 * Test oracle: the fold-by-fold analytical engine.
 *
 * This is the model src/systolic/engine.cc used to run. It materializes
 * every fold of a layer as a Fold struct, sums their cycles for the
 * compute time, and reads fold 0's fetch bytes from a per-fold
 * statement of the residency rules that re-derives each tensor's share
 * from the fold's position with a division and a modulo. The production
 * AnalyticalEngine answers the same quantities in closed form from
 * FoldGrid and FoldTraffic. AnalyticalDifferential (test_batch_kernel.cc)
 * holds the two equal layer by layer, field by field, and FoldTraffic's
 * per-fold bytes to foldFetchBytes()/foldWritebackBytes() below.
 *
 * The layer's DRAM and scratchpad totals come from FoldTraffic::totals():
 * there is one statement of the traffic formulas, and the totals are
 * pinned by the exact-value tests in test_systolic_memory.cc.
 *
 * Used only by tests and bench_engine_validation; nothing in src/ links
 * it.
 */

#ifndef AUTOPILOT_TESTS_ORACLE_ANALYTICAL_ENGINE_H
#define AUTOPILOT_TESTS_ORACLE_ANALYTICAL_ENGINE_H

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/engine.h"
#include "systolic/memory.h"

namespace autopilot::systolic::oracle
{

/** One fold: the work mapped onto the array at one time. */
struct Fold
{
    std::int64_t rowsUsed = 0;   ///< PE rows occupied (<= peRows).
    std::int64_t colsUsed = 0;   ///< PE columns occupied (<= peCols).
    std::int64_t streamLen = 0;  ///< Elements streamed through the array.
    std::int64_t cycles = 0;     ///< Fill + stream + drain cycles.
    std::int64_t macs = 0;       ///< Useful MACs performed in this fold.
};

/** Complete fold schedule of one layer. */
struct FoldSchedule
{
    std::int64_t rowFolds = 0; ///< Folds along the row-mapped dimension.
    std::int64_t colFolds = 0; ///< Folds along the column-mapped dimension.
    std::vector<Fold> folds;   ///< Row-major fold order.

    std::int64_t foldCount() const { return rowFolds * colFolds; }

    /** Sum of per-fold compute cycles. */
    std::int64_t computeCycles() const;

    /** Sum of per-fold useful MACs. */
    std::int64_t totalMacs() const;
};

/**
 * Every fold of @p gemm on @p config, row-major, with the dataflow's
 * dimension assignment (WS: rows k, cols n, stream m; OS: m, n, k;
 * IS: k, m, n) stated here rather than read from foldGrid().
 */
FoldSchedule scheduleGemm(const nn::GemmShape &gemm,
                          const AcceleratorConfig &config);

/** The layer's traffic totals; @p schedule must be the layer's. */
LayerTraffic computeTraffic(const nn::Layer &layer,
                            const FoldSchedule &schedule,
                            const AcceleratorConfig &config);

/**
 * DRAM bytes row-major fold @p fold_index of @p schedule (the layer's)
 * fetches before computing.
 */
std::int64_t foldFetchBytes(const nn::Layer &layer,
                            const FoldSchedule &schedule,
                            const AcceleratorConfig &config,
                            std::int64_t fold_index);

/** DRAM bytes (final ofmap tiles) fold @p fold_index writes back. */
std::int64_t foldWritebackBytes(const nn::Layer &layer,
                                const FoldSchedule &schedule,
                                const AcceleratorConfig &config,
                                std::int64_t fold_index);

/**
 * Fold-by-fold engine: per layer,
 * total = max(computeCycles, dramCycles) + firstTileLatency.
 */
class AnalyticalEngine : public Engine
{
  public:
    /** @param config Accelerator configuration (validated). */
    explicit AnalyticalEngine(const AcceleratorConfig &config);

    LayerResult runLayer(const nn::Layer &layer) const override;

  private:
    AcceleratorConfig cfg;
};

} // namespace autopilot::systolic::oracle

#endif // AUTOPILOT_TESTS_ORACLE_ANALYTICAL_ENGINE_H
