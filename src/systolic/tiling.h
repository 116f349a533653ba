/**
 * @file
 * Fold (tile) scheduling of a GEMM onto the PE array.
 *
 * A layer lowered to an (M x K) * (K x N) GEMM is executed as a sequence of
 * folds. Which GEMM dimensions map to the array's rows and columns depends
 * on the dataflow (SCALE-Sim convention):
 *
 *   WS: rows <- K (window depth), cols <- N (filters); M streams.
 *   OS: rows <- M (output pixels), cols <- N (filters); K streams.
 *   IS: rows <- K (window depth), cols <- M (output pixels); N streams.
 *
 * Each fold has a fill/compute/drain cycle count derived from the classic
 * systolic pipeline timing. FoldGrid answers it per fold in closed form;
 * scheduleGemm() materializes the whole schedule. Neither knows anything
 * about memory: the bytes each fold moves come from the residency-aware
 * split in memory.h (FoldTraffic).
 */

#ifndef AUTOPILOT_SYSTOLIC_TILING_H
#define AUTOPILOT_SYSTOLIC_TILING_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "systolic/config.h"

namespace autopilot::systolic
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

    /** Total folds = rowFolds * colFolds. */
    std::int64_t foldCount() const { return rowFolds * colFolds; }

    /** Sum of per-fold compute cycles. */
    std::int64_t computeCycles() const;

    /** Sum of per-fold useful MACs. */
    std::int64_t totalMacs() const;
};

/**
 * Cycles for a single fold given the array shape and streamed length.
 *
 * Timing follows the standard systolic pipeline: rows_used cycles to fill
 * (or pre-load the stationary operand), stream_len cycles of streaming,
 * rows_used + cols_used - 2 cycles to drain the last results.
 */
std::int64_t foldCycles(std::int64_t rows_used, std::int64_t cols_used,
                        std::int64_t stream_len);

/**
 * How a GEMM splits into folds on an array, answered per fold in closed
 * form: every fold is full except the last row of folds and the last
 * column of folds, which hold the remainders.
 */
struct FoldGrid
{
    std::int64_t rowDim = 0;    ///< GEMM dimension mapped to array rows.
    std::int64_t colDim = 0;    ///< GEMM dimension mapped to columns.
    std::int64_t streamDim = 0; ///< GEMM dimension streamed through.
    std::int64_t peRows = 0;
    std::int64_t peCols = 0;
    std::int64_t rowFolds = 0; ///< Folds along the row-mapped dimension.
    std::int64_t colFolds = 0; ///< Folds along the column-mapped one.

    std::int64_t foldCount() const { return rowFolds * colFolds; }

    /** PE rows occupied by the folds of row fold @p i. */
    std::int64_t rowsUsed(std::int64_t i) const
    {
        return std::min(peRows, rowDim - i * peRows);
    }

    /** PE columns occupied by the folds of column fold @p j. */
    std::int64_t colsUsed(std::int64_t j) const
    {
        return std::min(peCols, colDim - j * peCols);
    }

    /** foldCycles() of fold (@p i, @p j). */
    std::int64_t cycles(std::int64_t i, std::int64_t j) const
    {
        return foldCycles(rowsUsed(i), colsUsed(j), streamDim);
    }
};

/** The fold grid of @p gemm on @p config's array and dataflow. */
FoldGrid foldGrid(const nn::GemmShape &gemm,
                  const AcceleratorConfig &config);

/**
 * Build the fold schedule for a layer on a given accelerator.
 *
 * @param gemm   GEMM view of the layer.
 * @param config Accelerator configuration (array shape and dataflow).
 */
FoldSchedule scheduleGemm(const nn::GemmShape &gemm,
                          const AcceleratorConfig &config);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_TILING_H
