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
 * systolic pipeline timing. FoldGrid answers it per fold, and summed over
 * the layer, in closed form; no fold list is ever built. It knows nothing
 * about memory: the bytes each fold moves come from the residency-aware
 * split in memory.h (FoldTraffic).
 */

#ifndef AUTOPILOT_SYSTOLIC_TILING_H
#define AUTOPILOT_SYSTOLIC_TILING_H

#include <algorithm>
#include <cstdint>

#include "nn/layer.h"
#include "systolic/config.h"

namespace autopilot::systolic
{

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

    /**
     * Sum of cycles(i, j) over every fold, in closed form: the rows
     * used sum to rowDim over the row folds (and the columns to colDim),
     * so sum (2 r_i + c_j + s - 2) = 2 C rowDim + R colDim
     * + R C (s - 2).
     */
    std::int64_t computeCycles() const
    {
        return 2 * colFolds * rowDim + rowFolds * colDim +
               foldCount() * (streamDim - 2);
    }
};

/** The fold grid of @p gemm on @p config's array and dataflow. */
FoldGrid foldGrid(const nn::GemmShape &gemm,
                  const AcceleratorConfig &config);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_TILING_H
