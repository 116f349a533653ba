/**
 * @file
 * Scratchpad residency and DRAM traffic model.
 *
 * The three scratchpads (ifmap / filter / ofmap) are double-buffered: half
 * of each capacity holds the working set while the other half prefetches.
 * A tensor that fits in its half-capacity is fetched from DRAM exactly
 * once; otherwise it is re-fetched every time a fold pass needs it again,
 * with the refetch factor determined by the dataflow's reuse pattern.
 *
 * Partial sums that must cross row folds are 32-bit and always accumulate
 * on chip: when the full cross-fold working set does not fit the ofmap
 * scratchpad, the mapper chunks the streaming dimension so each chunk's
 * psums fit, re-streaming the stationary operand once per chunk (the
 * standard WS loop order). Psum traffic therefore never reaches DRAM;
 * the cost appears as extra stationary-operand fetches instead.
 *
 * This is the same fidelity level as SCALE-Sim's memory estimates: tensor
 * granularity residency with fold-derived reuse multipliers.
 */

#ifndef AUTOPILOT_SYSTOLIC_MEMORY_H
#define AUTOPILOT_SYSTOLIC_MEMORY_H

#include <array>
#include <cstdint>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/tiling.h"

namespace autopilot::systolic
{

/** Bytes used per partial-sum word (32-bit accumulators). */
constexpr std::int64_t psumBytes = 4;

/** Per-layer memory-system activity counts. */
struct LayerTraffic
{
    // DRAM traffic in bytes.
    std::int64_t ifmapDramBytes = 0;
    std::int64_t filterDramBytes = 0;
    std::int64_t ofmapDramBytes = 0;

    // Scratchpad accesses in elements.
    std::int64_t ifmapSramReads = 0;
    std::int64_t filterSramReads = 0;
    std::int64_t ofmapSramWrites = 0;
    std::int64_t psumSramReads = 0;
    std::int64_t psumSramWrites = 0;

    /** Total DRAM bytes moved for the layer. */
    std::int64_t totalDramBytes() const
    {
        return ifmapDramBytes + filterDramBytes + ofmapDramBytes;
    }

    /** Total scratchpad accesses (reads + writes), in elements. */
    std::int64_t totalSramAccesses() const
    {
        return ifmapSramReads + filterSramReads + ofmapSramWrites +
               psumSramReads + psumSramWrites;
    }

    /** Accumulate another layer's counts into this one. */
    void accumulate(const LayerTraffic &other);

    bool operator==(const LayerTraffic &other) const = default;
};

/** Residency of the three tensors in their scratchpads. */
struct Residency
{
    bool ifmapResident = false;  ///< Whole ifmap fits half its scratchpad.
    bool filterResident = false; ///< Whole filter set fits half capacity.
    /// True when all cross-fold partial sums fit at once (no stream
    /// chunking needed).
    bool psumOnChip = false;
    /// Number of stream-dimension chunks needed to keep psums on chip
    /// (1 when psumOnChip or when there is a single row fold).
    std::int64_t streamChunks = 1;
};

/** Determine tensor residency for a layer on a given configuration. */
Residency analyzeResidency(const nn::Layer &layer,
                           const AcceleratorConfig &config);

/**
 * An even split of a total over a number of shares, precomputed: share
 * @p index gets base, and the first total % count shares one more, so
 * the shares sum exactly to the total.
 */
struct EvenSplit
{
    std::int64_t base = 0;
    std::int64_t extra = 0; ///< Shares [0, extra) get base + 1.

    EvenSplit() = default;
    EvenSplit(std::int64_t total, std::int64_t share_count);

    std::int64_t share(std::int64_t index) const
    {
        return base + (index < extra ? 1 : 0);
    }
};

/**
 * Evenly split @p total over @p share_count designated folds; share
 * @p share_index gets the remainder-adjusted portion so the shares sum
 * exactly to total (the first total % share_count shares get one more).
 */
std::int64_t evenShare(std::int64_t total, std::int64_t share_count,
                       std::int64_t share_index);

/**
 * Boundaries of the runs of identical folds along one fold row (or of
 * identical rows along the layer): sorted, distinct, starting at 0 and
 * ending at the row's (or layer's) length, so [at[k], at[k + 1]) is one
 * run.
 */
struct FoldRuns
{
    std::array<std::int64_t, 10> at{};
    int count = 0;
};

/**
 * One layer's traffic and per-fold timeline inputs, built once per layer
 * and answered per fold in closed form: the layer's DRAM and scratchpad
 * totals (residency-aware, see the file comment), their DRAM bytes split
 * over the folds, plus the fold grid that gives each fold's compute
 * cycles. Resident tensors are only fetched during the first pass that
 * touches them; final ofmap tiles leave the chip on the last row-fold
 * pass (every fold for OS). The shares of every fold sum exactly to the
 * totals.
 *
 * Each tensor's bytes are one even split over all folds, the row folds
 * or the column folds, carried by every fold or only by the first row,
 * first column or last row. So a fold's inputs depend on its position
 * only through a few predicates - first/last row and column, and
 * "index < remainder" of each split - and their breakpoints cut the
 * layer into runs of identical folds (rowRuns(), columnRuns()). The
 * stepped fold timeline reads every fold from these; runFlatLayer()
 * steps each run until it settles and fast-forwards the rest.
 */
class FoldTraffic
{
  public:
    /**
     * @param layer  The layer being executed.
     * @param config Accelerator configuration.
     */
    FoldTraffic(const nn::Layer &layer, const AcceleratorConfig &config);

    /** The layer totals the folds share. */
    const LayerTraffic &totals() const { return traffic; }

    /** The fold grid (row-major fold order, compute cycles per fold). */
    const FoldGrid &grid() const { return foldGrid_; }

    /** DRAM bytes fold (@p i, @p j) fetches before compute can start. */
    std::int64_t fetchBytes(std::int64_t i, std::int64_t j) const
    {
        return ifmap.bytes(i, j, foldGrid_) + filter.bytes(i, j, foldGrid_);
    }

    /** DRAM bytes (final ofmap tiles) fold (@p i, @p j) writes back. */
    std::int64_t writebackBytes(std::int64_t i, std::int64_t j) const
    {
        return ofmap.bytes(i, j, foldGrid_);
    }

    /**
     * Runs of rows whose folds have the same inputs column by column:
     * breaks at rows 1 and R-1, at each per-row split's remainder, and
     * around the row that holds each fold-wide split's remainder.
     */
    FoldRuns rowRuns() const;

    /**
     * Runs of folds in row @p i with the same fetch bytes, writeback
     * bytes and compute cycles: breaks at columns 1 and C-1, at each
     * per-column split's remainder, and where a fold-wide split's
     * remainder ends inside the row.
     */
    FoldRuns columnRuns(std::int64_t i) const;

  private:
    /** One tensor's DRAM bytes spread over the folds. */
    struct TensorShare
    {
        enum class Over { Folds, Rows, Columns };
        enum class Only { AnyFold, FirstRow, FirstColumn, LastRow };

        Over over = Over::Folds;  ///< What the total is split over.
        Only only = Only::AnyFold; ///< Which folds carry the shares.
        EvenSplit split;

        std::int64_t bytes(std::int64_t i, std::int64_t j,
                           const FoldGrid &grid) const
        {
            switch (only) {
              case Only::AnyFold: break;
              case Only::FirstRow: if (i != 0) return 0; break;
              case Only::FirstColumn: if (j != 0) return 0; break;
              case Only::LastRow:
                if (i != grid.rowFolds - 1)
                    return 0;
                break;
            }
            switch (over) {
              case Over::Folds: return split.share(i * grid.colFolds + j);
              case Over::Rows: return split.share(i);
              case Over::Columns: return split.share(j);
            }
            return 0;
        }
    };

    Residency residency; // Initialised first: traffic depends on it.
    FoldGrid foldGrid_;
    LayerTraffic traffic;
    TensorShare ifmap;
    TensorShare filter;
    TensorShare ofmap;
};

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_MEMORY_H
