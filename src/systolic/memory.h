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
 * Compute DRAM traffic and scratchpad access counts for one layer.
 *
 * @param layer    The layer (provides raw tensor footprints).
 * @param schedule Fold schedule from scheduleGemm().
 * @param config   Accelerator configuration.
 */
LayerTraffic computeTraffic(const nn::Layer &layer,
                            const FoldSchedule &schedule,
                            const AcceleratorConfig &config);

/**
 * Evenly split @p total over @p share_count designated folds; share
 * @p share_index gets the remainder-adjusted portion so the shares sum
 * exactly to total (the first total % share_count shares get one more).
 */
std::int64_t evenShare(std::int64_t total, std::int64_t share_count,
                       std::int64_t share_index);

/**
 * One layer's DRAM traffic split over its folds, built once per layer:
 * computeTraffic()'s totals plus the residency that decides which folds
 * carry which share. Resident tensors are only fetched during the first
 * pass that touches them; final ofmap tiles leave the chip on the last
 * row-fold pass (every fold for OS). The shares of every fold sum
 * exactly to the totals. The fold timeline reads its per-fold bytes
 * here.
 */
class FoldTraffic
{
  public:
    /**
     * @param layer    The layer being executed.
     * @param schedule Fold schedule (row-major fold order).
     * @param config   Accelerator configuration.
     */
    FoldTraffic(const nn::Layer &layer, const FoldSchedule &schedule,
                const AcceleratorConfig &config);

    /** The layer totals the folds share. */
    const LayerTraffic &totals() const { return traffic; }

    /** DRAM bytes fold @p fold_index fetches before compute can start. */
    std::int64_t fetchBytes(std::int64_t fold_index) const;

    /** DRAM bytes (final ofmap tiles) fold @p fold_index writes back. */
    std::int64_t writebackBytes(std::int64_t fold_index) const;

  private:
    Residency residency; // Initialised first: traffic depends on it.
    LayerTraffic traffic;
    Dataflow dataflow;
    std::int64_t rowFolds;
    std::int64_t colFolds;
};

/** One-fold view of FoldTraffic::fetchBytes(). */
std::int64_t foldFetchBytes(const nn::Layer &layer,
                            const FoldSchedule &schedule,
                            const AcceleratorConfig &config,
                            std::int64_t fold_index);

/** One-fold view of FoldTraffic::writebackBytes(). */
std::int64_t foldWritebackBytes(const nn::Layer &layer,
                                const FoldSchedule &schedule,
                                const AcceleratorConfig &config,
                                std::int64_t fold_index);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_MEMORY_H
