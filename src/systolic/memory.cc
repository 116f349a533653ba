#include "systolic/memory.h"

#include <algorithm>

#include "util/logging.h"

namespace autopilot::systolic
{

using util::panicIf;

namespace
{

std::int64_t
halfCapacityBytes(int sram_kb)
{
    // Double buffering: half the scratchpad holds the working set.
    return static_cast<std::int64_t>(sram_kb) * 1024 / 2;
}

} // namespace

std::int64_t
evenShare(std::int64_t total, std::int64_t share_count,
          std::int64_t share_index)
{
    panicIf(share_count <= 0, "evenShare: no designated folds");
    const std::int64_t base = total / share_count;
    const std::int64_t extra = total % share_count;
    return base + (share_index < extra ? 1 : 0);
}

void
LayerTraffic::accumulate(const LayerTraffic &other)
{
    ifmapDramBytes += other.ifmapDramBytes;
    filterDramBytes += other.filterDramBytes;
    ofmapDramBytes += other.ofmapDramBytes;
    ifmapSramReads += other.ifmapSramReads;
    filterSramReads += other.filterSramReads;
    ofmapSramWrites += other.ofmapSramWrites;
    psumSramReads += other.psumSramReads;
    psumSramWrites += other.psumSramWrites;
}

Residency
analyzeResidency(const nn::Layer &layer, const AcceleratorConfig &config)
{
    const std::int64_t bpe = config.bytesPerElement;
    const nn::GemmShape gemm = layer.gemm();

    Residency residency;
    residency.ifmapResident =
        layer.ifmapElems() * bpe <= halfCapacityBytes(config.ifmapSramKb);
    residency.filterResident =
        layer.filterElems() * bpe <= halfCapacityBytes(config.filterSramKb);
    // Partial sums live in the ofmap scratchpad between row-fold passes.
    residency.psumOnChip =
        gemm.m * gemm.n * psumBytes <= halfCapacityBytes(config.ofmapSramKb);

    // When they do not fit, the stream dimension is chunked so each
    // chunk's psums (chunk x one column-fold's width) stay on chip.
    const std::int64_t stream_dim =
        config.dataflow == Dataflow::InputStationary ? gemm.n : gemm.m;
    const std::int64_t chunk_rows = std::max<std::int64_t>(
        1, halfCapacityBytes(config.ofmapSramKb) /
               (static_cast<std::int64_t>(config.peCols) * psumBytes));
    if (!residency.psumOnChip) {
        residency.streamChunks =
            (stream_dim + chunk_rows - 1) / chunk_rows;
    }
    return residency;
}

namespace
{

/** computeTraffic() for a layer whose residency is already known. */
LayerTraffic
trafficWith(const nn::Layer &layer, const FoldSchedule &schedule,
            const AcceleratorConfig &config, const Residency &residency)
{
    const std::int64_t bpe = config.bytesPerElement;
    const nn::GemmShape gemm = layer.gemm();
    const std::int64_t ifmap_bytes = layer.ifmapElems() * bpe;
    const std::int64_t filter_bytes = layer.filterElems() * bpe;
    const std::int64_t ofmap_bytes = layer.ofmapElems() * bpe;

    LayerTraffic traffic;

    const bool crosses_folds =
        config.dataflow != Dataflow::OutputStationary &&
        schedule.rowFolds > 1;
    const std::int64_t chunks =
        crosses_folds ? residency.streamChunks : 1;

    // --- DRAM traffic ---
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : ifmap_bytes * schedule.colFolds;
        // Weights are pinned once per stream chunk (once total when the
        // psums of the whole stream fit on chip), unless the filter set
        // is SRAM-resident.
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * chunks;
        break;
      case Dataflow::OutputStationary:
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : ifmap_bytes * schedule.colFolds;
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * schedule.rowFolds;
        break;
      case Dataflow::InputStationary:
        // The im2col footprint is pinned once per stream chunk.
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : gemm.m * gemm.k * bpe * chunks;
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * schedule.colFolds;
        break;
    }
    // Cross-fold partial sums always accumulate on chip (see file
    // comment), so the ofmap is the only DRAM write.
    traffic.ofmapDramBytes = ofmap_bytes;

    // --- Scratchpad accesses (elements) ---
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * schedule.colFolds;
        traffic.filterSramReads = gemm.k * gemm.n * chunks;
        break;
      case Dataflow::OutputStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * schedule.colFolds;
        traffic.filterSramReads = gemm.k * gemm.n * schedule.rowFolds;
        break;
      case Dataflow::InputStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * chunks;
        traffic.filterSramReads = gemm.k * gemm.n * schedule.colFolds;
        break;
    }
    traffic.ofmapSramWrites = gemm.m * gemm.n;
    if (crosses_folds) {
        traffic.psumSramReads = gemm.m * gemm.n * (schedule.rowFolds - 1);
        traffic.psumSramWrites = traffic.psumSramReads;
    }

    return traffic;
}

} // namespace

LayerTraffic
computeTraffic(const nn::Layer &layer, const FoldSchedule &schedule,
               const AcceleratorConfig &config)
{
    return trafficWith(layer, schedule, config,
                       analyzeResidency(layer, config));
}

FoldTraffic::FoldTraffic(const nn::Layer &layer,
                         const FoldSchedule &schedule,
                         const AcceleratorConfig &config)
    : residency(analyzeResidency(layer, config)),
      traffic(trafficWith(layer, schedule, config, residency)),
      dataflow(config.dataflow), rowFolds(schedule.rowFolds),
      colFolds(schedule.colFolds)
{
}

std::int64_t
FoldTraffic::fetchBytes(std::int64_t fold_index) const
{
    const std::int64_t folds = rowFolds * colFolds;
    panicIf(fold_index < 0 || fold_index >= folds,
            "foldFetchBytes: fold index out of range");
    const std::int64_t i = fold_index / colFolds;
    const std::int64_t j = fold_index % colFolds;

    std::int64_t bytes = 0;

    // Ifmap: when resident (and not IS), only the first column pass of
    // each row fold fetches; otherwise every fold fetches its share.
    if (dataflow == Dataflow::InputStationary || !residency.ifmapResident)
        bytes += evenShare(traffic.ifmapDramBytes, folds, fold_index);
    else if (j == 0)
        bytes += evenShare(traffic.ifmapDramBytes, rowFolds, i);

    // Filter: WS fetches per fold by construction; OS/IS fetch per fold
    // unless resident, in which case only the first pass fetches.
    if (dataflow == Dataflow::OutputStationary && residency.filterResident) {
        if (i == 0)
            bytes += evenShare(traffic.filterDramBytes, colFolds, j);
    } else if (dataflow == Dataflow::InputStationary &&
               residency.filterResident) {
        if (j == 0)
            bytes += evenShare(traffic.filterDramBytes, rowFolds, i);
    } else {
        bytes += evenShare(traffic.filterDramBytes, folds, fold_index);
    }
    return bytes;
}

std::int64_t
FoldTraffic::writebackBytes(std::int64_t fold_index) const
{
    panicIf(fold_index < 0 || fold_index >= rowFolds * colFolds,
            "foldWritebackBytes: fold index out of range");
    // OS finishes an output tile per fold, so every fold writes its
    // share; WS/IS finish tiles on the last row-fold pass only.
    if (dataflow == Dataflow::OutputStationary)
        return evenShare(traffic.ofmapDramBytes, rowFolds * colFolds,
                         fold_index);
    if (fold_index / colFolds == rowFolds - 1)
        return evenShare(traffic.ofmapDramBytes, colFolds,
                         fold_index % colFolds);
    return 0;
}

std::int64_t
foldFetchBytes(const nn::Layer &layer, const FoldSchedule &schedule,
               const AcceleratorConfig &config, std::int64_t fold_index)
{
    return FoldTraffic(layer, schedule, config).fetchBytes(fold_index);
}

std::int64_t
foldWritebackBytes(const nn::Layer &layer, const FoldSchedule &schedule,
                   const AcceleratorConfig &config, std::int64_t fold_index)
{
    return FoldTraffic(layer, schedule, config).writebackBytes(fold_index);
}

} // namespace autopilot::systolic
