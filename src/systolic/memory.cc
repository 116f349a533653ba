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

EvenSplit::EvenSplit(std::int64_t total, std::int64_t share_count)
{
    panicIf(share_count <= 0, "evenShare: no designated folds");
    base = total / share_count;
    extra = total % share_count;
}

std::int64_t
evenShare(std::int64_t total, std::int64_t share_count,
          std::int64_t share_index)
{
    return EvenSplit(total, share_count).share(share_index);
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

/** The DRAM and scratchpad totals of a layer with @p residency. */
LayerTraffic
trafficWith(const nn::Layer &layer, std::int64_t row_folds,
            std::int64_t col_folds, const AcceleratorConfig &config,
            const Residency &residency)
{
    const std::int64_t bpe = config.bytesPerElement;
    const nn::GemmShape gemm = layer.gemm();
    const std::int64_t ifmap_bytes = layer.ifmapElems() * bpe;
    const std::int64_t filter_bytes = layer.filterElems() * bpe;
    const std::int64_t ofmap_bytes = layer.ofmapElems() * bpe;

    LayerTraffic traffic;

    const bool crosses_folds =
        config.dataflow != Dataflow::OutputStationary && row_folds > 1;
    const std::int64_t chunks =
        crosses_folds ? residency.streamChunks : 1;

    // --- DRAM traffic ---
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : ifmap_bytes * col_folds;
        // Weights are pinned once per stream chunk (once total when the
        // psums of the whole stream fit on chip), unless the filter set
        // is SRAM-resident.
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * chunks;
        break;
      case Dataflow::OutputStationary:
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : ifmap_bytes * col_folds;
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * row_folds;
        break;
      case Dataflow::InputStationary:
        // The im2col footprint is pinned once per stream chunk.
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : gemm.m * gemm.k * bpe * chunks;
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * col_folds;
        break;
    }
    // Cross-fold partial sums always accumulate on chip (see file
    // comment), so the ofmap is the only DRAM write.
    traffic.ofmapDramBytes = ofmap_bytes;

    // --- Scratchpad accesses (elements) ---
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * col_folds;
        traffic.filterSramReads = gemm.k * gemm.n * chunks;
        break;
      case Dataflow::OutputStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * col_folds;
        traffic.filterSramReads = gemm.k * gemm.n * row_folds;
        break;
      case Dataflow::InputStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * chunks;
        traffic.filterSramReads = gemm.k * gemm.n * col_folds;
        break;
    }
    traffic.ofmapSramWrites = gemm.m * gemm.n;
    if (crosses_folds) {
        traffic.psumSramReads = gemm.m * gemm.n * (row_folds - 1);
        traffic.psumSramWrites = traffic.psumSramReads;
    }

    return traffic;
}

} // namespace

FoldTraffic::FoldTraffic(const nn::Layer &layer,
                         const AcceleratorConfig &config)
    : residency(analyzeResidency(layer, config)),
      foldGrid_(foldGrid(layer.gemm(), config)),
      traffic(trafficWith(layer, foldGrid_.rowFolds, foldGrid_.colFolds,
                          config, residency))
{
    using Over = TensorShare::Over;
    using Only = TensorShare::Only;
    const Dataflow dataflow = config.dataflow;
    const std::int64_t rows = foldGrid_.rowFolds;
    const std::int64_t cols = foldGrid_.colFolds;
    const std::int64_t folds = foldGrid_.foldCount();

    // Ifmap: when resident (and not IS), only the first column pass of
    // each row fold fetches; otherwise every fold fetches its share.
    if (dataflow == Dataflow::InputStationary || !residency.ifmapResident)
        ifmap = {Over::Folds, Only::AnyFold,
                 EvenSplit(traffic.ifmapDramBytes, folds)};
    else
        ifmap = {Over::Rows, Only::FirstColumn,
                 EvenSplit(traffic.ifmapDramBytes, rows)};

    // Filter: WS fetches per fold by construction; OS/IS fetch per fold
    // unless resident, in which case only the first pass fetches.
    if (dataflow == Dataflow::OutputStationary && residency.filterResident)
        filter = {Over::Columns, Only::FirstRow,
                  EvenSplit(traffic.filterDramBytes, cols)};
    else if (dataflow == Dataflow::InputStationary &&
             residency.filterResident)
        filter = {Over::Rows, Only::FirstColumn,
                  EvenSplit(traffic.filterDramBytes, rows)};
    else
        filter = {Over::Folds, Only::AnyFold,
                  EvenSplit(traffic.filterDramBytes, folds)};

    // OS finishes an output tile per fold, so every fold writes its
    // share; WS/IS finish tiles on the last row-fold pass only.
    if (dataflow == Dataflow::OutputStationary)
        ofmap = {Over::Folds, Only::AnyFold,
                 EvenSplit(traffic.ofmapDramBytes, folds)};
    else
        ofmap = {Over::Columns, Only::LastRow,
                 EvenSplit(traffic.ofmapDramBytes, cols)};
}

namespace
{

/** Add @p boundary to @p runs when it falls inside (0, end). */
void
addBoundary(FoldRuns &runs, std::int64_t boundary, std::int64_t end)
{
    if (boundary <= 0 || boundary >= end)
        return;
    panicIf(runs.count + 2 >= static_cast<int>(runs.at.size()),
            "FoldRuns: too many boundaries");
    runs.at[static_cast<std::size_t>(runs.count++)] = boundary;
}

/** Sort and dedupe the inner boundaries, then bracket them by 0/end. */
FoldRuns
closeRuns(FoldRuns inner, std::int64_t end)
{
    const auto first = inner.at.begin();
    std::sort(first, first + inner.count);
    FoldRuns runs;
    runs.at[0] = 0;
    runs.count = 1;
    for (int k = 0; k < inner.count; ++k)
        if (inner.at[k] != runs.at[runs.count - 1])
            runs.at[runs.count++] = inner.at[k];
    runs.at[runs.count++] = end;
    return runs;
}

} // namespace

FoldRuns
FoldTraffic::rowRuns() const
{
    const std::int64_t rows = foldGrid_.rowFolds;
    const std::int64_t cols = foldGrid_.colFolds;
    FoldRuns inner;
    // Row 0 and the last row are their own runs: first-row and last-row
    // shares, and the last row's remainder tile (rowsUsed).
    addBoundary(inner, 1, rows);
    addBoundary(inner, rows - 1, rows);
    for (const TensorShare *share : {&ifmap, &filter, &ofmap}) {
        const std::int64_t extra = share->split.extra;
        if (share->over == TensorShare::Over::Rows) {
            addBoundary(inner, extra, rows);
        } else if (share->over == TensorShare::Over::Folds) {
            // Rows below extra / C hold only remainder folds, rows past
            // it none; the row in between holds both.
            addBoundary(inner, extra / cols, rows);
            addBoundary(inner, extra / cols + 1, rows);
        }
    }
    return closeRuns(inner, rows);
}

FoldRuns
FoldTraffic::columnRuns(std::int64_t i) const
{
    const std::int64_t cols = foldGrid_.colFolds;
    FoldRuns inner;
    // Column 0 carries the first-column shares; the last column holds
    // the remainder tile (colsUsed).
    addBoundary(inner, 1, cols);
    addBoundary(inner, cols - 1, cols);
    for (const TensorShare *share : {&ifmap, &filter, &ofmap}) {
        const std::int64_t extra = share->split.extra;
        if (share->over == TensorShare::Over::Columns)
            addBoundary(inner, extra, cols);
        else if (share->over == TensorShare::Over::Folds)
            addBoundary(inner, extra - i * cols, cols);
    }
    return closeRuns(inner, cols);
}

} // namespace autopilot::systolic
