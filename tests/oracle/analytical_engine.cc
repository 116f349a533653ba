#include "oracle/analytical_engine.h"

#include <algorithm>

#include "systolic/tiling.h"
#include "util/logging.h"

namespace autopilot::systolic::oracle
{

using util::panicIf;

namespace
{

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Share @p index of @p total split over @p count: the first
 *  total % count shares get one byte more. */
std::int64_t
share(std::int64_t total, std::int64_t count, std::int64_t index)
{
    return total / count + (index < total % count ? 1 : 0);
}

} // namespace

std::int64_t
FoldSchedule::computeCycles() const
{
    std::int64_t total = 0;
    for (const Fold &fold : folds)
        total += fold.cycles;
    return total;
}

std::int64_t
FoldSchedule::totalMacs() const
{
    std::int64_t total = 0;
    for (const Fold &fold : folds)
        total += fold.macs;
    return total;
}

FoldSchedule
scheduleGemm(const nn::GemmShape &gemm, const AcceleratorConfig &config)
{
    panicIf(gemm.m <= 0 || gemm.n <= 0 || gemm.k <= 0,
            "oracle::scheduleGemm: degenerate GEMM shape");
    config.validate();

    std::int64_t row_dim = 0, col_dim = 0, stream_dim = 0;
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        row_dim = gemm.k; col_dim = gemm.n; stream_dim = gemm.m;
        break;
      case Dataflow::OutputStationary:
        row_dim = gemm.m; col_dim = gemm.n; stream_dim = gemm.k;
        break;
      case Dataflow::InputStationary:
        row_dim = gemm.k; col_dim = gemm.m; stream_dim = gemm.n;
        break;
    }
    const std::int64_t sr = config.peRows;
    const std::int64_t sc = config.peCols;

    FoldSchedule schedule;
    schedule.rowFolds = ceilDiv(row_dim, sr);
    schedule.colFolds = ceilDiv(col_dim, sc);
    for (std::int64_t i = 0; i < schedule.rowFolds; ++i) {
        const std::int64_t rows_used = std::min(sr, row_dim - i * sr);
        for (std::int64_t j = 0; j < schedule.colFolds; ++j) {
            Fold fold;
            fold.rowsUsed = rows_used;
            fold.colsUsed = std::min(sc, col_dim - j * sc);
            fold.streamLen = stream_dim;
            fold.cycles =
                foldCycles(fold.rowsUsed, fold.colsUsed, stream_dim);
            fold.macs = fold.rowsUsed * fold.colsUsed * stream_dim;
            schedule.folds.push_back(fold);
        }
    }
    return schedule;
}

LayerTraffic
computeTraffic(const nn::Layer &layer, const FoldSchedule &schedule,
               const AcceleratorConfig &config)
{
    const FoldTraffic folds(layer, config);
    panicIf(folds.grid().rowFolds != schedule.rowFolds ||
                folds.grid().colFolds != schedule.colFolds,
            "oracle::computeTraffic: schedule is not the layer's");
    return folds.totals();
}

std::int64_t
foldFetchBytes(const nn::Layer &layer, const FoldSchedule &schedule,
               const AcceleratorConfig &config, std::int64_t fold_index)
{
    const LayerTraffic traffic = computeTraffic(layer, schedule, config);
    const Residency residency = analyzeResidency(layer, config);
    const std::int64_t rows = schedule.rowFolds;
    const std::int64_t cols = schedule.colFolds;
    const std::int64_t folds = rows * cols;
    panicIf(fold_index < 0 || fold_index >= folds,
            "oracle::foldFetchBytes: fold index out of range");
    const std::int64_t i = fold_index / cols;
    const std::int64_t j = fold_index % cols;
    const Dataflow dataflow = config.dataflow;

    std::int64_t bytes = 0;
    // Ifmap: when resident (and not IS), only the first column pass of
    // each row fold fetches; otherwise every fold fetches its share.
    if (dataflow == Dataflow::InputStationary || !residency.ifmapResident)
        bytes += share(traffic.ifmapDramBytes, folds, fold_index);
    else if (j == 0)
        bytes += share(traffic.ifmapDramBytes, rows, i);

    // Filter: WS fetches per fold by construction; OS/IS fetch per fold
    // unless resident, in which case only the first pass fetches.
    if (dataflow == Dataflow::OutputStationary && residency.filterResident) {
        if (i == 0)
            bytes += share(traffic.filterDramBytes, cols, j);
    } else if (dataflow == Dataflow::InputStationary &&
               residency.filterResident) {
        if (j == 0)
            bytes += share(traffic.filterDramBytes, rows, i);
    } else {
        bytes += share(traffic.filterDramBytes, folds, fold_index);
    }
    return bytes;
}

std::int64_t
foldWritebackBytes(const nn::Layer &layer, const FoldSchedule &schedule,
                   const AcceleratorConfig &config, std::int64_t fold_index)
{
    const LayerTraffic traffic = computeTraffic(layer, schedule, config);
    const std::int64_t rows = schedule.rowFolds;
    const std::int64_t cols = schedule.colFolds;
    panicIf(fold_index < 0 || fold_index >= rows * cols,
            "oracle::foldWritebackBytes: fold index out of range");
    // OS finishes an output tile per fold, so every fold writes its
    // share; WS/IS finish tiles on the last row-fold pass only.
    if (config.dataflow == Dataflow::OutputStationary)
        return share(traffic.ofmapDramBytes, rows * cols, fold_index);
    if (fold_index / cols == rows - 1)
        return share(traffic.ofmapDramBytes, cols, fold_index % cols);
    return 0;
}

AnalyticalEngine::AnalyticalEngine(const AcceleratorConfig &config)
    : cfg(config)
{
    cfg.validate();
}

LayerResult
AnalyticalEngine::runLayer(const nn::Layer &layer) const
{
    const FoldSchedule schedule = scheduleGemm(layer.gemm(), cfg);

    LayerResult result;
    result.layerName = layer.name;
    result.gemm = layer.gemm();
    result.rowFolds = schedule.rowFolds;
    result.colFolds = schedule.colFolds;
    result.computeCycles = schedule.computeCycles();
    result.traffic = computeTraffic(layer, schedule, cfg);

    const std::int64_t dram_bytes = result.traffic.totalDramBytes();
    const std::int64_t dram_cycles =
        (dram_bytes + cfg.dramBytesPerCycle - 1) / cfg.dramBytesPerCycle;
    const std::int64_t first_tile =
        (foldFetchBytes(layer, schedule, cfg, 0) +
         cfg.dramBytesPerCycle - 1) /
        cfg.dramBytesPerCycle;

    result.totalCycles =
        std::max(result.computeCycles, dram_cycles) + first_tile;
    result.stallCycles = result.totalCycles - result.computeCycles;
    return result;
}

} // namespace autopilot::systolic::oracle
