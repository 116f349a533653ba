#include "systolic/tiling.h"

#include "util/logging.h"

namespace autopilot::systolic
{

using util::panicIf;

namespace
{

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** GEMM dimensions assigned to array rows/columns/stream per dataflow. */
struct DimAssignment
{
    std::int64_t rowDim = 0;
    std::int64_t colDim = 0;
    std::int64_t streamDim = 0;
};

DimAssignment
assignDims(const nn::GemmShape &gemm, Dataflow dataflow)
{
    switch (dataflow) {
      case Dataflow::WeightStationary:
        return {gemm.k, gemm.n, gemm.m};
      case Dataflow::OutputStationary:
        return {gemm.m, gemm.n, gemm.k};
      case Dataflow::InputStationary:
        return {gemm.k, gemm.m, gemm.n};
    }
    util::panic("assignDims: unknown dataflow");
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

std::int64_t
foldCycles(std::int64_t rows_used, std::int64_t cols_used,
           std::int64_t stream_len)
{
    panicIf(rows_used <= 0 || cols_used <= 0 || stream_len <= 0,
            "foldCycles: non-positive fold dimension");
    // Preload/fill the stationary operand (rows_used), stream the moving
    // operand (stream_len), then drain the pipeline diagonal.
    return 2 * rows_used + cols_used + stream_len - 2;
}

FoldSchedule
scheduleGemm(const nn::GemmShape &gemm, const AcceleratorConfig &config)
{
    panicIf(gemm.m <= 0 || gemm.n <= 0 || gemm.k <= 0,
            "scheduleGemm: degenerate GEMM shape");
    config.validate();

    const DimAssignment dims = assignDims(gemm, config.dataflow);
    const std::int64_t sr = config.peRows;
    const std::int64_t sc = config.peCols;

    FoldSchedule schedule;
    schedule.rowFolds = ceilDiv(dims.rowDim, sr);
    schedule.colFolds = ceilDiv(dims.colDim, sc);
    schedule.folds.reserve(
        static_cast<std::size_t>(schedule.rowFolds * schedule.colFolds));

    for (std::int64_t i = 0; i < schedule.rowFolds; ++i) {
        const std::int64_t rows_used =
            std::min(sr, dims.rowDim - i * sr);
        for (std::int64_t j = 0; j < schedule.colFolds; ++j) {
            const std::int64_t cols_used =
                std::min(sc, dims.colDim - j * sc);

            Fold fold;
            fold.rowsUsed = rows_used;
            fold.colsUsed = cols_used;
            fold.streamLen = dims.streamDim;
            fold.cycles = foldCycles(rows_used, cols_used, dims.streamDim);
            fold.macs = rows_used * cols_used * dims.streamDim;

            schedule.folds.push_back(fold);
        }
    }
    return schedule;
}

} // namespace autopilot::systolic
