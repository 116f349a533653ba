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

} // namespace

FoldGrid
foldGrid(const nn::GemmShape &gemm, const AcceleratorConfig &config)
{
    panicIf(gemm.m <= 0 || gemm.n <= 0 || gemm.k <= 0,
            "foldGrid: degenerate GEMM shape");
    config.validate();

    // GEMM dimensions assigned to array rows/columns/stream per dataflow.
    FoldGrid grid;
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        grid.rowDim = gemm.k;
        grid.colDim = gemm.n;
        grid.streamDim = gemm.m;
        break;
      case Dataflow::OutputStationary:
        grid.rowDim = gemm.m;
        grid.colDim = gemm.n;
        grid.streamDim = gemm.k;
        break;
      case Dataflow::InputStationary:
        grid.rowDim = gemm.k;
        grid.colDim = gemm.m;
        grid.streamDim = gemm.n;
        break;
      default:
        util::panic("foldGrid: unknown dataflow");
    }
    grid.peRows = config.peRows;
    grid.peCols = config.peCols;
    grid.rowFolds = ceilDiv(grid.rowDim, grid.peRows);
    grid.colFolds = ceilDiv(grid.colDim, grid.peCols);
    return grid;
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

} // namespace autopilot::systolic
