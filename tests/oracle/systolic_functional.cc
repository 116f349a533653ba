#include "oracle/systolic_functional.h"

#include <algorithm>

#include "util/logging.h"

namespace autopilot::systolic::oracle
{

using util::fatalIf;
using util::panicIf;

IntMatrix::IntMatrix(std::int64_t r, std::int64_t c)
    : rows(r), cols(c),
      data(static_cast<std::size_t>(r) * static_cast<std::size_t>(c), 0)
{
    fatalIf(r <= 0 || c <= 0, "IntMatrix: dimensions must be positive");
}

std::int32_t &
IntMatrix::at(std::int64_t r, std::int64_t c)
{
    panicIf(r < 0 || r >= rows || c < 0 || c >= cols,
            "IntMatrix::at: out of range");
    return data[static_cast<std::size_t>(r) * cols + c];
}

std::int32_t
IntMatrix::at(std::int64_t r, std::int64_t c) const
{
    panicIf(r < 0 || r >= rows || c < 0 || c >= cols,
            "IntMatrix::at: out of range");
    return data[static_cast<std::size_t>(r) * cols + c];
}

IntMatrix
referenceGemm(const IntMatrix &a, const IntMatrix &b)
{
    fatalIf(a.cols != b.rows, "referenceGemm: shape mismatch");
    IntMatrix c(a.rows, b.cols);
    for (std::int64_t m = 0; m < a.rows; ++m) {
        for (std::int64_t k = 0; k < a.cols; ++k) {
            const std::int32_t lhs = a.at(m, k);
            if (lhs == 0)
                continue;
            for (std::int64_t n = 0; n < b.cols; ++n)
                c.at(m, n) += lhs * b.at(k, n);
        }
    }
    return c;
}

namespace
{

/**
 * One fold on the physical array: weights for (k0..k0+rows_used) x
 * (n0..n0+cols_used) pinned; all M activation rows streamed with the
 * classic diagonal skew; outputs accumulated into @p out.
 *
 * Returns the cycle count of this fold (preload + skewed stream +
 * drain), measured by the simulation itself.
 */
std::int64_t
simulateFold(const IntMatrix &a, const IntMatrix &b, IntMatrix &out,
             std::int64_t k0, std::int64_t rows_used, std::int64_t n0,
             std::int64_t cols_used)
{
    const std::int64_t m_total = a.rows;

    // Register state: activations move right, psums move down. One grid
    // slot per PE plus the value leaving the bottom edge.
    std::vector<std::vector<std::int32_t>> act(
        rows_used, std::vector<std::int32_t>(cols_used, 0));
    std::vector<std::vector<std::int32_t>> psum(
        rows_used, std::vector<std::int32_t>(cols_used, 0));

    // Weight preload: one row per cycle (counted, not simulated - the
    // weights bus is independent of the act/psum registers).
    std::int64_t cycles = rows_used;

    // Streaming phase: activation a[m][k0 + r] enters row r at cycle
    // t = m + r. The last useful cycle at the bottom-right PE is
    // (m_total - 1) + (rows_used - 1) + (cols_used - 1); one more cycle
    // moves the final psum out of the array.
    const std::int64_t last_cycle =
        (m_total - 1) + (rows_used - 1) + (cols_used - 1);

    for (std::int64_t t = 0; t <= last_cycle; ++t) {
        // Evaluate top-to-bottom, right-to-left so each PE reads its
        // neighbours' *previous-cycle* registers.
        for (std::int64_t r = rows_used - 1; r >= 0; --r) {
            for (std::int64_t c = cols_used - 1; c >= 0; --c) {
                // Activation arriving from the left neighbour (or the
                // edge feeder for column 0).
                std::int32_t act_in = 0;
                if (c == 0) {
                    const std::int64_t m = t - r;
                    if (m >= 0 && m < m_total)
                        act_in = a.at(m, k0 + r);
                } else {
                    act_in = act[r][c - 1];
                }
                const std::int32_t psum_in =
                    (r == 0) ? 0 : psum[r - 1][c];
                const std::int32_t weight = b.at(k0 + r, n0 + c);

                // The bottom row's new psum leaves the array: commit it
                // to the output accumulator for the m it belongs to.
                const std::int32_t produced =
                    psum_in + weight * act_in;
                if (r == rows_used - 1) {
                    const std::int64_t m = t - r - c;
                    if (m >= 0 && m < m_total)
                        out.at(m, n0 + c) += produced;
                }
                // Registers latch for the next cycle. Because we sweep
                // bottom-right to top-left, act[r][c-1] and psum[r-1][c]
                // still hold the previous cycle's values when read...
                // (writes below only touch [r][c], which later-visited
                // PEs - smaller r/c - never read this cycle).
                psum[r][c] = produced;
                act[r][c] = act_in;
            }
        }
        ++cycles;
    }

    // One drain cycle for the last bottom-edge psum to clear the output
    // bus (matches the analytic fold formula's trailing term).
    return cycles;
}

/**
 * One output-stationary fold: PEs own C[m0.., n0..]; A rows stream from
 * the left and B columns from the top, both skewed; the local INT32
 * accumulators drain down the columns afterwards (rows_used cycles).
 */
std::int64_t
simulateOsFold(const IntMatrix &a, const IntMatrix &b, IntMatrix &out,
               std::int64_t m0, std::int64_t rows_used, std::int64_t n0,
               std::int64_t cols_used)
{
    const std::int64_t k_total = a.cols;

    std::vector<std::vector<std::int32_t>> a_reg(
        rows_used, std::vector<std::int32_t>(cols_used, 0));
    std::vector<std::vector<std::int32_t>> b_reg(
        rows_used, std::vector<std::int32_t>(cols_used, 0));
    std::vector<std::vector<std::int32_t>> acc(
        rows_used, std::vector<std::int32_t>(cols_used, 0));

    // a[m0+r][k] enters row r at cycle k + r; b[k][n0+c] enters column c
    // at cycle k + c; they meet at PE(r, c) at cycle k + r + c.
    const std::int64_t last_cycle =
        (k_total - 1) + (rows_used - 1) + (cols_used - 1);

    for (std::int64_t t = 0; t <= last_cycle; ++t) {
        for (std::int64_t r = rows_used - 1; r >= 0; --r) {
            for (std::int64_t c = cols_used - 1; c >= 0; --c) {
                std::int32_t a_in = 0;
                if (c == 0) {
                    const std::int64_t k = t - r;
                    if (k >= 0 && k < k_total)
                        a_in = a.at(m0 + r, k);
                } else {
                    a_in = a_reg[r][c - 1];
                }
                std::int32_t b_in = 0;
                if (r == 0) {
                    const std::int64_t k = t - c;
                    if (k >= 0 && k < k_total)
                        b_in = b.at(k, n0 + c);
                } else {
                    b_in = b_reg[r - 1][c];
                }
                acc[r][c] += a_in * b_in;
                a_reg[r][c] = a_in;
                b_reg[r][c] = b_in;
            }
        }
    }

    for (std::int64_t r = 0; r < rows_used; ++r)
        for (std::int64_t c = 0; c < cols_used; ++c)
            out.at(m0 + r, n0 + c) += acc[r][c];

    // Streamed cycles plus the column drain of the accumulators.
    return (last_cycle + 1) + rows_used;
}

} // namespace

FunctionalResult
runWeightStationaryGemm(const IntMatrix &a, const IntMatrix &b,
                        int pe_rows, int pe_cols)
{
    fatalIf(a.cols != b.rows,
            "runWeightStationaryGemm: shape mismatch");
    fatalIf(pe_rows <= 0 || pe_cols <= 0,
            "runWeightStationaryGemm: array dims must be positive");

    FunctionalResult result;
    result.output = IntMatrix(a.rows, b.cols);

    for (std::int64_t k0 = 0; k0 < b.rows; k0 += pe_rows) {
        const std::int64_t rows_used =
            std::min<std::int64_t>(pe_rows, b.rows - k0);
        for (std::int64_t n0 = 0; n0 < b.cols; n0 += pe_cols) {
            const std::int64_t cols_used =
                std::min<std::int64_t>(pe_cols, b.cols - n0);
            result.totalCycles += simulateFold(
                a, b, result.output, k0, rows_used, n0, cols_used);
            ++result.foldCount;
        }
    }
    return result;
}

FunctionalResult
runOutputStationaryGemm(const IntMatrix &a, const IntMatrix &b,
                        int pe_rows, int pe_cols)
{
    fatalIf(a.cols != b.rows,
            "runOutputStationaryGemm: shape mismatch");
    fatalIf(pe_rows <= 0 || pe_cols <= 0,
            "runOutputStationaryGemm: array dims must be positive");

    FunctionalResult result;
    result.output = IntMatrix(a.rows, b.cols);

    for (std::int64_t m0 = 0; m0 < a.rows; m0 += pe_rows) {
        const std::int64_t rows_used =
            std::min<std::int64_t>(pe_rows, a.rows - m0);
        for (std::int64_t n0 = 0; n0 < b.cols; n0 += pe_cols) {
            const std::int64_t cols_used =
                std::min<std::int64_t>(pe_cols, b.cols - n0);
            result.totalCycles += simulateOsFold(
                a, b, result.output, m0, rows_used, n0, cols_used);
            ++result.foldCount;
        }
    }
    return result;
}

IntMatrix
transposed(const IntMatrix &m)
{
    IntMatrix out(m.cols, m.rows);
    for (std::int64_t r = 0; r < m.rows; ++r)
        for (std::int64_t c = 0; c < m.cols; ++c)
            out.at(c, r) = m.at(r, c);
    return out;
}

FunctionalResult
runInputStationaryGemm(const IntMatrix &a, const IntMatrix &b,
                       int pe_rows, int pe_cols)
{
    fatalIf(a.cols != b.rows,
            "runInputStationaryGemm: shape mismatch");
    // IS pins A^T (K x M) in the array and streams B's N columns:
    // exactly WS on (B^T, A^T), transposed back.
    FunctionalResult swapped = runWeightStationaryGemm(
        transposed(b), transposed(a), pe_rows, pe_cols);
    FunctionalResult result;
    result.output = transposed(swapped.output);
    result.totalCycles = swapped.totalCycles;
    result.foldCount = swapped.foldCount;
    return result;
}

} // namespace autopilot::systolic::oracle
