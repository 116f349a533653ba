/**
 * @file
 * Test oracle: the functional, register-level systolic-array simulator.
 *
 * The performance engines (engine.h, cycle_engine.h) use closed-form fold
 * timing. This module is their ground truth: a register-transfer-level
 * simulation of the weight-stationary array that actually moves INT8
 * operands through the PE grid cycle by cycle - activations enter the
 * left edge with the classic diagonal skew, partial sums flow down the
 * columns into INT32 accumulators - and produces both the numerical GEMM
 * result and the exact cycle count.
 *
 * Property tests assert that (a) the array computes bit-exactly the same
 * product as a reference GEMM for arbitrary shapes and tilings, and
 * (b) the measured cycles match the analytic foldCycles() formula.
 * This is the evidence behind calling the fold timing "cycle-accurate".
 *
 * Used only by test_systolic_functional and bench_engine_validation;
 * nothing in src/ links it.
 */

#ifndef AUTOPILOT_TESTS_ORACLE_SYSTOLIC_FUNCTIONAL_H
#define AUTOPILOT_TESTS_ORACLE_SYSTOLIC_FUNCTIONAL_H

#include <cstdint>
#include <vector>

namespace autopilot::systolic::oracle
{

/** Row-major integer matrix for the functional simulation. */
struct IntMatrix
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::vector<std::int32_t> data;

    IntMatrix() = default;
    IntMatrix(std::int64_t r, std::int64_t c);

    std::int32_t &at(std::int64_t r, std::int64_t c);
    std::int32_t at(std::int64_t r, std::int64_t c) const;
};

/** Reference GEMM: C = A (MxK) * B (KxN) with INT32 accumulation. */
IntMatrix referenceGemm(const IntMatrix &a, const IntMatrix &b);

/** Result of a functional array execution. */
struct FunctionalResult
{
    IntMatrix output;          ///< The computed product.
    std::int64_t totalCycles = 0; ///< Preload + stream + drain cycles.
    std::int64_t foldCount = 0;   ///< Folds executed.
};

/**
 * Execute C = A * B on a rows x cols weight-stationary systolic array,
 * register-level: weights are preloaded per fold, activations stream
 * with diagonal skew, psums flow down and cross-fold partial results
 * accumulate in INT32.
 *
 * @param a        Activation matrix (M x K).
 * @param b        Weight matrix (K x N).
 * @param pe_rows  Array height (maps the K dimension).
 * @param pe_cols  Array width (maps the N dimension).
 */
FunctionalResult runWeightStationaryGemm(const IntMatrix &a,
                                         const IntMatrix &b, int pe_rows,
                                         int pe_cols);

/**
 * Execute C = A * B on an output-stationary array: each PE owns one
 * output element; activations stream from the left, weights from the
 * top, both with diagonal skew, and the accumulators drain through the
 * columns after the reduction.
 *
 * @param a        Activation matrix (M x K); M maps to array rows.
 * @param b        Weight matrix (K x N); N maps to array columns.
 * @param pe_rows  Array height (maps the M dimension).
 * @param pe_cols  Array width (maps the N dimension).
 */
FunctionalResult runOutputStationaryGemm(const IntMatrix &a,
                                         const IntMatrix &b, int pe_rows,
                                         int pe_cols);

/**
 * Execute C = A * B on an input-stationary array: the im2col'd
 * activations are pinned in the PEs (rows map K, columns map M) while
 * the weights stream through.
 *
 * Implemented through the duality IS(A, B) = WS(B^T, A^T)^T: pinning
 * the inputs and streaming the weights is the weight-stationary
 * execution of the transposed product, so the register-level behaviour
 * (and the cycle count) is exactly the WS simulation on swapped
 * operands.
 */
FunctionalResult runInputStationaryGemm(const IntMatrix &a,
                                        const IntMatrix &b, int pe_rows,
                                        int pe_cols);

/** Transposed copy. */
IntMatrix transposed(const IntMatrix &m);

} // namespace autopilot::systolic::oracle

#endif // AUTOPILOT_TESTS_ORACLE_SYSTOLIC_FUNCTIONAL_H
