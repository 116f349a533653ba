/**
 * @file
 * Dense row-major matrix with the linear-algebra kernels needed by the
 * Gaussian-process surrogate: multiply, transpose, Cholesky factorization
 * and triangular solves.
 *
 * This is deliberately a small, self-contained implementation rather than a
 * dependency on a BLAS: the GP training sets in AutoPilot's Phase 2 are a
 * few hundred points at most, where a naive O(n^3) Cholesky is instant.
 */

#ifndef AUTOPILOT_UTIL_MATRIX_H
#define AUTOPILOT_UTIL_MATRIX_H

#include <cstddef>
#include <vector>

namespace autopilot::util
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** n x n identity matrix. */
    static Matrix identity(std::size_t n);

    /** Column vector from values. */
    static Matrix columnVector(const std::vector<double> &values);

    std::size_t rows() const { return numRows; }
    std::size_t cols() const { return numCols; }

    /** Element access. @pre indices in range (checked via panic). */
    double &at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    /** Unchecked element access for hot loops. */
    double &operator()(std::size_t r, std::size_t c)
    {
        return data[r * numCols + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data[r * numCols + c];
    }

    /** Matrix product this * other. @pre cols() == other.rows(). */
    Matrix multiply(const Matrix &other) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Elementwise sum. @pre same shape. */
    Matrix add(const Matrix &other) const;

    /** Scaled copy. */
    Matrix scaled(double factor) const;

    /** True when shapes and all elements match exactly. */
    bool operator==(const Matrix &other) const;

  private:
    std::size_t numRows = 0;
    std::size_t numCols = 0;
    std::vector<double> data;
};

/**
 * Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
 *
 * Factorizes A = L L^T once and then answers solves against the factor.
 * Construction fails via fatal() when A is not positive definite even after
 * the caller-supplied jitter is added to the diagonal.
 */
class CholeskyFactor
{
  public:
    /**
     * Factorize @p a (must be square and symmetric).
     *
     * @param a      Matrix to factorize.
     * @param jitter Value added to the diagonal for numerical stability.
     */
    explicit CholeskyFactor(const Matrix &a, double jitter = 1e-10);

    /** The lower-triangular factor L. */
    const Matrix &lower() const { return factor; }

    /** Solve A x = b via forward/back substitution. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /** Solve L y = b (forward substitution only). */
    std::vector<double> solveLower(const std::vector<double> &b) const;

    /**
     * Solve L Y = B in place for @p columns right-hand sides at once, B
     * stored row-major (b[i * columns + j]). Column j undergoes exactly
     * the operations of solveLower() on that column alone, so results
     * are bit-identical; interleaving the columns only lets independent
     * substitutions overlap.
     */
    void solveLowerColumns(std::vector<double> &b,
                           std::size_t columns) const;

    /** log(det(A)) = 2 * sum(log(L_ii)), useful for GP likelihoods. */
    double logDeterminant() const;

  private:
    Matrix factor;
};

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_MATRIX_H
