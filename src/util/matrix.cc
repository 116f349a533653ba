#include "util/matrix.h"

#include <cmath>

#include "util/logging.h"

namespace autopilot::util
{

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : numRows(rows), numCols(cols), data(rows * cols, fill)
{
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::columnVector(const std::vector<double> &values)
{
    Matrix m(values.size(), 1, 0.0);
    for (std::size_t i = 0; i < values.size(); ++i)
        m(i, 0) = values[i];
    return m;
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    panicIf(r >= numRows || c >= numCols, "Matrix::at: index out of range");
    return data[r * numCols + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    panicIf(r >= numRows || c >= numCols, "Matrix::at: index out of range");
    return data[r * numCols + c];
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    panicIf(numCols != other.numRows, "Matrix::multiply: shape mismatch");
    Matrix out(numRows, other.numCols, 0.0);
    for (std::size_t i = 0; i < numRows; ++i) {
        for (std::size_t k = 0; k < numCols; ++k) {
            const double lhs = (*this)(i, k);
            if (lhs == 0.0)
                continue;
            for (std::size_t j = 0; j < other.numCols; ++j)
                out(i, j) += lhs * other(k, j);
        }
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(numCols, numRows, 0.0);
    for (std::size_t i = 0; i < numRows; ++i)
        for (std::size_t j = 0; j < numCols; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::add(const Matrix &other) const
{
    panicIf(numRows != other.numRows || numCols != other.numCols,
            "Matrix::add: shape mismatch");
    Matrix out(numRows, numCols, 0.0);
    for (std::size_t i = 0; i < data.size(); ++i)
        out.data[i] = data[i] + other.data[i];
    return out;
}

Matrix
Matrix::scaled(double factor) const
{
    Matrix out = *this;
    for (double &v : out.data)
        v *= factor;
    return out;
}

bool
Matrix::operator==(const Matrix &other) const
{
    return numRows == other.numRows && numCols == other.numCols &&
           data == other.data;
}

namespace
{

/**
 * Entries (first + w, j), w < W, of the factor below a finished
 * diagonal: a(i, j) minus L(i, k) L(j, k) for k = 0..j-1 in order, over
 * L(j, j). The W rows are independent, so their sums run interleaved.
 */
template <std::size_t W>
void
eliminateRows(const Matrix &a, Matrix &lower, std::size_t j,
              std::size_t first)
{
    double sum[W];
    for (std::size_t w = 0; w < W; ++w)
        sum[w] = a(first + w, j);
    for (std::size_t k = 0; k < j; ++k) {
        const double ljk = lower(j, k);
        for (std::size_t w = 0; w < W; ++w)
            sum[w] -= lower(first + w, k) * ljk;
    }
    for (std::size_t w = 0; w < W; ++w)
        lower(first + w, j) = sum[w] / lower(j, j);
}

/**
 * Forward substitution of columns [first, first + W) of the row-major
 * right-hand sides @p b, the W running sums held in registers. Each
 * column's sum starts at b(i) and subtracts L(i, k) y(k) for k = 0..i-1
 * in order, then divides by L(i, i) - the scalar recurrence.
 */
template <std::size_t W>
void
forwardSubstitute(const Matrix &lower, double *b, std::size_t columns,
                  std::size_t first)
{
    const std::size_t n = lower.rows();
    for (std::size_t i = 0; i < n; ++i) {
        double sum[W];
        for (std::size_t j = 0; j < W; ++j)
            sum[j] = b[i * columns + first + j];
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = lower(i, k);
            const double *solved = b + k * columns + first;
            for (std::size_t j = 0; j < W; ++j)
                sum[j] -= lik * solved[j];
        }
        const double diagonal = lower(i, i);
        for (std::size_t j = 0; j < W; ++j)
            b[i * columns + first + j] = sum[j] / diagonal;
    }
}

} // namespace

CholeskyFactor::CholeskyFactor(const Matrix &a, double jitter)
    : factor(a.rows(), a.cols(), 0.0)
{
    panicIf(a.rows() != a.cols(), "CholeskyFactor: matrix not square");
    const std::size_t n = a.rows();
    // Column by column (Cholesky-Crout): each entry is the textbook
    // recurrence over k < j in ascending order, so the factor is the
    // same bit for bit in any evaluation order; going by columns makes
    // the rows below a diagonal independent, four at a time.
    for (std::size_t j = 0; j < n; ++j) {
        double sum = a(j, j) + jitter;
        for (std::size_t k = 0; k < j; ++k)
            sum -= factor(j, k) * factor(j, k);
        fatalIf(sum <= 0.0, "CholeskyFactor: matrix not positive definite");
        factor(j, j) = std::sqrt(sum);
        std::size_t i = j + 1;
        for (; i + 4 <= n; i += 4)
            eliminateRows<4>(a, factor, j, i);
        for (; i < n; ++i)
            eliminateRows<1>(a, factor, j, i);
    }
}

std::vector<double>
CholeskyFactor::solveLower(const std::vector<double> &b) const
{
    panicIf(b.size() != factor.rows(),
            "CholeskyFactor::solveLower: size mismatch");
    std::vector<double> y = b;
    solveLowerColumns(y, 1);
    return y;
}

void
CholeskyFactor::solveLowerColumns(std::vector<double> &b,
                                  std::size_t columns) const
{
    const std::size_t n = factor.rows();
    panicIf(columns == 0 || b.size() != n * columns,
            "CholeskyFactor::solveLowerColumns: size mismatch");
    // Four interleaved columns keep four independent recurrences in
    // flight; leftover columns run one at a time.
    constexpr std::size_t width = 4;
    std::size_t first = 0;
    for (; first + width <= columns; first += width)
        forwardSubstitute<width>(factor, b.data(), columns, first);
    for (; first < columns; ++first)
        forwardSubstitute<1>(factor, b.data(), columns, first);
}

std::vector<double>
CholeskyFactor::solve(const std::vector<double> &b) const
{
    const std::size_t n = factor.rows();
    std::vector<double> y = solveLower(b);
    // Back substitution against L^T.
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            sum -= factor(k, ii) * x[k];
        x[ii] = sum / factor(ii, ii);
    }
    return x;
}

double
CholeskyFactor::logDeterminant() const
{
    double log_det = 0.0;
    for (std::size_t i = 0; i < factor.rows(); ++i)
        log_det += std::log(factor(i, i));
    return 2.0 * log_det;
}

} // namespace autopilot::util
