/**
 * @file
 * Unit tests for the util substrate: RNG determinism, statistics, matrix
 * algebra / Cholesky, and table formatting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace au = autopilot::util;

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed)
{
    au::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    au::Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a.next64() == b.next64());
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    au::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double value = rng.uniform();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    au::Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int value = rng.uniformInt(3, 8);
        EXPECT_GE(value, 3);
        EXPECT_LE(value, 8);
        saw_lo |= (value == 3);
        saw_hi |= (value == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRoughlyUnitMoments)
{
    au::Rng rng(11);
    std::vector<double> samples;
    samples.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        samples.push_back(rng.normal());
    EXPECT_NEAR(au::mean(samples), 0.0, 0.03);
    EXPECT_NEAR(au::stddev(samples), 1.0, 0.03);
}

TEST(Rng, ForkProducesIndependentStreams)
{
    au::Rng parent(13);
    au::Rng child_a = parent.fork(1);
    au::Rng child_b = parent.fork(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (child_a.next64() == child_b.next64());
    EXPECT_LT(equal, 4);
}

TEST(Rng, BernoulliMatchesProbability)
{
    au::Rng rng(17);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    au::Rng rng(19);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = values;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, values);
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanAndVariance)
{
    const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0,
                                        7.0, 9.0};
    EXPECT_DOUBLE_EQ(au::mean(values), 5.0);
    EXPECT_NEAR(au::variance(values), 32.0 / 7.0, 1e-12);
}

TEST(Stats, GeomeanOfPowers)
{
    EXPECT_NEAR(au::geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> values = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(au::percentile(values, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(au::percentile(values, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(au::percentile(values, 50.0), 25.0);
}

TEST(Stats, RunningStatsMatchesBatch)
{
    const std::vector<double> values = {1.5, -2.0, 3.25, 0.0, 9.0, -4.5};
    au::RunningStats rs;
    for (double value : values)
        rs.add(value);
    EXPECT_EQ(rs.count(), values.size());
    EXPECT_NEAR(rs.mean(), au::mean(values), 1e-12);
    EXPECT_NEAR(rs.variance(), au::variance(values), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), -4.5);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

// ------------------------------------------------------------- matrix ----

TEST(Matrix, MultiplyIdentity)
{
    au::Matrix m(2, 3, 0.0);
    m(0, 0) = 1.0; m(0, 1) = 2.0; m(0, 2) = 3.0;
    m(1, 0) = 4.0; m(1, 1) = 5.0; m(1, 2) = 6.0;
    const au::Matrix result = au::Matrix::identity(2).multiply(m);
    EXPECT_EQ(result, m);
}

TEST(Matrix, TransposeRoundTrip)
{
    au::Matrix m(2, 3, 0.0);
    m(0, 2) = 7.5;
    m(1, 0) = -2.0;
    EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, CholeskySolvesLinearSystem)
{
    // SPD matrix A = B^T B + I.
    au::Matrix b(3, 3, 0.0);
    b(0, 0) = 2.0; b(0, 1) = 1.0; b(0, 2) = 0.5;
    b(1, 0) = 0.0; b(1, 1) = 3.0; b(1, 2) = 1.0;
    b(2, 0) = 1.0; b(2, 1) = 0.0; b(2, 2) = 1.5;
    au::Matrix a = b.transposed().multiply(b).add(
        au::Matrix::identity(3));

    const std::vector<double> x_true = {1.0, -2.0, 3.0};
    std::vector<double> rhs(3, 0.0);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            rhs[i] += a(i, j) * x_true[j];

    const au::CholeskyFactor factor(a);
    const std::vector<double> x = factor.solve(rhs);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Matrix, CholeskyLogDeterminant)
{
    au::Matrix a = au::Matrix::identity(4).scaled(2.0);
    const au::CholeskyFactor factor(a, 0.0);
    EXPECT_NEAR(factor.logDeterminant(), 4.0 * std::log(2.0), 1e-9);
}

namespace
{

/** Random SPD matrix B^T B + I of size n (odd sizes exercise the
 *  leftover rows and columns of the interleaved kernels). */
au::Matrix
randomSpd(std::size_t n, std::uint64_t seed)
{
    au::Rng rng(seed);
    au::Matrix b(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.normal();
    return b.transposed().multiply(b).add(au::Matrix::identity(n));
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

} // namespace

TEST(Matrix, CholeskyMatchesRowRecurrenceBitForBit)
{
    // Oracle: the textbook row-by-row recurrence. The interleaved
    // column-order factorization must reproduce it exactly.
    for (std::size_t n : {1u, 2u, 5u, 8u, 13u, 37u}) {
        const au::Matrix a = randomSpd(n, 40 + n);
        const double jitter = 1e-9;
        au::Matrix expected(n, n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                double sum = a(i, j);
                if (i == j)
                    sum += jitter;
                for (std::size_t k = 0; k < j; ++k)
                    sum -= expected(i, k) * expected(j, k);
                expected(i, j) =
                    i == j ? std::sqrt(sum) : sum / expected(j, j);
            }
        }
        const au::CholeskyFactor factor(a, jitter);
        const au::Matrix &lower = factor.lower();
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_EQ(bits(lower(i, j)), bits(expected(i, j)))
                    << "n " << n << " (" << i << ", " << j << ")";
    }
}

TEST(Matrix, SolveLowerColumnsMatchesSingleSolvesBitForBit)
{
    // Oracle: scalar forward substitution of each column on its own.
    const std::size_t n = 23;
    const au::CholeskyFactor factor(randomSpd(n, 7));
    const au::Matrix &lower = factor.lower();
    au::Rng rng(8);
    for (std::size_t columns : {1u, 3u, 4u, 9u}) {
        std::vector<double> block(n * columns);
        for (double &value : block)
            value = rng.normal();
        std::vector<double> solved = block;
        factor.solveLowerColumns(solved, columns);
        for (std::size_t c = 0; c < columns; ++c) {
            std::vector<double> y(n, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                double sum = block[i * columns + c];
                for (std::size_t k = 0; k < i; ++k)
                    sum -= lower(i, k) * y[k];
                y[i] = sum / lower(i, i);
            }
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(bits(solved[i * columns + c]), bits(y[i]))
                    << columns << " columns, column " << c << " row " << i;
        }
    }
}

TEST(Matrix, CholeskyFactorReconstructs)
{
    au::Matrix a(2, 2, 0.0);
    a(0, 0) = 4.0; a(0, 1) = 2.0;
    a(1, 0) = 2.0; a(1, 1) = 3.0;
    const au::CholeskyFactor factor(a, 0.0);
    const au::Matrix l = factor.lower();
    const au::Matrix reconstructed = l.multiply(l.transposed());
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            EXPECT_NEAR(reconstructed(i, j), a(i, j), 1e-9);
}

// -------------------------------------------------------------- table ----

TEST(Table, PrintsAlignedColumns)
{
    au::Table table({"design", "fps"});
    table.addRow({"AP", "46.0"});
    table.addRow({"HT", "205.0"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("design"), std::string::npos);
    EXPECT_NE(text.find("205.0"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, CsvEscapesSeparators)
{
    au::Table table({"name", "note"});
    table.addRow({"a,b", "say \"hi\""});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(au::formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(au::formatRatio(2.25), "2.25x");
}
