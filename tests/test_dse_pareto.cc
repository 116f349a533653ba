/**
 * @file
 * Tests for Pareto utilities, non-dominated sorting, crowding distance and
 * exact hypervolume (2-D and 3-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dse/hypervolume.h"
#include "dse/pareto.h"
#include "util/rng.h"

namespace dse = autopilot::dse;
using dse::Objectives;

// ---------------------------------------------------------- dominance ----

TEST(Pareto, DominatesBasics)
{
    EXPECT_TRUE(dse::dominates({1.0, 1.0}, {2.0, 2.0}));
    EXPECT_TRUE(dse::dominates({1.0, 2.0}, {1.0, 3.0}));
    EXPECT_FALSE(dse::dominates({1.0, 3.0}, {2.0, 2.0}));
    EXPECT_FALSE(dse::dominates({1.0, 1.0}, {1.0, 1.0})); // Not strict.
}

TEST(Pareto, EpsilonDominance)
{
    EXPECT_TRUE(dse::epsilonDominates({1.05, 1.0}, {1.0, 1.0}, 0.1));
    EXPECT_FALSE(dse::epsilonDominates({1.2, 1.0}, {1.0, 1.0}, 0.1));
}

TEST(Pareto, FrontExtraction)
{
    const std::vector<Objectives> points = {
        {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.5}, {4.0, 1.0}, {2.5, 2.5}};
    const auto front = dse::paretoFrontIndices(points);
    // {3.0,3.5} is dominated by {2.0,3.0}; the rest are non-dominated.
    EXPECT_EQ(front.size(), 4u);
    for (std::size_t index : front)
        EXPECT_NE(index, 2u);
}

TEST(Pareto, DuplicatePointsBothKept)
{
    const std::vector<Objectives> points = {{1.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(dse::paretoFrontIndices(points).size(), 2u);
}

TEST(Pareto, NonDominatedSortLayers)
{
    const std::vector<Objectives> points = {
        {1.0, 1.0},  // front 0
        {2.0, 2.0},  // front 1 (dominated only by front 0)
        {3.0, 3.0},  // front 2
        {0.5, 3.5},  // front 0 (trade-off)
    };
    const auto fronts = dse::nonDominatedSort(points);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0].size(), 2u);
    EXPECT_EQ(fronts[1].size(), 1u);
    EXPECT_EQ(fronts[1][0], 1u);
    EXPECT_EQ(fronts[2][0], 2u);
}

TEST(Pareto, CrowdingBoundariesInfinite)
{
    const std::vector<Objectives> points = {
        {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
    const std::vector<std::size_t> front = {0, 1, 2, 3};
    const auto crowding = dse::crowdingDistance(points, front);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(crowding[0], inf);
    EXPECT_EQ(crowding[3], inf);
    EXPECT_GT(crowding[1], 0.0);
    EXPECT_LT(crowding[1], inf);
}

TEST(Pareto, CrowdingPrefersIsolatedPoints)
{
    // Middle points: one in a dense cluster, one isolated.
    const std::vector<Objectives> points = {
        {0.0, 10.0}, {1.0, 9.0}, {1.2, 8.8}, {6.0, 2.0}, {10.0, 0.0}};
    const std::vector<std::size_t> front = {0, 1, 2, 3, 4};
    const auto crowding = dse::crowdingDistance(points, front);
    EXPECT_GT(crowding[3], crowding[2]);
}

// -------------------------------------------------------- hypervolume ----

TEST(Hypervolume, SinglePoint2D)
{
    EXPECT_DOUBLE_EQ(dse::hypervolume({{1.0, 1.0}}, {3.0, 3.0}), 4.0);
}

TEST(Hypervolume, TwoPoint2DUnion)
{
    // Boxes (1,2)x(2,?) hand-computed: ref (4,4); points (1,3) and (3,1):
    // area = 3*1 + 1*(3-1)... enumerate: point A (1,3): box 3 wide, 1
    // tall = 3; point B (3,1): 1 wide, 3 tall = 3; overlap (1..4 x 3..4)
    // none: total 3 + 3 - 1 (overlap box 1x1 at [3,4]x[3,4])? Overlap of
    // [1,4]x[3,4] and [3,4]x[1,4] is [3,4]x[3,4] = 1.
    const double hv =
        dse::hypervolume({{1.0, 3.0}, {3.0, 1.0}}, {4.0, 4.0});
    EXPECT_DOUBLE_EQ(hv, 5.0);
}

TEST(Hypervolume, DominatedPointAddsNothing2D)
{
    const double base = dse::hypervolume({{1.0, 1.0}}, {4.0, 4.0});
    const double with_dominated =
        dse::hypervolume({{1.0, 1.0}, {2.0, 2.0}}, {4.0, 4.0});
    EXPECT_DOUBLE_EQ(base, with_dominated);
}

TEST(Hypervolume, PointOutsideReferenceClipped)
{
    EXPECT_DOUBLE_EQ(dse::hypervolume({{5.0, 5.0}}, {4.0, 4.0}), 0.0);
    EXPECT_DOUBLE_EQ(dse::hypervolume({}, {4.0, 4.0}), 0.0);
}

TEST(Hypervolume, SinglePoint3D)
{
    EXPECT_DOUBLE_EQ(
        dse::hypervolume({{1.0, 1.0, 1.0}}, {2.0, 3.0, 4.0}),
        1.0 * 2.0 * 3.0);
}

TEST(Hypervolume, ThreePoint3DHandComputed)
{
    // Staircase: (0,2,2), (2,0,2), (2,2,0) with ref (3,3,3).
    // By inclusion-exclusion: each box 3*1*1... compute: box A =
    // (3-0)(3-2)(3-2)=3; B=(3-2)(3-0)(3-2)=3; C=(3-2)(3-2)(3-0)=3.
    // Pairwise overlaps: A&B = (3-2)(3-2)(3-2)=1 etc. (three pairs),
    // triple overlap = 1. HV = 9 - 3 + 1 = 7.
    const double hv = dse::hypervolume(
        {{0.0, 2.0, 2.0}, {2.0, 0.0, 2.0}, {2.0, 2.0, 0.0}},
        {3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(hv, 7.0);
}

TEST(Hypervolume, MonotoneUnderAddition)
{
    autopilot::util::Rng rng(99);
    std::vector<Objectives> points;
    const Objectives reference = {1.0, 1.0, 1.0};
    double prev = 0.0;
    for (int i = 0; i < 40; ++i) {
        points.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform()});
        const double hv = dse::hypervolume(points, reference);
        EXPECT_GE(hv, prev - 1e-12);
        EXPECT_LE(hv, 1.0 + 1e-12);
        prev = hv;
    }
}

TEST(Hypervolume, ContributionOfDominatedIsZero)
{
    const dse::HypervolumeContribution gain({{1.0, 1.0, 1.0}},
                                            {3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(gain({2.0, 2.0, 2.0}), 0.0);
    EXPECT_GT(gain({0.5, 2.0, 2.0}), 0.0);
}

namespace
{

/** The from-scratch oracle the incremental contribution must replay. */
double
scratchContribution(const std::vector<Objectives> &front,
                    const Objectives &candidate,
                    const Objectives &reference)
{
    std::vector<Objectives> extended = front;
    extended.push_back(candidate);
    return std::max(0.0, dse::hypervolume(extended, reference) -
                             dse::hypervolume(front, reference));
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/**
 * One coordinate against a unit reference. Coarse draws come from a grid
 * - step 0.25 (exact sums) or 0.1 (rounded sums, so the order of the
 * sweep's operations shows in the bits) - so ties in every objective are
 * common and some coordinates sit exactly on (1.0) or beyond the
 * reference.
 */
double
drawCoordinate(autopilot::util::Rng &rng, bool coarse, double step)
{
    if (coarse) {
        const int cells = static_cast<int>(std::lround(1.25 / step));
        return step * rng.uniformInt(0, cells);
    }
    return rng.uniform(0.0, 1.1);
}

} // namespace

TEST(HypervolumeContribution, MatchesScratchOracleBitForBit)
{
    // Property: for any front and candidate, the incremental sweep
    // returns exactly max(0, hv(front + c) - hv(front)) - same bits, not
    // merely close. Fronts are raw point sets or their Pareto front,
    // drawn fine or on a coarse tie-heavy grid, with duplicates;
    // candidates include front members, grid points, points on the
    // reference boundary and points outside the box.
    autopilot::util::Rng rng(2024);
    std::size_t checks = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t dims = trial % 6 == 0 ? 1 : trial % 6 == 1 ? 2 : 3;
        const bool coarse = rng.uniform() < 0.5;
        const double step = rng.uniform() < 0.5 ? 0.25 : 0.1;
        const Objectives reference(dims, 1.0);
        std::vector<Objectives> front;
        const int size = rng.uniformInt(0, 30);
        for (int i = 0; i < size; ++i) {
            Objectives point(dims);
            for (double &component : point)
                component = drawCoordinate(rng, coarse, step);
            front.push_back(point);
            if (rng.uniform() < 0.1)
                front.push_back(point); // Duplicate.
        }
        if (rng.uniform() < 0.5)
            front = dse::paretoFront(front);

        const dse::HypervolumeContribution gain(front, reference);
        for (int c = 0; c < 16; ++c) {
            Objectives candidate(dims);
            const double kind = rng.uniform();
            if (kind < 0.2 && !front.empty()) {
                candidate = front[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(front.size()) - 1))];
            } else {
                for (double &component : candidate)
                    component =
                        drawCoordinate(rng, kind < 0.6 || coarse, step);
            }
            if (rng.uniform() < 0.1) // On the reference boundary.
                candidate[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(dims) - 1))] = 1.0;
            const double expected =
                scratchContribution(front, candidate, reference);
            ASSERT_EQ(bits(gain(candidate)), bits(expected))
                << "trial " << trial << " candidate " << c << " expected "
                << expected << " got " << gain(candidate);
            ++checks;
        }
    }
    EXPECT_EQ(checks, 3000u * 16u);
}

TEST(HypervolumeContribution, EmptyFrontAndClippedCandidates)
{
    const Objectives reference = {3.0, 3.0, 3.0};
    const dse::HypervolumeContribution empty({}, reference);
    EXPECT_DOUBLE_EQ(empty({1.0, 2.0, 0.0}), 2.0 * 1.0 * 3.0);
    EXPECT_EQ(empty({3.0, 0.0, 0.0}), 0.0); // On the boundary.
    EXPECT_EQ(empty({0.0, 4.0, 0.0}), 0.0); // Outside.

    // A front entirely outside the box contributes nothing itself.
    const dse::HypervolumeContribution outside({{4.0, 0.0, 0.0}},
                                               reference);
    EXPECT_DOUBLE_EQ(outside({2.0, 2.0, 2.0}), 1.0);
}

TEST(HypervolumeContribution, StaircaseGainMatchesHandCount)
{
    const dse::HypervolumeContribution gain(
        {{0.0, 2.0, 2.0}, {2.0, 0.0, 2.0}, {2.0, 2.0, 0.0}},
        {3.0, 3.0, 3.0});
    // (1,1,1) dominates the 2x2x2 box [1,3]^3, of which the staircase
    // already covers 2 + 2 + 2 - 1 - 1 - 1 + 1 = 4.
    EXPECT_DOUBLE_EQ(gain({1.0, 1.0, 1.0}), 4.0);
    // Above z = 2 every front point is active, covering 5 of the 3x3
    // cross-section: (0,0,2.5) adds the other 4 over a slab 0.5 thick.
    EXPECT_DOUBLE_EQ(gain({0.0, 0.0, 2.5}), 2.0);
    // Dominated by every member, or equal to one: no gain.
    EXPECT_EQ(gain({2.0, 2.0, 2.0}), 0.0);
    EXPECT_EQ(gain({2.0, 0.0, 2.0}), 0.0);
}

TEST(Hypervolume, AgreesWithMonteCarlo3D)
{
    // Property: exact 3-D hypervolume matches a Monte-Carlo estimate.
    autopilot::util::Rng rng(7);
    std::vector<Objectives> points;
    for (int i = 0; i < 12; ++i)
        points.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform()});
    const Objectives reference = {1.0, 1.0, 1.0};
    const double exact = dse::hypervolume(points, reference);

    int dominated = 0;
    const int samples = 200000;
    for (int s = 0; s < samples; ++s) {
        const double sx = rng.uniform();
        const double sy = rng.uniform();
        const double sz = rng.uniform();
        for (const Objectives &point : points) {
            if (point[0] <= sx && point[1] <= sy && point[2] <= sz) {
                ++dominated;
                break;
            }
        }
    }
    const double estimate = static_cast<double>(dominated) / samples;
    EXPECT_NEAR(exact, estimate, 0.01);
}

TEST(Hypervolume, DefaultReferenceExceedsAllPoints)
{
    const std::vector<Objectives> points = {{1.0, 5.0}, {3.0, 2.0}};
    const Objectives reference = dse::defaultReference(points);
    EXPECT_GT(reference[0], 3.0);
    EXPECT_GT(reference[1], 5.0);
    EXPECT_GT(dse::hypervolume(points, reference), 0.0);
}

TEST(HypervolumeDeath, RejectsHighDimensions)
{
    EXPECT_EXIT(dse::hypervolume({{1.0, 1.0, 1.0, 1.0}},
                                 {2.0, 2.0, 2.0, 2.0}),
                ::testing::ExitedWithCode(1), "objectives");
}
