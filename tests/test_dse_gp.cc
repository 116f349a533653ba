/**
 * @file
 * Tests for the design-space encoding and the Gaussian-process surrogate.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dse/design_space.h"
#include "dse/gaussian_process.h"
#include "util/rng.h"

namespace dse = autopilot::dse;
using autopilot::util::Rng;

// --------------------------------------------------------- design space --

TEST(DesignSpace, CardinalityMatchesTableII)
{
    const dse::DesignSpace space;
    // 9 layers x 3 filters x 8 PE rows x 8 PE cols x 8^3 SRAM choices.
    EXPECT_EQ(space.cardinality(), 9LL * 3 * 8 * 8 * 8 * 8 * 8);
}

TEST(DesignSpace, EncodeDecodeRoundTrip)
{
    const dse::DesignSpace space;
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::DesignPoint point = space.decode(encoding);
        EXPECT_EQ(space.encode(point), encoding);
    }
}

TEST(DesignSpace, DecodeProducesLegalValues)
{
    const dse::DesignSpace space;
    Rng rng(13);
    const autopilot::nn::PolicySpace policy_space;
    const autopilot::systolic::HardwareSpace hw_space;
    for (int i = 0; i < 100; ++i) {
        const dse::DesignPoint point =
            space.decode(space.randomEncoding(rng));
        EXPECT_TRUE(policy_space.contains(point.policy));
        EXPECT_TRUE(hw_space.contains(point.accel));
        point.accel.validate();
    }
}

TEST(DesignSpace, NeighborChangesExactlyOneDimension)
{
    const dse::DesignSpace space;
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::Encoding next = space.neighbor(encoding, rng);
        int changed = 0;
        for (std::size_t d = 0; d < dse::designDims; ++d) {
            if (encoding[d] != next[d])
                ++changed;
            EXPECT_GE(next[d], 0);
            EXPECT_LT(next[d], space.dimensionSizes()[d]);
        }
        EXPECT_EQ(changed, 1);
    }
}

TEST(DesignSpace, FeaturesNormalized)
{
    const dse::DesignSpace space;
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        const auto features =
            space.features(space.randomEncoding(rng));
        EXPECT_EQ(features.size(), dse::designDims);
        for (double f : features) {
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
        }
    }
}

TEST(DesignSpace, PointNameIsStable)
{
    const dse::DesignSpace space;
    const dse::DesignPoint point = space.decode({0, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(point.name(), "e2e_l2_f32__ws_8x8_i32_f32_o32");
}

TEST(DesignSpaceDeath, DecodeRejectsOutOfRange)
{
    const dse::DesignSpace space;
    EXPECT_EXIT(space.decode({99, 0, 0, 0, 0, 0, 0}),
                ::testing::ExitedWithCode(1), "out of range");
}

// ------------------------------------------------------------------ GP ---

TEST(GaussianProcess, InterpolatesTrainingPoints)
{
    dse::GaussianProcess::Params params;
    params.noiseVariance = 1e-8;
    dse::GaussianProcess gp(params);
    const std::vector<std::vector<double>> inputs = {
        {0.0, 0.0}, {0.5, 0.5}, {1.0, 0.0}};
    const std::vector<double> targets = {1.0, -2.0, 4.0};
    gp.fit(inputs, {targets});
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto prediction = gp.predict(inputs[i]).front();
        EXPECT_NEAR(prediction.mean, targets[i], 1e-3);
        EXPECT_LT(prediction.stddev(), 0.05);
    }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData)
{
    dse::GaussianProcess gp;
    gp.fit({{0.0}, {0.1}}, {{1.0, 1.2}});
    const auto near = gp.predict({0.05}).front();
    const auto far = gp.predict({5.0}).front();
    EXPECT_GT(far.variance, near.variance);
}

TEST(GaussianProcess, RevertsToMeanFarFromData)
{
    dse::GaussianProcess gp;
    gp.fit({{0.0}, {0.2}}, {{10.0, 20.0}});
    const auto far = gp.predict({100.0}).front();
    EXPECT_NEAR(far.mean, 15.0, 1.0); // Prior mean = target mean.
}

TEST(GaussianProcess, HandlesConstantTargets)
{
    dse::GaussianProcess gp;
    gp.fit({{0.0}, {1.0}, {2.0}}, {{3.0, 3.0, 3.0}});
    EXPECT_NEAR(gp.predict({0.5}).front().mean, 3.0, 1e-6);
}

TEST(GaussianProcess, SmoothInterpolationBetweenPoints)
{
    dse::GaussianProcess::Params params;
    params.lengthScale = 0.5;
    params.noiseVariance = 1e-8;
    dse::GaussianProcess gp(params);
    gp.fit({{0.0}, {1.0}}, {{0.0, 1.0}});
    const double mid = gp.predict({0.5}).front().mean;
    EXPECT_GT(mid, 0.2);
    EXPECT_LT(mid, 0.8);
}

TEST(GaussianProcess, LearnsSmoothFunction)
{
    // Fit y = sin(2 pi x) on a grid; check prediction error off-grid.
    dse::GaussianProcess::Params params;
    params.lengthScale = 0.15;
    params.noiseVariance = 1e-6;
    dse::GaussianProcess gp(params);
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (int i = 0; i <= 20; ++i) {
        const double x = i / 20.0;
        inputs.push_back({x});
        targets.push_back(std::sin(2.0 * M_PI * x));
    }
    gp.fit(inputs, {targets});
    for (double x : {0.13, 0.37, 0.61, 0.89}) {
        EXPECT_NEAR(gp.predict({x}).front().mean, std::sin(2.0 * M_PI * x),
                    0.05)
            << x;
    }
}

TEST(GaussianProcess, VarianceNonNegative)
{
    dse::GaussianProcess gp;
    Rng rng(3);
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (int i = 0; i < 30; ++i) {
        inputs.push_back({rng.uniform(), rng.uniform()});
        targets.push_back(rng.normal());
    }
    gp.fit(inputs, {targets});
    for (int i = 0; i < 50; ++i) {
        const auto prediction =
            gp.predict({rng.uniform(), rng.uniform()}).front();
        EXPECT_GE(prediction.variance, 0.0);
    }
}

TEST(GaussianProcess, MultiOutputMatchesIndependentFitsBitForBit)
{
    // Oracle: a k-output fit shares the factor, k* and forward solve,
    // and a batch of queries shares one interleaved solve, so every
    // output at every query must predict exactly what a single-output
    // fit of that column alone predicts for that query alone.
    Rng rng(17);
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> targets(3);
    for (int i = 0; i < 40; ++i) {
        std::vector<double> x(7);
        for (double &v : x)
            v = rng.uniform();
        inputs.push_back(x);
        targets[0].push_back(rng.uniform());               // Success-like.
        targets[1].push_back(12.0 * rng.uniform());        // Watts-like.
        targets[2].push_back(5.0 + 100.0 * rng.uniform()); // ms-like.
    }
    targets.push_back(std::vector<double>(inputs.size(), 2.5)); // Constant.

    dse::GaussianProcess joint;
    joint.fit(inputs, targets);
    std::vector<dse::GaussianProcess> single(targets.size());
    for (std::size_t o = 0; o < targets.size(); ++o)
        single[o].fit(inputs, {targets[o]});

    std::vector<std::vector<double>> queries = inputs;
    for (int q = 0; q < 60; ++q) {
        std::vector<double> x(7);
        for (double &v : x)
            v = rng.uniform();
        queries.push_back(x);
    }
    const std::size_t outputs = targets.size();
    const std::vector<dse::GpPrediction> batch = joint.predict(queries);
    ASSERT_EQ(batch.size(), queries.size() * outputs);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::vector<dse::GpPrediction> one = joint.predict(queries[q]);
        ASSERT_EQ(one.size(), outputs);
        for (std::size_t o = 0; o < outputs; ++o) {
            const dse::GpPrediction alone =
                single[o].predict(queries[q]).front();
            for (const dse::GpPrediction &shared :
                 {batch[q * outputs + o], one[o]}) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.mean),
                          std::bit_cast<std::uint64_t>(alone.mean))
                    << "query " << q << " output " << o;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.variance),
                          std::bit_cast<std::uint64_t>(alone.variance))
                    << "query " << q << " output " << o;
            }
        }
    }
}

TEST(GaussianProcessDeath, PredictBeforeFit)
{
    dse::GaussianProcess gp;
    EXPECT_EXIT(gp.predict({0.0}), ::testing::ExitedWithCode(1),
                "not fitted");
}

TEST(GaussianProcessDeath, EmptyTrainingSet)
{
    dse::GaussianProcess gp;
    EXPECT_EXIT(gp.fit({}, {}), ::testing::ExitedWithCode(1), "empty");
}

TEST(GaussianProcessDeath, MismatchedTargetColumn)
{
    dse::GaussianProcess gp;
    EXPECT_EXIT(gp.fit({{0.0}, {1.0}}, {{1.0, 2.0}, {1.0}}),
                ::testing::ExitedWithCode(1), "mismatched");
}
