/**
 * @file
 * Failure-injection and edge-case tests: degenerate hardware shapes,
 * starved memory systems, pathological environments and boundary
 * mission inputs. The library must stay well-defined (and physically
 * sensible) at the corners of its input space.
 */

#include <gtest/gtest.h>

#include "airlearning/rollout.h"
#include "core/autopilot.h"
#include "nn/e2e_template.h"
#include "power/npu_power.h"
#include "systolic/cycle_engine.h"
#include "uav/mission.h"
#include "uav/propulsion.h"

namespace sys = autopilot::systolic;
namespace nn = autopilot::nn;
namespace al = autopilot::airlearning;
namespace uav = autopilot::uav;
namespace pw = autopilot::power;

// ------------------------------------------------ degenerate hardware ----

TEST(FailureInjection, ExtremeAspectRatioArraysStillCorrect)
{
    const nn::Model model = nn::buildE2EModel({5, 32});
    for (const auto &[rows, cols] : {std::pair{8, 1024},
                                     std::pair{1024, 8}}) {
        sys::AcceleratorConfig config;
        config.peRows = rows;
        config.peCols = cols;
        config.ifmapSramKb = 64;
        config.filterSramKb = 64;
        config.ofmapSramKb = 64;
        const sys::CycleEngine engine(config);
        const sys::RunResult run = engine.run(model);
        EXPECT_EQ(run.totalMacs, model.totalMacs())
            << rows << "x" << cols;
        EXPECT_GT(run.framesPerSecond(config.clockGhz), 0.0);
        // Utilization of such skewed arrays must be terrible but legal.
        EXPECT_LE(run.peUtilization(config.peCount()), 1.0);
    }
}

TEST(FailureInjection, OneByteDramBusIsPureStall)
{
    sys::AcceleratorConfig config;
    config.peRows = 64;
    config.peCols = 64;
    config.dramBytesPerCycle = 1;
    const sys::CycleEngine engine(config);
    const auto result =
        engine.runLayer(nn::dense("fc", 12288, 2048));
    EXPECT_GT(result.stallCycles, 10 * result.computeCycles);
    // Power must remain finite and DRAM-dominated-but-sane.
    const pw::NpuPowerModel npu(config);
    sys::RunResult run;
    run.layers.push_back(result);
    run.totalCycles = result.totalCycles;
    run.computeCycles = result.computeCycles;
    run.stallCycles = result.stallCycles;
    run.totalMacs = result.gemm.macs();
    run.traffic = result.traffic;
    const double watts = npu.averagePowerW(run);
    EXPECT_GT(watts, 0.0);
    EXPECT_LT(watts, 50.0);
}

TEST(FailureInjection, MinimalSramEverywhereStillConserves)
{
    sys::AcceleratorConfig config;
    config.peRows = 8;
    config.peCols = 8;
    config.ifmapSramKb = 32;
    config.filterSramKb = 32;
    config.ofmapSramKb = 32;
    const nn::Layer conv = nn::conv2d("c", 128, 128, 48, 3, 1, 96);
    const sys::FoldTraffic folds(conv, config);
    std::int64_t shares = 0;
    for (std::int64_t i = 0; i < folds.grid().rowFolds; ++i) {
        for (std::int64_t j = 0; j < folds.grid().colFolds; ++j) {
            shares += folds.fetchBytes(i, j);
            shares += folds.writebackBytes(i, j);
        }
    }
    EXPECT_EQ(shares, folds.totals().totalDramBytes());
}

// --------------------------------------------- pathological missions -----

TEST(FailureInjection, ZeroThroughputComputeMeansZeroMissions)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto result = model.evaluate(24.0, 0.8, 0.0, 60.0);
    EXPECT_FALSE(result.feasible);
    EXPECT_DOUBLE_EQ(result.numMissions, 0.0);
}

TEST(FailureInjection, ExactHoverLimitIsInfeasible)
{
    const uav::UavSpec nano = uav::zhangNano();
    // Mass where thrust exactly equals weight.
    const double limit_g =
        nano.maxThrustNewtons / uav::gravity * 1000.0;
    const uav::MissionModel model(nano);
    const auto result =
        model.evaluate(limit_g - nano.baseMassGrams, 0.5, 60.0, 60.0);
    EXPECT_FALSE(result.feasible);
}

TEST(FailureInjection, TinyBatteryStillPositiveMissions)
{
    uav::UavSpec nano = uav::zhangNano();
    nano.batteryMah = 1.0;
    const uav::MissionModel model(nano);
    const auto result = model.evaluate(24.0, 0.8, 60.0, 60.0);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.numMissions, 0.0);
    EXPECT_LT(result.numMissions, 1.0); // Cannot finish one mission.
}

// --------------------------------------------- pathological episodes -----

TEST(FailureInjection, BlindPolicyMostlyCollides)
{
    al::PolicyCapability blind;
    blind.quality = 0.0;
    blind.perceptionRangeM = 0.0;
    blind.detectionProb = 0.0;
    blind.headingNoiseRad = 0.0;
    const auto result = al::evaluatePolicy(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Dense),
        blind, 200, 3);
    EXPECT_GT(result.collisions, result.successes);
}

TEST(FailureInjection, SingleStepBudgetTimesOut)
{
    al::Environment env;
    env.arenaSize = 30.0;
    env.start = {2.0, 2.0};
    env.goal = {25.0, 25.0};
    al::RolloutConfig config;
    config.maxSteps = 1;
    autopilot::util::Rng rng(1);
    const auto result = al::runEpisode(
        env, al::PolicyCapability::fromQuality(0.9), config, rng);
    EXPECT_EQ(result.outcome, al::EpisodeOutcome::Timeout);
    EXPECT_EQ(result.steps, 1);
}

TEST(FailureInjection, GoalAtStartSucceedsImmediately)
{
    al::Environment env;
    env.arenaSize = 30.0;
    env.start = {5.0, 5.0};
    env.goal = {5.3, 5.0}; // Within goal tolerance.
    autopilot::util::Rng rng(1);
    const auto result = al::runEpisode(
        env, al::PolicyCapability::fromQuality(0.5),
        al::RolloutConfig(), rng);
    EXPECT_EQ(result.outcome, al::EpisodeOutcome::Success);
    EXPECT_LE(result.steps, 3);
}

// ---------------------------------------------------- tiny DSE budgets ---

TEST(FailureInjection, MinimalDseBudgetStillSelects)
{
    autopilot::core::TaskSpec task;
    task.density = al::ObstacleDensity::Low;
    task.validationEpisodes = 20;
    task.dseBudget = 3;
    autopilot::core::AutoPilot pilot(task);
    const auto run = pilot.designFor(uav::zhangNano());
    EXPECT_FALSE(run.candidates.empty());
    EXPECT_LE(run.dseResult.archive.size(), 3u);
}
