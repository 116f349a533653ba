/**
 * @file
 * Cross-module property tests: monotonicity and consistency invariants
 * that must hold across the whole modelling stack, swept with
 * parameterized fixtures.
 */

#include <gtest/gtest.h>

#include "nn/e2e_template.h"
#include "power/mass_model.h"
#include "power/npu_power.h"
#include "systolic/engine.h"
#include "uav/airframe.h"
#include "uav/mission.h"
#include "uav/propulsion.h"
#include "uav/uav_spec.h"
#include "util/rng.h"

namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;
namespace pw = autopilot::power;
namespace uav = autopilot::uav;

// ---------------------------------------------------- mission physics ----

/** Per-vehicle monotonicity sweeps. */
class MissionMonotonicity : public ::testing::TestWithParam<int>
{
  protected:
    uav::UavSpec
    vehicle() const
    {
        return uav::allUavs()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(MissionMonotonicity, MissionsFallAsPayloadGrows)
{
    const uav::MissionModel model(vehicle());
    double prev = -1.0;
    for (double payload : {20.0, 30.0, 45.0, 65.0}) {
        const auto result = model.evaluate(payload, 1.0, 100.0, 60.0);
        if (!result.feasible)
            break; // Heavier payloads can only stay infeasible.
        if (prev >= 0.0) {
            EXPECT_LT(result.numMissions, prev)
                << vehicle().name << " payload " << payload;
        }
        prev = result.numMissions;
    }
}

TEST_P(MissionMonotonicity, MissionsFallAsComputePowerGrows)
{
    const uav::MissionModel model(vehicle());
    double prev = -1.0;
    for (double watts : {0.2, 1.0, 4.0, 10.0}) {
        const auto result = model.evaluate(25.0, watts, 100.0, 60.0);
        ASSERT_TRUE(result.feasible);
        if (prev >= 0.0) {
            EXPECT_LT(result.numMissions, prev);
        }
        prev = result.numMissions;
    }
}

TEST_P(MissionMonotonicity, MissionsRiseWithThroughputUpToKnee)
{
    const uav::MissionModel model(vehicle());
    const auto at_knee = model.evaluate(
        25.0, 1.0, model.evaluate(25.0, 1.0, 1e4, 60.0).kneeThroughputHz,
        60.0);
    double prev = -1.0;
    for (double frac : {0.25, 0.5, 0.75, 1.0}) {
        const auto result = model.evaluate(
            25.0, 1.0, at_knee.kneeThroughputHz * frac, 1e4);
        ASSERT_TRUE(result.feasible);
        if (prev >= 0.0) {
            EXPECT_GT(result.numMissions, prev);
        }
        prev = result.numMissions;
    }
}

TEST_P(MissionMonotonicity, FasterIsAlwaysMoreEfficientBelowCeiling)
{
    // The Eq. 4 premise: energy per meter falls with velocity across
    // the achievable range.
    const uav::UavSpec spec = vehicle();
    const uav::QuadrotorAirframe quad(spec);
    const double ceiling =
        quad.velocityCeilingMps(quad.totalMassGrams(25.0));
    double prev_epm = 1e18;
    for (double frac : {0.3, 0.5, 0.7, 0.9, 1.0}) {
        const double v = ceiling * frac;
        const double epm =
            uav::rotorPowerW(spec, spec.baseMassGrams + 25.0, v) / v;
        EXPECT_LT(epm, prev_epm) << spec.name << " v=" << v;
        prev_epm = epm;
    }
}

INSTANTIATE_TEST_SUITE_P(AllVehicles, MissionMonotonicity,
                         ::testing::Values(0, 1, 2));

// ----------------------------------------------------- compute models ----

TEST(ComputeProperties, WiderOperandsNeverFasterAndNeverCheaper)
{
    const nn::Model model = nn::buildE2EModel({5, 48});
    for (int size : {16, 64}) {
        sys::AcceleratorConfig int8;
        int8.peRows = int8.peCols = size;
        sys::AcceleratorConfig int16 = int8;
        int16.bytesPerElement = 2;

        const auto run8 = sys::AnalyticalEngine(int8).run(model);
        const auto run16 = sys::AnalyticalEngine(int16).run(model);
        EXPECT_GE(run16.totalCycles, run8.totalCycles) << size;
        EXPECT_GE(run16.traffic.totalDramBytes(),
                  run8.traffic.totalDramBytes())
            << size;
    }
}

TEST(ComputeProperties, NpuPowerMonotoneInClockForFixedWorkload)
{
    const nn::Model model = nn::buildE2EModel({5, 32});
    double prev = -1.0;
    for (double clock : {0.1, 0.2, 0.4, 0.8}) {
        sys::AcceleratorConfig config;
        config.clockGhz = clock;
        const auto run = sys::AnalyticalEngine(config).run(model);
        const double watts =
            pw::NpuPowerModel(config).averagePowerW(run);
        if (prev >= 0.0) {
            EXPECT_GT(watts, prev) << clock;
        }
        prev = watts;
    }
}

TEST(ComputeProperties, DeeperPoliciesNeverFasterOnSameHardware)
{
    sys::AcceleratorConfig config;
    const sys::AnalyticalEngine engine(config);
    std::int64_t prev = -1;
    for (int layers : {2, 4, 6, 8, 10}) {
        const auto run = engine.run(nn::buildE2EModel({layers, 48}));
        if (prev >= 0) {
            EXPECT_GE(run.totalCycles, prev) << layers;
        }
        prev = run.totalCycles;
    }
}

TEST(ComputeProperties, PayloadMonotoneInNpuPower)
{
    const pw::MassModel mass;
    double prev = -1.0;
    for (double watts : {0.1, 0.5, 1.0, 3.0, 8.0}) {
        const double payload = mass.computePayloadGrams(watts);
        EXPECT_GE(payload, prev);
        prev = payload;
    }
}

// -------------------------------------------------- end-to-end sanity ----

TEST(EndToEndProperties, KneeSelectionBeatsRandomHardwareOnAverage)
{
    // The F-1-guided sensor selection plus mission model must make
    // better-than-random use of any given accelerator: evaluating the
    // same design with the knee-matched sensor never does worse than
    // with the slower sensor.
    const uav::UavSpec nano = uav::zhangNano();
    const uav::MissionModel model(nano);
    autopilot::util::Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const double fps = rng.uniform(10.0, 200.0);
        const double watts = rng.uniform(0.2, 6.0);
        const double payload = 20.0 + watts * 5.4;
        const int sensor = model.sensorFpsAtKnee(payload);
        const auto matched =
            model.evaluate(payload, watts, fps, sensor);
        const auto slow30 = model.evaluate(payload, watts, fps, 30.0);
        EXPECT_GE(matched.numMissions + 1e-9, slow30.numMissions);
    }
}
