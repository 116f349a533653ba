/**
 * @file
 * Tests for the UAV physics substrate: propulsion, the F-1 model and the
 * mission model, including the paper's calibrated knee points (46 Hz for
 * the nano-UAV, 27 Hz for the DJI Spark).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "uav/airframe.h"
#include "uav/mission.h"
#include "uav/propulsion.h"
#include "uav/uav_spec.h"

namespace uav = autopilot::uav;

// --------------------------------------------------------------- spec ----

TEST(UavSpec, TableIVBasics)
{
    const uav::UavSpec mini = uav::ascTecPelican();
    const uav::UavSpec micro = uav::djiSpark();
    const uav::UavSpec nano = uav::zhangNano();
    EXPECT_EQ(mini.uavClass, uav::UavClass::Mini);
    EXPECT_EQ(micro.uavClass, uav::UavClass::Micro);
    EXPECT_EQ(nano.uavClass, uav::UavClass::Nano);
    EXPECT_DOUBLE_EQ(mini.batteryMah, 6250.0);
    EXPECT_DOUBLE_EQ(micro.batteryMah, 1480.0);
    EXPECT_DOUBLE_EQ(nano.batteryMah, 500.0);
    EXPECT_DOUBLE_EQ(mini.baseMassGrams, 1650.0);
    EXPECT_DOUBLE_EQ(micro.baseMassGrams, 300.0);
    EXPECT_DOUBLE_EQ(nano.baseMassGrams, 50.0);
}

TEST(UavSpec, BatteryEnergyConversion)
{
    const uav::UavSpec nano = uav::zhangNano();
    // 500 mAh * 7.4 V = 3.7 Wh = 13320 J, derated by the usable
    // fraction.
    EXPECT_NEAR(nano.batteryEnergyJ(),
                13320.0 * nano.usableBatteryFraction, 1e-6);
    EXPECT_GT(nano.usableBatteryFraction, 0.5);
    EXPECT_LE(nano.usableBatteryFraction, 1.0);
}

TEST(UavSpec, AllUavsValidate)
{
    for (const uav::UavSpec &spec : uav::allUavs())
        spec.validate(); // Must not exit.
    SUCCEED();
}

TEST(UavSpec, ClassNames)
{
    EXPECT_EQ(uav::uavClassName(uav::UavClass::Mini), "mini");
    EXPECT_EQ(uav::uavClassName(uav::UavClass::Micro), "micro");
    EXPECT_EQ(uav::uavClassName(uav::UavClass::Nano), "nano");
}

// --------------------------------------------------------- propulsion ----

TEST(Propulsion, AccelerationFallsWithMass)
{
    const uav::UavSpec nano = uav::zhangNano();
    const double light = uav::maxAccelerationMps2(nano, 60.0);
    const double heavy = uav::maxAccelerationMps2(nano, 120.0);
    EXPECT_GT(light, heavy);
    EXPECT_GT(heavy, 0.0);
}

TEST(Propulsion, CannotHoverBeyondThrust)
{
    const uav::UavSpec nano = uav::zhangNano();
    // 1.58 N of thrust supports at most ~161 g.
    EXPECT_TRUE(uav::canHover(nano, 120.0));
    EXPECT_FALSE(uav::canHover(nano, 200.0));
    EXPECT_DOUBLE_EQ(uav::maxAccelerationMps2(nano, 200.0), 0.0);
}

TEST(Propulsion, ThrustToWeightFormula)
{
    const uav::UavSpec nano = uav::zhangNano();
    const double mass_g = 74.0;
    const double weight = mass_g * 1e-3 * uav::gravity;
    const double tw = nano.maxThrustNewtons / weight;
    const double expected = uav::gravity * std::sqrt(tw * tw - 1.0);
    EXPECT_NEAR(uav::maxAccelerationMps2(nano, mass_g), expected, 1e-9);
}

TEST(Propulsion, InducedVelocityFallsWithSpeed)
{
    const uav::UavSpec spark = uav::djiSpark();
    const double vh = uav::hoverInducedVelocityMps(spark, 330.0);
    const double vi_hover = uav::inducedVelocityMps(spark, 330.0, 0.0);
    const double vi_fast = uav::inducedVelocityMps(spark, 330.0, 10.0);
    EXPECT_NEAR(vi_hover, vh, 1e-6);
    EXPECT_LT(vi_fast, vi_hover);
}

TEST(Propulsion, InducedVelocitySatisfiesMomentumRelation)
{
    const uav::UavSpec nano = uav::zhangNano();
    const double mass = 74.0;
    const double v = 6.0;
    const double vh = uav::hoverInducedVelocityMps(nano, mass);
    const double vi = uav::inducedVelocityMps(nano, mass, v);
    // v_i = v_h^2 / sqrt(v^2 + v_i^2).
    EXPECT_NEAR(vi, vh * vh / std::sqrt(v * v + vi * vi), 1e-6);
}

TEST(Propulsion, FlyingFasterIsMoreEnergyEfficientPerMeter)
{
    // The heart of the paper's Eq. 4 argument: induced power falls with
    // speed, so J/m improves as the UAV flies faster (until drag bites).
    const uav::UavSpec nano = uav::zhangNano();
    const double mass = 74.0;
    const double slow = uav::rotorPowerW(nano, mass, 3.0) / 3.0;
    const double fast = uav::rotorPowerW(nano, mass, 10.0) / 10.0;
    EXPECT_LT(fast, slow);
}

TEST(Propulsion, HeavierVehicleBurnsMorePower)
{
    const uav::UavSpec mini = uav::ascTecPelican();
    EXPECT_GT(uav::rotorPowerW(mini, 1800.0, 8.0),
              uav::rotorPowerW(mini, 1700.0, 8.0));
}

TEST(Propulsion, HoverPowerPlausibleForSpark)
{
    // Real DJI Spark averages ~60 W in flight (16.87 Wh / ~16 min).
    const uav::UavSpec spark = uav::djiSpark();
    const double hover = uav::rotorPowerW(spark, 330.0, 0.0);
    EXPECT_GT(hover, 20.0);
    EXPECT_LT(hover, 90.0);
}

// ----------------------------------------------------------- F1 model ----
// The F1Model suites name the paper's F-1 model; QuadrotorAirframe is its
// one implementation.

TEST(F1Model, PaperKneePoints)
{
    // Section V-C: ~46 Hz for the nano-UAV, ~27 Hz for the DJI Spark at
    // AutoPilot-class compute payloads.
    const uav::QuadrotorAirframe nano(uav::zhangNano());
    const uav::QuadrotorAirframe spark(uav::djiSpark());
    EXPECT_NEAR(nano.kneeThroughputHz(nano.totalMassGrams(23.8)), 46.0,
                2.0);
    EXPECT_NEAR(spark.kneeThroughputHz(spark.totalMassGrams(28.2)), 27.0,
                2.0);
}

TEST(F1Model, RooflineShape)
{
    const uav::QuadrotorAirframe quad(uav::zhangNano());
    const double mass = quad.totalMassGrams(24.0);
    const double ceiling = quad.velocityCeilingMps(mass);
    const double knee = quad.kneeThroughputHz(mass);
    // Linear region: velocity proportional to throughput.
    EXPECT_NEAR(quad.safeVelocityMps(knee / 2.0, mass), ceiling / 2.0,
                1e-9);
    // Flat region: more throughput buys nothing.
    EXPECT_DOUBLE_EQ(quad.safeVelocityMps(knee * 2.0, mass), ceiling);
    EXPECT_DOUBLE_EQ(quad.safeVelocityMps(0.0, mass), 0.0);
}

TEST(F1Model, PayloadLowersCeiling)
{
    const uav::QuadrotorAirframe quad(uav::zhangNano());
    const double light = quad.totalMassGrams(24.0);
    const double heavy = quad.totalMassGrams(65.0);
    EXPECT_GT(quad.velocityCeilingMps(light),
              quad.velocityCeilingMps(heavy));
    EXPECT_GT(quad.kneeThroughputHz(light), quad.kneeThroughputHz(heavy));
}

TEST(F1Model, ImpossiblePayloadZeroesCeiling)
{
    const uav::QuadrotorAirframe quad(uav::zhangNano());
    EXPECT_DOUBLE_EQ(
        quad.velocityCeilingMps(quad.totalMassGrams(500.0)), 0.0);
}

TEST(F1Model, ActionThroughputIsPipelineMinimum)
{
    const uav::QuadrotorAirframe quad(uav::zhangNano());
    EXPECT_DOUBLE_EQ(quad.actionThroughputHz(100.0, 30.0), 30.0);
    EXPECT_DOUBLE_EQ(quad.actionThroughputHz(20.0, 60.0), 20.0);
}

TEST(F1Model, ClassifyAgainstKnee)
{
    const uav::QuadrotorAirframe quad(uav::zhangNano());
    const double mass = quad.totalMassGrams(24.0);
    const double knee = quad.kneeThroughputHz(mass);
    EXPECT_EQ(quad.classify(knee * 0.5, mass),
              uav::Provisioning::UnderProvisioned);
    EXPECT_EQ(quad.classify(knee, mass), uav::Provisioning::Balanced);
    EXPECT_EQ(quad.classify(knee * 2.0, mass),
              uav::Provisioning::OverProvisioned);
}

TEST(F1Model, StructuralLimitCaps)
{
    uav::UavSpec nano = uav::zhangNano();
    nano.structuralMaxMps = 5.0;
    const uav::QuadrotorAirframe quad(nano);
    EXPECT_DOUBLE_EQ(quad.velocityCeilingMps(quad.totalMassGrams(24.0)),
                     5.0);
}

// ------------------------------------------------------------ mission ----

TEST(Mission, HeavierComputeMeansFewerMissions)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto light = model.evaluate(24.0, 0.8, 60.0, 60.0);
    const auto heavy = model.evaluate(65.0, 0.8, 60.0, 60.0);
    ASSERT_TRUE(light.feasible);
    ASSERT_TRUE(heavy.feasible);
    EXPECT_GT(light.numMissions, heavy.numMissions);
}

TEST(Mission, HungrierComputeMeansFewerMissions)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto frugal = model.evaluate(24.0, 0.8, 60.0, 60.0);
    const auto hungry = model.evaluate(24.0, 8.0, 60.0, 60.0);
    EXPECT_GT(frugal.numMissions, hungry.numMissions);
}

TEST(Mission, SlowComputeLowersVelocityAndMissions)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto fast = model.evaluate(24.0, 0.8, 46.0, 60.0);
    const auto slow = model.evaluate(24.0, 0.8, 10.0, 60.0);
    EXPECT_GT(fast.safeVelocityMps, slow.safeVelocityMps);
    EXPECT_GT(fast.numMissions, slow.numMissions);
    EXPECT_EQ(slow.provisioning, uav::Provisioning::UnderProvisioned);
}

TEST(Mission, InfeasibleWhenOverloaded)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto result = model.evaluate(300.0, 1.0, 60.0, 60.0);
    EXPECT_FALSE(result.feasible);
    EXPECT_DOUBLE_EQ(result.numMissions, 0.0);
}

TEST(Mission, EnergyAccounting)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto result = model.evaluate(24.0, 0.8, 60.0, 60.0);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.missionEnergyJ, 0.0);
    EXPECT_NEAR(result.numMissions,
                uav::zhangNano().batteryEnergyJ() / result.missionEnergyJ,
                1e-9);
    EXPECT_GT(result.missionTimeS,
              uav::zhangNano().missionDistanceM /
                  result.safeVelocityMps - 1e-9);
}

TEST(Mission, SensorSelectionAvoidsSensorBound)
{
    const uav::MissionModel model(uav::zhangNano());
    // Knee ~46 Hz: a 30 FPS sensor would bound the pipeline, so the
    // selector must pick 60 FPS (Section V-C).
    EXPECT_EQ(model.selectSensorFps(46.0), 60);
    EXPECT_EQ(model.selectSensorFps(25.0), 30);
    // Nothing suffices -> fastest available.
    EXPECT_EQ(model.selectSensorFps(500.0), 60);
}

TEST(Mission, SensorAtKneeMatchesSectionVC)
{
    // The nano-UAV with the 23.8 g AutoPilot payload has its knee near
    // 46 Hz, so the knee rule carries the 60 FPS sensor.
    const uav::MissionModel model(uav::zhangNano());
    EXPECT_EQ(model.sensorFpsAtKnee(23.8), 60);
}

TEST(F1ModelDeath, RejectsNegativePayload)
{
    const uav::QuadrotorAirframe quad(uav::zhangNano());
    EXPECT_EXIT(quad.totalMassGrams(-1.0), ::testing::ExitedWithCode(1),
                "negative");
}

TEST(PropulsionDeath, TotalMassBelowBaseRejected)
{
    EXPECT_EXIT(uav::rotorPowerW(uav::zhangNano(), 10.0, 0.0),
                ::testing::ExitedWithCode(1), "below base");
}

TEST(Propulsion, ParasiteDragGrowsCubically)
{
    const uav::UavSpec mini = uav::ascTecPelican();
    const double mass = 1700.0;
    // Subtract the induced component to isolate the drag term.
    auto parasite = [&](double v) {
        const double vi = uav::inducedVelocityMps(mini, mass, v);
        const double induced = mass * 1e-3 * uav::gravity * vi /
                               mini.propulsiveEfficiency;
        return uav::rotorPowerW(mini, mass, v) - induced;
    };
    EXPECT_NEAR(parasite(12.0) / parasite(6.0), 8.0, 0.2);
}

TEST(Mission, SensorBoundPipelineCapsVelocity)
{
    const uav::MissionModel model(uav::zhangNano());
    const auto bound = model.evaluate(24.0, 0.8, 200.0, 30.0);
    EXPECT_DOUBLE_EQ(bound.actionThroughputHz, 30.0);
}
