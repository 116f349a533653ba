/**
 * @file
 * Tests for the pluggable airframe + mission-mix layer: the quadrotor
 * F-1 envelope pinned to an exact golden table, fixed-wing envelope
 * properties (stall floor, knee shift, L/D energy advantage), mission
 * profiles, infeasibility diagnoses and the weighted fleet objective.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "core/autopilot.h"
#include "core/report.h"
#include "uav/airframe.h"
#include "uav/fixed_wing.h"
#include "uav/mission.h"
#include "uav/mission_profile.h"
#include "uav/propulsion.h"
#include "uav/uav_spec.h"

namespace core = autopilot::core;
namespace uav = autopilot::uav;
namespace al = autopilot::airlearning;

namespace
{

core::TaskSpec
quickTask()
{
    core::TaskSpec task;
    task.validationEpisodes = 10;
    task.dseBudget = 8;
    return task;
}

uav::MissionMix
mixedFleet()
{
    uav::MissionScenario transit;
    transit.name = "transit";
    transit.weight = 2.0;

    uav::MissionScenario survey;
    survey.name = "survey";
    survey.airframe = uav::AirframeKind::FixedWing;
    survey.profile.missionClass = uav::MissionClass::SearchPattern;
    survey.profile.searchAreaM2 = 40000.0;
    survey.profile.laneSpacingM = 20.0;
    survey.weight = 1.0;

    uav::MissionMix mix;
    mix.scenarios = {transit, survey};
    return mix;
}

} // namespace

// ------------------------------------------------ names and factories ----

TEST(Airframe, KindNamesRoundTrip)
{
    EXPECT_EQ(uav::airframeKindName(uav::AirframeKind::Quadrotor),
              "quad");
    EXPECT_EQ(uav::airframeKindName(uav::AirframeKind::FixedWing),
              "fixed-wing");
    uav::AirframeKind kind = uav::AirframeKind::Quadrotor;
    EXPECT_TRUE(uav::airframeKindFromName("fixed-wing", kind));
    EXPECT_EQ(kind, uav::AirframeKind::FixedWing);
    EXPECT_TRUE(uav::airframeKindFromName("quad", kind));
    EXPECT_EQ(kind, uav::AirframeKind::Quadrotor);
    EXPECT_FALSE(uav::airframeKindFromName("ornithopter", kind));
}

TEST(Airframe, FactoryBuildsRequestedKind)
{
    const uav::UavSpec nano = uav::zhangNano();
    EXPECT_EQ(uav::makeAirframe(uav::AirframeKind::Quadrotor, nano)
                  ->kind(),
              uav::AirframeKind::Quadrotor);
    EXPECT_EQ(uav::makeAirframe(uav::AirframeKind::FixedWing, nano)
                  ->kind(),
              uav::AirframeKind::FixedWing);
}

// ----------------------------------------- quadrotor golden and parity --

namespace
{

constexpr uav::Provisioning kU = uav::Provisioning::UnderProvisioned;
constexpr uav::Provisioning kB = uav::Provisioning::Balanced;
constexpr uav::Provisioning kO = uav::Provisioning::OverProvisioned;

/** One (vehicle, compute payload) row of the quadrotor golden table. */
struct QuadGolden
{
    const char *vehicle;
    double payloadG;
    double massG, ceilingMps, kneeHz;
    double safeMps[4];            ///< At kGoldenHz.
    uav::Provisioning classes[4]; ///< At kGoldenHz.
};

constexpr double kGoldenHz[4] = {1.0, 10.0, 46.0, 200.0};

// allUavs() x payloads {0, 5, 20, 60} g, printed with %a. Any change to
// these bits changes every Phase 3 number and must be justified on its
// own.
const QuadGolden kQuadGolden[] = {
    {"AscTec Pelican", 0.0,
     0x1.9c8p+10, 0x1.07f94837653e7p+4, 0x1.b7f4cdb1a8bd7p+4,
     {0x1.3333333333333p-1, 0x1.8p+2,
      0x1.07f94837653e7p+4, 0x1.07f94837653e7p+4},
     {kU, kU, kO, kO}},
    {"AscTec Pelican", 5.0,
     0x1.9dcp+10, 0x1.0771134d7795ap+4, 0x1.b711cad671f96p+4,
     {0x1.3333333333333p-1, 0x1.8p+2,
      0x1.0771134d7795ap+4, 0x1.0771134d7795ap+4},
     {kU, kU, kO, kO}},
    {"AscTec Pelican", 20.0,
     0x1.a18p+10, 0x1.05dae5e7529e9p+4, 0x1.b46cd48189b2fp+4,
     {0x1.3333333333333p-1, 0x1.8p+2,
      0x1.05dae5e7529e9p+4, 0x1.05dae5e7529e9p+4},
     {kU, kU, kO, kO}},
    {"AscTec Pelican", 60.0,
     0x1.ab8p+10, 0x1.01b0f69526069p+4, 0x1.ad7c45a33f605p+4,
     {0x1.3333333333333p-1, 0x1.8p+2,
      0x1.01b0f69526069p+4, 0x1.01b0f69526069p+4},
     {kU, kU, kO, kO}},
    {"DJI Spark", 0.0,
     0x1.2cp+8, 0x1.24f38bf541a3bp+3, 0x1.e84093ee1810dp+4,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.24f38bf541a3bp+3, 0x1.24f38bf541a3bp+3},
     {kU, kU, kO, kO}},
    {"DJI Spark", 5.0,
     0x1.31p+8, 0x1.1f23661cb27a8p+3, 0x1.de9054da7ecc3p+4,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.1f23661cb27a8p+3, 0x1.1f23661cb27a8p+3},
     {kU, kU, kO, kO}},
    {"DJI Spark", 20.0,
     0x1.4p+8, 0x1.0d34a9de8a8eep+3, 0x1.c0ad1b1d9198dp+4,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.0d34a9de8a8eep+3, 0x1.0d34a9de8a8eep+3},
     {kU, kU, kO, kO}},
    {"DJI Spark", 60.0,
     0x1.68p+8, 0x1.a8b4345003235p+2, 0x1.61eb80ed57f2cp+4,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.a8b4345003235p+2, 0x1.a8b4345003235p+2},
     {kU, kU, kO, kO}},
    {"Zhang et al. nano", 0.0,
     0x1.9p+5, 0x1.154fd89da8fcbp+4, 0x1.ce2fbe5c19a53p+5,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.b999999999999p+3, 0x1.154fd89da8fcbp+4},
     {kU, kU, kU, kO}},
    {"Zhang et al. nano", 5.0,
     0x1.b8p+5, 0x1.06ea20e24f1acp+4, 0x1.b630e1792e81fp+5,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.b999999999999p+3, 0x1.06ea20e24f1acp+4},
     {kU, kU, kU, kO}},
    {"Zhang et al. nano", 20.0,
     0x1.18p+6, 0x1.c8438c2967097p+3, 0x1.7c384a228087ep+5,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.b999999999999p+3, 0x1.c8438c2967097p+3},
     {kU, kU, kB, kO}},
    {"Zhang et al. nano", 60.0,
     0x1.b8p+6, 0x1.47d2c5dafac77p+3, 0x1.112fa4e12650ep+5,
     {0x1.3333333333333p-2, 0x1.8p+1,
      0x1.47d2c5dafac77p+3, 0x1.47d2c5dafac77p+3},
     {kU, kU, kO, kO}},
};

} // namespace

TEST(QuadrotorGolden, F1EnvelopeIsExact)
{
    std::size_t row = 0;
    for (const uav::UavSpec &spec : uav::allUavs()) {
        const uav::QuadrotorAirframe quad(spec);
        for (const double payload : {0.0, 5.0, 20.0, 60.0}) {
            ASSERT_LT(row, std::size(kQuadGolden));
            const QuadGolden &golden = kQuadGolden[row++];
            ASSERT_EQ(spec.name, golden.vehicle);
            ASSERT_EQ(payload, golden.payloadG);
            const double mass = quad.totalMassGrams(payload);
            EXPECT_EQ(mass, golden.massG);
            EXPECT_EQ(quad.velocityCeilingMps(mass), golden.ceilingMps);
            EXPECT_EQ(quad.kneeThroughputHz(mass), golden.kneeHz);
            for (std::size_t i = 0; i < std::size(kGoldenHz); ++i) {
                EXPECT_EQ(quad.safeVelocityMps(kGoldenHz[i], mass),
                          golden.safeMps[i])
                    << spec.name << " " << kGoldenHz[i] << " Hz";
                EXPECT_EQ(quad.classify(kGoldenHz[i], mass),
                          golden.classes[i])
                    << spec.name << " " << kGoldenHz[i] << " Hz";
            }
            for (const double v : {0.0, 2.0, 8.0}) {
                EXPECT_EQ(quad.propulsionPowerW(mass, v),
                          uav::rotorPowerW(spec, mass, v));
            }
            EXPECT_EQ(quad.overheadPowerW(mass),
                      uav::rotorPowerW(spec, mass, 0.0));
            EXPECT_EQ(quad.turnRadiusM(mass, 8.0), 0.0);
        }
    }
    EXPECT_EQ(row, std::size(kQuadGolden));
}

TEST(QuadrotorParity, GeneralizedMissionModelIsBitIdentical)
{
    // The legacy single-argument MissionModel and the explicit
    // (quadrotor, default-profile) construction must agree on every
    // field, bit for bit: this is the refactor's core guarantee.
    for (const uav::UavSpec &spec : uav::allUavs()) {
        const uav::MissionModel legacy(spec);
        const uav::MissionModel general(
            spec, uav::AirframeKind::Quadrotor, uav::MissionProfile{});
        for (const double payload : {2.0, 10.0, 40.0}) {
            const uav::MissionResult a =
                legacy.evaluate(payload, 1.5, 50.0, 60.0);
            const uav::MissionResult b =
                general.evaluate(payload, 1.5, 50.0, 60.0);
            EXPECT_EQ(a.feasible, b.feasible);
            EXPECT_EQ(a.totalMassG, b.totalMassG);
            EXPECT_EQ(a.actionThroughputHz, b.actionThroughputHz);
            EXPECT_EQ(a.kneeThroughputHz, b.kneeThroughputHz);
            EXPECT_EQ(a.safeVelocityMps, b.safeVelocityMps);
            EXPECT_EQ(a.rotorPowerW, b.rotorPowerW);
            EXPECT_EQ(a.totalPowerW, b.totalPowerW);
            EXPECT_EQ(a.missionTimeS, b.missionTimeS);
            EXPECT_EQ(a.missionEnergyJ, b.missionEnergyJ);
            EXPECT_EQ(a.numMissions, b.numMissions);
            EXPECT_EQ(a.provisioning, b.provisioning);
        }
    }
}

TEST(QuadrotorParity, PipelineIdenticalAcrossThreadCounts)
{
    // The default-mix pipeline must select the same design with
    // bit-identical metrics at 1, 2 and 4 worker threads.
    std::vector<core::AutoPilotRun> runs;
    for (const int threads : {1, 2, 4}) {
        core::TaskSpec task = quickTask();
        task.threads = threads;
        core::AutoPilot pilot(task);
        runs.push_back(pilot.designFor(uav::zhangNano()));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].dseResult.archive.size(),
                  runs[0].dseResult.archive.size());
        EXPECT_EQ(runs[i].selected.eval.socPowerW,
                  runs[0].selected.eval.socPowerW);
        EXPECT_EQ(runs[i].selected.eval.fps, runs[0].selected.eval.fps);
        EXPECT_EQ(runs[i].selected.mission.numMissions,
                  runs[0].selected.mission.numMissions);
        EXPECT_EQ(runs[i].selected.weightedMissions,
                  runs[0].selected.weightedMissions);
    }
    // The default mix's weighted objective IS the legacy metric.
    EXPECT_EQ(runs[0].selected.weightedMissions,
              runs[0].selected.mission.numMissions);
    EXPECT_EQ(runs[0].selected.missionScore(),
              runs[0].selected.mission.numMissions);
}

// --------------------------------------------------- fixed-wing physics --

TEST(FixedWing, StallFloorGatesLowThroughput)
{
    const uav::UavSpec nano = uav::zhangNano();
    const uav::FixedWingAirframe wing(nano);
    const uav::QuadrotorAirframe quad(nano);
    const double mass = wing.totalMassGrams(10.0);

    const double stall = wing.stallSpeedMps(mass);
    EXPECT_GT(stall, 0.0);
    EXPECT_EQ(wing.minAirspeedMps(mass), stall);

    // A throughput whose clearance-bound velocity sits below the stall
    // floor admits no safe speed for the wing, while the quadrotor just
    // flies slowly.
    const double low_hz =
        0.5 * stall / nano.clearancePerDecisionM;
    EXPECT_EQ(wing.safeVelocityMps(low_hz, mass), 0.0);
    EXPECT_GT(quad.safeVelocityMps(low_hz, mass), 0.0);
    EXPECT_NE(wing.infeasibleReason(mass, low_hz).find("stall"),
              std::string::npos)
        << wing.infeasibleReason(mass, low_hz);
}

TEST(FixedWing, StallRisesAndCeilingFallsWithMass)
{
    const uav::FixedWingAirframe wing(uav::zhangNano());
    const double light = wing.totalMassGrams(5.0);
    // Heavy enough that the sustained load factor leaves the
    // structural cap and becomes thrust-limited: that is where mass
    // starts eating the avoidance ceiling.
    const double heavy = wing.totalMassGrams(120.0);
    EXPECT_GT(wing.stallSpeedMps(heavy), wing.stallSpeedMps(light));
    EXPECT_GT(wing.sustainedLoadFactor(light),
              wing.sustainedLoadFactor(heavy));
    EXPECT_LT(wing.velocityCeilingMps(heavy),
              wing.velocityCeilingMps(light));
}

TEST(FixedWing, KneeShiftsRelativeToQuadrotor)
{
    // Different envelope physics must move the knee: the banked-turn
    // ceiling differs from the braking ceiling, so the throughput that
    // saturates the wing differs from the quadrotor's.
    const uav::UavSpec nano = uav::zhangNano();
    const uav::FixedWingAirframe wing(nano);
    const uav::QuadrotorAirframe quad(nano);
    const double mass = wing.totalMassGrams(10.0);
    EXPECT_NE(wing.kneeThroughputHz(mass), quad.kneeThroughputHz(mass));
    // Past the knee the curve is flat: more throughput buys nothing.
    EXPECT_DOUBLE_EQ(
        wing.safeVelocityMps(wing.kneeThroughputHz(mass) * 2.0, mass),
        wing.velocityCeilingMps(mass));
}

TEST(FixedWing, EnergyPerMeterBeatsQuadrotorAndIsMonotoneInLd)
{
    const uav::UavSpec nano = uav::zhangNano();
    const double payload = 10.0;
    const double v = 10.0;

    const uav::FixedWingAirframe wing(nano);
    const uav::QuadrotorAirframe quad(nano);
    const double mass = wing.totalMassGrams(payload);
    const double wing_jpm = wing.propulsionPowerW(mass, v) / v;
    const double quad_jpm = quad.propulsionPowerW(mass, v) / v;
    EXPECT_GT(quad_jpm, 3.0 * wing_jpm)
        << "fixed wing should cruise far cheaper per meter";

    // The advantage is monotone in L/D: better gliders spend less per
    // meter, at every speed.
    double previous = 0.0;
    for (const double ld : {6.0, 8.0, 10.0, 14.0}) {
        uav::FixedWingParams params = uav::defaultFixedWingParams(nano);
        params.liftToDrag = ld;
        const uav::FixedWingAirframe frame(nano, params);
        const double jpm = frame.propulsionPowerW(mass, v) / v;
        if (previous > 0.0)
            EXPECT_LT(jpm, previous) << "L/D " << ld;
        previous = jpm;
    }
}

TEST(FixedWing, TurnRadiusGrowsWithSpeedAndStretchesSearch)
{
    const uav::UavSpec nano = uav::zhangNano();
    const uav::FixedWingAirframe wing(nano);
    const double mass = wing.totalMassGrams(10.0);
    EXPECT_GT(wing.turnRadiusM(mass, 12.0),
              wing.turnRadiusM(mass, 8.0));
    EXPECT_GT(wing.turnRadiusM(mass, 8.0), 0.0);

    // Halving the lane spacing doubles the lanes (and course
    // reversals), so the same area costs more energy per sortie.
    uav::MissionProfile wide;
    wide.missionClass = uav::MissionClass::SearchPattern;
    wide.searchAreaM2 = 40000.0;
    wide.laneSpacingM = 40.0;
    uav::MissionProfile narrow = wide;
    narrow.laneSpacingM = 20.0;
    const uav::MissionModel wide_model(
        nano, uav::AirframeKind::FixedWing, wide);
    const uav::MissionModel narrow_model(
        nano, uav::AirframeKind::FixedWing, narrow);
    const uav::MissionResult few =
        wide_model.evaluate(10.0, 1.5, 60.0, 60.0);
    const uav::MissionResult many =
        narrow_model.evaluate(10.0, 1.5, 60.0, 60.0);
    ASSERT_TRUE(few.feasible);
    ASSERT_TRUE(many.feasible);
    EXPECT_GT(many.missionEnergyJ, few.missionEnergyJ);
    EXPECT_LT(many.numMissions, few.numMissions);
}

// ----------------------------------------------------- mission profiles --

TEST(MissionProfiles, SearchCostsMoreThanPointToPoint)
{
    const uav::UavSpec nano = uav::zhangNano();
    uav::MissionProfile search;
    search.missionClass = uav::MissionClass::SearchPattern;
    search.searchAreaM2 = 10000.0;
    search.laneSpacingM = 10.0;
    const uav::MissionModel p2p(nano, uav::AirframeKind::Quadrotor,
                                uav::MissionProfile{});
    const uav::MissionModel sweep(nano, uav::AirframeKind::Quadrotor,
                                  search);
    const uav::MissionResult base = p2p.evaluate(10.0, 1.5, 50.0, 60.0);
    const uav::MissionResult swept =
        sweep.evaluate(10.0, 1.5, 50.0, 60.0);
    ASSERT_TRUE(base.feasible);
    ASSERT_TRUE(swept.feasible);
    EXPECT_GT(swept.missionTimeS, base.missionTimeS);
    EXPECT_LT(swept.numMissions, base.numMissions);
}

TEST(MissionProfiles, DeliveryPaysForTheOutboundPayload)
{
    const uav::UavSpec nano = uav::zhangNano();
    uav::MissionProfile drop;
    drop.missionClass = uav::MissionClass::PayloadDelivery;
    drop.deliveryPayloadG = 30.0;
    const uav::MissionModel p2p(nano, uav::AirframeKind::Quadrotor,
                                uav::MissionProfile{});
    const uav::MissionModel delivery(nano, uav::AirframeKind::Quadrotor,
                                     drop);
    const uav::MissionResult empty =
        p2p.evaluate(10.0, 1.5, 50.0, 60.0);
    const uav::MissionResult loaded =
        delivery.evaluate(10.0, 1.5, 50.0, 60.0);
    ASSERT_TRUE(empty.feasible);
    ASSERT_TRUE(loaded.feasible);
    EXPECT_GT(loaded.missionEnergyJ, empty.missionEnergyJ);

    // A drop payload the rotors cannot lift is diagnosed, and names
    // the delivery leg rather than the cruise configuration.
    uav::MissionProfile heavy = drop;
    heavy.deliveryPayloadG = 200.0;
    const uav::MissionModel impossible(
        nano, uav::AirframeKind::Quadrotor, heavy);
    const uav::MissionResult result =
        impossible.evaluate(10.0, 1.5, 50.0, 60.0);
    EXPECT_FALSE(result.feasible);
    EXPECT_NE(result.infeasibleReason.find("delivery payload"),
              std::string::npos)
        << result.infeasibleReason;
}

// ------------------------------------------- infeasibility diagnostics --

TEST(Diagnostics, NearZeroSafeVelocityIsDiagnosedNotNonFinite)
{
    const uav::UavSpec nano = uav::zhangNano();
    const uav::MissionModel model(nano);
    // Zero compute throughput pins the pipeline (and v_safe) at zero;
    // the legacy model divided by it.
    const uav::MissionResult result =
        model.evaluate(10.0, 1.5, 0.0, 60.0);
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.infeasibleReason.empty());
    EXPECT_TRUE(std::isfinite(result.missionTimeS));
    EXPECT_TRUE(std::isfinite(result.missionEnergyJ));
    EXPECT_TRUE(std::isfinite(result.numMissions));
    EXPECT_EQ(result.numMissions, 0.0);
}

TEST(Diagnostics, OverweightDesignCarriesReadableReason)
{
    const uav::UavSpec nano = uav::zhangNano();
    const uav::MissionModel model(nano);
    // 500 g of compute on a nano frame with ~1.58 N of thrust.
    const uav::MissionResult result =
        model.evaluate(500.0, 1.5, 50.0, 60.0);
    EXPECT_FALSE(result.feasible);
    EXPECT_NE(result.infeasibleReason.find("thrust"), std::string::npos)
        << result.infeasibleReason;

    // The reason surfaces in the design report table.
    core::FullSystemDesign design;
    design.mission = result;
    std::ostringstream os;
    core::printDesignReport(design, os);
    EXPECT_NE(os.str().find("infeasible"), std::string::npos);
    EXPECT_NE(os.str().find("thrust"), std::string::npos);
}

// --------------------------------------------------------- mission mix --

TEST(MissionMix, TagAndDefaultSemantics)
{
    uav::MissionMix mix;
    EXPECT_TRUE(mix.isDefault());
    EXPECT_EQ(mix.tag(), "-");
    mix = mixedFleet();
    EXPECT_FALSE(mix.isDefault());
    EXPECT_EQ(mix.tag(), "transit+survey");
    EXPECT_DOUBLE_EQ(mix.totalWeight(), 3.0);
    ASSERT_EQ(uav::effectiveScenarios(uav::MissionMix{}).size(), 1u);
    EXPECT_EQ(uav::effectiveScenarios(uav::MissionMix{})[0].airframe,
              uav::AirframeKind::Quadrotor);
}

TEST(MissionMix, WeightedObjectiveAveragesScenarios)
{
    const core::TaskSpec task = quickTask();
    core::AutoPilot pilot(task);
    const std::vector<core::FullSystemDesign> candidates =
        pilot.candidatesFor(uav::zhangNano());
    ASSERT_FALSE(candidates.empty());

    const uav::MissionMix mix = mixedFleet();
    const core::FullSystemDesign design = core::AutoPilot::
        mapToFullSystem(candidates.front().eval, uav::zhangNano(), mix);
    ASSERT_EQ(design.scenarios.size(), 2u);
    const double expected = (2.0 * design.scenarios[0].mission.numMissions +
                             1.0 * design.scenarios[1].mission.numMissions) /
                            3.0;
    EXPECT_DOUBLE_EQ(design.weightedMissions, expected);
    EXPECT_EQ(design.missionScore(), design.weightedMissions);
    // The primary mission fields mirror the first scenario.
    EXPECT_EQ(design.mission.numMissions,
              design.scenarios[0].mission.numMissions);
    EXPECT_EQ(design.scenarios[1].airframe,
              uav::AirframeKind::FixedWing);
}

TEST(MissionMix, FingerprintPreservedForDefaultAndFoldedForMix)
{
    const core::TaskSpec legacy = quickTask();
    core::TaskSpec with_default_mix = quickTask();
    with_default_mix.missionMix = uav::MissionMix{};
    // The default mix must not perturb the fingerprint: pre-airframe
    // journals and checkpoints resume under the new code.
    EXPECT_EQ(core::taskFingerprint(legacy),
              core::taskFingerprint(with_default_mix));

    core::TaskSpec mixed = quickTask();
    mixed.missionMix = mixedFleet();
    EXPECT_NE(core::taskFingerprint(legacy),
              core::taskFingerprint(mixed));

    // Any scenario parameter change re-fingerprints the task.
    core::TaskSpec reweighted = mixed;
    reweighted.missionMix.scenarios[1].weight = 4.0;
    EXPECT_NE(core::taskFingerprint(mixed),
              core::taskFingerprint(reweighted));
}

TEST(MissionMix, FleetObjectiveReordersCandidates)
{
    const core::TaskSpec task = quickTask();
    core::AutoPilot pilot(task);
    const std::vector<core::FullSystemDesign> defaults =
        pilot.candidatesFor(uav::zhangNano());
    ASSERT_GE(defaults.size(), 2u);

    const uav::MissionMix mix = mixedFleet();
    std::vector<core::FullSystemDesign> mixed;
    for (const core::FullSystemDesign &design : defaults)
        mixed.push_back(core::AutoPilot::mapToFullSystem(
            design.eval, uav::zhangNano(), mix));

    // The weighted objective must actually differ from the legacy
    // single-scenario metric for at least one candidate; otherwise the
    // fleet layer changed nothing.
    bool differs = false;
    for (std::size_t i = 0; i < defaults.size(); ++i)
        differs |= mixed[i].missionScore() !=
                   defaults[i].mission.numMissions;
    EXPECT_TRUE(differs);
}

TEST(MissionMix, ParetoFrontMaximizesMissionsMinimizesPower)
{
    auto design = [](double missions, double watts) {
        core::FullSystemDesign d;
        d.mission.numMissions = missions;
        d.eval.socPowerW = watts;
        return d;
    };
    // (10, 1 W) and (20, 2 W) trade off; (5, 3 W) is dominated; the
    // duplicate of the first keeps only its first occurrence.
    const std::vector<core::FullSystemDesign> candidates = {
        design(10.0, 1.0), design(20.0, 2.0), design(5.0, 3.0),
        design(10.0, 1.0)};
    const std::vector<std::size_t> front =
        core::missionParetoFront(candidates);
    EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(MissionMix, RunReportGainsScenarioTableOnlyForNonDefaultMix)
{
    core::TaskSpec task = quickTask();
    core::AutoPilot pilot(task);
    core::AutoPilotRun run = pilot.designFor(uav::zhangNano());
    std::ostringstream plain;
    core::printRunReport(run, plain);
    EXPECT_EQ(plain.str().find("Mission mix"), std::string::npos);

    core::TaskSpec mixed_task = quickTask();
    mixed_task.missionMix = mixedFleet();
    core::AutoPilot fleet_pilot(mixed_task);
    core::AutoPilotRun fleet_run =
        fleet_pilot.designFor(uav::zhangNano());
    std::ostringstream fleet;
    core::printRunReport(fleet_run, fleet);
    EXPECT_NE(fleet.str().find("Mission mix 'transit+survey'"),
              std::string::npos);
    EXPECT_NE(fleet.str().find("Fleet Pareto front"),
              std::string::npos);
    EXPECT_NE(fleet.str().find("fixed-wing"), std::string::npos);
}
