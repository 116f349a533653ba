/**
 * @file
 * Golden regression tests: pin the calibrated headline quantities so an
 * accidental constant change (energy model, physics, template geometry)
 * is caught immediately rather than surfacing as a silently different
 * EXPERIMENTS.md. Tolerances are tight but allow harmless refactors.
 */

#include <gtest/gtest.h>

#include "core/taxonomy.h"
#include "nn/e2e_template.h"
#include "power/mass_model.h"
#include "power/npu_power.h"
#include "systolic/cycle_engine.h"
#include "uav/airframe.h"
#include "uav/uav_spec.h"

namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;
namespace pw = autopilot::power;
namespace uav = autopilot::uav;
namespace core = autopilot::core;

namespace
{

/** Quadrotor knee at a compute payload, Hz. */
double
kneeHz(const uav::UavSpec &spec, double payload_g)
{
    const uav::QuadrotorAirframe quad(spec);
    return quad.kneeThroughputHz(quad.totalMassGrams(payload_g));
}

/** Quadrotor velocity ceiling at a compute payload, m/s. */
double
ceilingMps(const uav::UavSpec &spec, double payload_g)
{
    const uav::QuadrotorAirframe quad(spec);
    return quad.velocityCeilingMps(quad.totalMassGrams(payload_g));
}

} // namespace

TEST(Golden, KneePoints)
{
    const pw::MassModel mass;
    EXPECT_NEAR(kneeHz(uav::zhangNano(), mass.computePayloadGrams(0.7)),
                46.0, 1.0);
    EXPECT_NEAR(kneeHz(uav::djiSpark(), mass.computePayloadGrams(1.5)),
                27.0, 1.0);
}

TEST(Golden, ComputePayloadAnchors)
{
    const pw::MassModel mass;
    EXPECT_NEAR(mass.computePayloadGrams(0.7), 23.8, 0.5);
    EXPECT_NEAR(mass.computePayloadGrams(8.24), 64.9, 1.0);
}

TEST(Golden, DensePolicyShape)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    // ~28M parameters, ~1.2 GMAC: the "109x DroNet" scale.
    EXPECT_NEAR(model.totalParams() * 1e-6, 27.8, 1.5);
    EXPECT_NEAR(model.totalMacs() * 1e-9, 1.23, 0.1);
}

TEST(Golden, CanonicalMediumDesign)
{
    // 32x32, 256 KiB scratchpads on the dense policy: the reference
    // point quoted in EXPERIMENTS.md (roughly 52 FPS at ~0.9 W).
    sys::AcceleratorConfig config;
    config.peRows = config.peCols = 32;
    config.ifmapSramKb = config.filterSramKb = config.ofmapSramKb = 256;
    const sys::CycleEngine engine(config);
    const auto run = engine.run(nn::buildE2EModel({7, 48}));
    const double fps = run.framesPerSecond(config.clockGhz);
    const double watts =
        pw::NpuPowerModel(config).averagePowerW(run);
    EXPECT_NEAR(fps, 51.7, 3.0);
    EXPECT_NEAR(watts, 0.88, 0.08);
}

TEST(Golden, VelocityCeilings)
{
    EXPECT_NEAR(ceilingMps(uav::zhangNano(), 23.8), 13.8, 0.3);
    EXPECT_NEAR(ceilingMps(uav::djiSpark(), 28.2), 8.1, 0.3);
}

TEST(Golden, TaxonomyThisWorkRow)
{
    EXPECT_TRUE(core::implementedHere(core::Domain::Uav,
                                      core::Paradigm::EndToEnd));
    EXPECT_FALSE(core::implementedHere(core::Domain::SelfDrivingCar,
                                       core::Paradigm::Hybrid));
    const auto front = core::componentsFor(
        core::Domain::Uav, core::Paradigm::EndToEnd,
        core::Phase::DomainSpecificFrontEnd);
    EXPECT_FALSE(front.empty());
    EXPECT_EQ(front.front(), "Air Learning");
}

TEST(Golden, TaxonomyCoversAllDomains)
{
    bool saw_uav = false, saw_car = false, saw_arm = false;
    for (const core::TaxonomyEntry &entry : core::taxonomyTable()) {
        saw_uav |= entry.domain == core::Domain::Uav;
        saw_car |= entry.domain == core::Domain::SelfDrivingCar;
        saw_arm |= entry.domain == core::Domain::ArticulatedRobot;
        EXPECT_FALSE(entry.components.empty());
    }
    EXPECT_TRUE(saw_uav);
    EXPECT_TRUE(saw_car);
    EXPECT_TRUE(saw_arm);
}
