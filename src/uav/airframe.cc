#include "uav/airframe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "uav/fixed_wing.h"
#include "uav/propulsion.h"
#include "util/logging.h"

namespace autopilot::uav
{

std::string
airframeKindName(AirframeKind kind)
{
    switch (kind) {
      case AirframeKind::Quadrotor: return "quad";
      case AirframeKind::FixedWing: return "fixed-wing";
    }
    return "?";
}

bool
airframeKindFromName(const std::string &name, AirframeKind &out)
{
    if (name == "quad" || name == "quadrotor") {
        out = AirframeKind::Quadrotor;
        return true;
    }
    if (name == "fixed-wing" || name == "fixedwing") {
        out = AirframeKind::FixedWing;
        return true;
    }
    return false;
}

std::string
provisioningName(Provisioning provisioning)
{
    switch (provisioning) {
      case Provisioning::UnderProvisioned: return "under-provisioned";
      case Provisioning::Balanced:         return "balanced";
      case Provisioning::OverProvisioned:  return "over-provisioned";
    }
    return "?";
}

Airframe::Airframe(const UavSpec &spec) : uavSpec(spec)
{
    uavSpec.validate();
}

double
Airframe::totalMassGrams(double compute_payload_g) const
{
    util::fatalIf(compute_payload_g < 0.0,
                  "Airframe: negative compute payload");
    return uavSpec.baseMassGrams + compute_payload_g;
}

double
Airframe::actionThroughputHz(double compute_fps, double sensor_fps) const
{
    util::fatalIf(compute_fps < 0.0 || sensor_fps < 0.0,
                  "Airframe::actionThroughputHz: negative rate");
    return std::min({compute_fps, sensor_fps, uavSpec.controlLoopHz});
}

Provisioning
Airframe::classify(double throughput_hz, double total_mass_g) const
{
    const double knee = kneeThroughputHz(total_mass_g);
    if (knee <= 0.0)
        return Provisioning::OverProvisioned;
    if (throughput_hz < knee * (1.0 - kBalancedKneeBand))
        return Provisioning::UnderProvisioned;
    if (throughput_hz > knee * (1.0 + kBalancedKneeBand))
        return Provisioning::OverProvisioned;
    return Provisioning::Balanced;
}

QuadrotorAirframe::QuadrotorAirframe(const UavSpec &spec) : Airframe(spec)
{
}

bool
QuadrotorAirframe::canFly(double total_mass_g) const
{
    return canHover(uavSpec, total_mass_g);
}

double
QuadrotorAirframe::velocityCeilingMps(double total_mass_g) const
{
    const double a_max = maxAccelerationMps2(uavSpec, total_mass_g);
    if (a_max <= 0.0)
        return 0.0;
    const double braking =
        std::sqrt(2.0 * a_max * uavSpec.senseDistanceM);
    return std::min(braking, uavSpec.structuralMaxMps);
}

double
QuadrotorAirframe::minAirspeedMps(double) const
{
    return 0.0;
}

double
QuadrotorAirframe::safeVelocityMps(double throughput_hz,
                                   double total_mass_g) const
{
    util::fatalIf(throughput_hz < 0.0,
                  "QuadrotorAirframe::safeVelocityMps: negative throughput");
    const double slope_bound =
        uavSpec.clearancePerDecisionM * throughput_hz;
    return std::min(slope_bound, velocityCeilingMps(total_mass_g));
}

double
QuadrotorAirframe::kneeThroughputHz(double total_mass_g) const
{
    return velocityCeilingMps(total_mass_g) / uavSpec.clearancePerDecisionM;
}

double
QuadrotorAirframe::propulsionPowerW(double total_mass_g,
                                    double velocity_mps) const
{
    return rotorPowerW(uavSpec, total_mass_g, velocity_mps);
}

double
QuadrotorAirframe::overheadPowerW(double total_mass_g) const
{
    return rotorPowerW(uavSpec, total_mass_g, 0.0);
}

double
QuadrotorAirframe::turnRadiusM(double, double) const
{
    return 0.0;
}

std::string
QuadrotorAirframe::infeasibleReason(double total_mass_g,
                                    double throughput_hz) const
{
    char buffer[160];
    if (!canHover(uavSpec, total_mass_g)) {
        const double max_hover_g =
            uavSpec.maxThrustNewtons / gravity * 1000.0;
        std::snprintf(buffer, sizeof(buffer),
                      "all-up mass %.1f g exceeds the hover thrust budget "
                      "(max %.1f g at %.2f N)",
                      total_mass_g, max_hover_g, uavSpec.maxThrustNewtons);
        return buffer;
    }
    if (safeVelocityMps(throughput_hz, total_mass_g) <
        kMinSafeVelocityMps) {
        std::snprintf(buffer, sizeof(buffer),
                      "action throughput %.2f Hz yields no forward "
                      "progress (safe velocity ~0 m/s)",
                      throughput_hz);
        return buffer;
    }
    return "";
}

std::unique_ptr<Airframe>
makeAirframe(AirframeKind kind, const UavSpec &spec)
{
    switch (kind) {
      case AirframeKind::Quadrotor:
        return std::make_unique<QuadrotorAirframe>(spec);
      case AirframeKind::FixedWing:
        return std::make_unique<FixedWingAirframe>(spec);
    }
    util::fatal("makeAirframe: unknown airframe kind");
    return nullptr;
}

} // namespace autopilot::uav
