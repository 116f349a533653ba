#include "uav/mission.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace autopilot::uav
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** One constant-mass cruise segment of a mission. */
struct MissionLeg
{
    double pathM = 0.0;  ///< Nominal path before turn stretch.
    double massG = 0.0;  ///< All-up mass flown on this leg.
    int turns = 0;       ///< Course reversals paid at turn radius.
};

} // namespace

MissionModel::MissionModel(const UavSpec &spec)
    : MissionModel(spec, AirframeKind::Quadrotor, MissionProfile{})
{
}

MissionModel::MissionModel(const UavSpec &spec, AirframeKind airframe,
                           const MissionProfile &profile)
    : uavSpec(spec), frame(makeAirframe(airframe, spec)),
      missionProfile(profile)
{
    uavSpec.validate();
    missionProfile.validate();
}

MissionResult
MissionModel::evaluate(double compute_payload_g, double soc_power_w,
                       double compute_fps, double sensor_fps) const
{
    util::fatalIf(compute_payload_g < 0.0 || soc_power_w < 0.0,
                  "MissionModel::evaluate: negative design parameters");

    MissionResult result;
    result.totalMassG = frame->totalMassGrams(compute_payload_g);
    result.computePowerW = soc_power_w;
    result.actionThroughputHz =
        frame->actionThroughputHz(compute_fps, sensor_fps);
    result.kneeThroughputHz = frame->kneeThroughputHz(result.totalMassG);
    result.safeVelocityMps =
        frame->safeVelocityMps(result.actionThroughputHz,
                               result.totalMassG);
    result.provisioning =
        frame->classify(result.actionThroughputHz, result.totalMassG);

    const double transit = missionProfile.distanceM > 0.0
                               ? missionProfile.distanceM
                               : uavSpec.missionDistanceM;
    std::vector<MissionLeg> legs;
    switch (missionProfile.missionClass) {
      case MissionClass::PointToPoint:
        legs.push_back({transit, result.totalMassG, 0});
        break;
      case MissionClass::SearchPattern: {
        // Lawnmower sweep of a square area: lanes of one side length,
        // one course reversal per lane change, plus the transit out.
        const double side = std::sqrt(missionProfile.searchAreaM2);
        const int lanes = std::max(
            1, static_cast<int>(
                   std::ceil(side / missionProfile.laneSpacingM)));
        legs.push_back({transit + lanes * side, result.totalMassG,
                        lanes - 1});
        break;
      }
      case MissionClass::PayloadDelivery: {
        // Carry the delivery mass out, drop it at the midpoint, return
        // light. The loaded leg flies the heavier-envelope velocity.
        const double loaded =
            result.totalMassG + missionProfile.deliveryPayloadG;
        legs.push_back({transit / 2.0, loaded, 0});
        legs.push_back({transit / 2.0, result.totalMassG, 0});
        break;
      }
    }

    // Every leg must fit the airframe's envelope; report the first
    // failure with the airframe's diagnosis instead of a zeroed result
    // or a non-finite mission time from a near-zero safe velocity.
    for (const MissionLeg &leg : legs) {
        const double leg_velocity = frame->safeVelocityMps(
            result.actionThroughputHz, leg.massG);
        if (frame->canFly(leg.massG) &&
            leg_velocity >= kMinSafeVelocityMps)
            continue;
        result.feasible = false;
        result.numMissions = 0.0;
        result.infeasibleReason = frame->infeasibleReason(
            leg.massG, result.actionThroughputHz);
        if (result.infeasibleReason.empty())
            result.infeasibleReason = "flight envelope infeasible";
        if (leg.massG != result.totalMassG)
            result.infeasibleReason =
                "with delivery payload: " + result.infeasibleReason;
        return result;
    }
    result.feasible = true;

    result.rotorPowerW = frame->propulsionPowerW(result.totalMassG,
                                                 result.safeVelocityMps);
    result.totalPowerW = result.rotorPowerW + result.computePowerW +
                         uavSpec.otherElectronicsW;

    double cruise_time = 0.0;
    double cruise_energy = 0.0;
    for (const MissionLeg &leg : legs) {
        const double leg_velocity = frame->safeVelocityMps(
            result.actionThroughputHz, leg.massG);
        const double radius = frame->turnRadiusM(leg.massG, leg_velocity);
        const double path =
            leg.pathM + static_cast<double>(leg.turns) * (kPi * radius);
        const double leg_time = path / leg_velocity;
        const double leg_power =
            frame->propulsionPowerW(leg.massG, leg_velocity) +
            result.computePowerW + uavSpec.otherElectronicsW;
        cruise_time += leg_time;
        cruise_energy += leg_power * leg_time;
    }

    const double overhead_power =
        frame->overheadPowerW(result.totalMassG);
    const double overhead_energy =
        (overhead_power + result.computePowerW +
         uavSpec.otherElectronicsW) *
        uavSpec.fixedHoverSeconds;

    result.missionTimeS = cruise_time + uavSpec.fixedHoverSeconds;
    result.missionEnergyJ = cruise_energy + overhead_energy;
    result.numMissions = uavSpec.batteryEnergyJ() / result.missionEnergyJ;
    return result;
}

int
MissionModel::selectSensorFps(double required_hz) const
{
    std::vector<int> choices = uavSpec.sensorFpsChoices;
    std::sort(choices.begin(), choices.end());
    for (int fps : choices) {
        if (static_cast<double>(fps) >= required_hz)
            return fps;
    }
    return choices.back();
}

int
MissionModel::sensorFpsAtKnee(double compute_payload_g) const
{
    return selectSensorFps(
        frame->kneeThroughputHz(frame->totalMassGrams(compute_payload_g)));
}

} // namespace autopilot::uav
