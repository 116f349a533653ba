/**
 * @file
 * Mission-level performance model (Section IV, Eq. 1-4).
 *
 * The domain metric is the number of missions per battery charge:
 *
 *   N = E_battery / E_mission
 *   E_mission = (P_prop(v_safe) + P_compute + P_others) * D_eff / v_safe
 *               + fixed takeoff/landing overhead
 *
 * where v_safe comes from the airframe's F-1 envelope at the candidate
 * design's compute payload mass and action throughput, and D_eff is the
 * mission profile's effective path (search lanes, delivery legs, and the
 * turn-radius stretch fixed wings pay per course reversal).
 *
 * The model also owns the Section V-C sensor rule: carry the slowest
 * sensor that does not fall below the airframe's knee at all-up mass.
 * The default construction (one UavSpec) is the quadrotor
 * point-to-point model.
 */

#ifndef AUTOPILOT_UAV_MISSION_H
#define AUTOPILOT_UAV_MISSION_H

#include <memory>
#include <string>

#include "uav/airframe.h"
#include "uav/mission_profile.h"
#include "uav/uav_spec.h"

namespace autopilot::uav
{

/** Full evaluation of one compute design on one vehicle. */
struct MissionResult
{
    bool feasible = false;        ///< Vehicle can fly the profile.
    double totalMassG = 0.0;      ///< All-up mass (without drop payload).
    double actionThroughputHz = 0.0;
    double kneeThroughputHz = 0.0;
    double safeVelocityMps = 0.0;
    double rotorPowerW = 0.0;     ///< Propulsion power at safe velocity.
    double computePowerW = 0.0;   ///< Full SoC power.
    double totalPowerW = 0.0;
    double missionTimeS = 0.0;
    double missionEnergyJ = 0.0;
    double numMissions = 0.0;
    Provisioning provisioning = Provisioning::UnderProvisioned;
    /// Human-readable diagnosis when infeasible; empty when feasible.
    std::string infeasibleReason;
};

/** Mission evaluator for one vehicle flying one profile. */
class MissionModel
{
  public:
    /**
     * Quadrotor point-to-point on @p spec: the same as the explicit
     * (Quadrotor, default MissionProfile) construction.
     *
     * @param spec Vehicle specification (validated).
     */
    explicit MissionModel(const UavSpec &spec);

    /** Any airframe flying any mission profile over @p spec. */
    MissionModel(const UavSpec &spec, AirframeKind airframe,
                 const MissionProfile &profile);

    /**
     * Evaluate a compute design.
     *
     * @param compute_payload_g Onboard-compute mass (PCB + heatsink), g.
     * @param soc_power_w       Full-SoC average power, watts.
     * @param compute_fps       Policy inference rate, frames/s.
     * @param sensor_fps        Selected sensor rate, frames/s.
     */
    MissionResult evaluate(double compute_payload_g, double soc_power_w,
                           double compute_fps, double sensor_fps) const;

    /**
     * Pick the slowest sensor from the spec's choices that does not bound
     * the pipeline below @p required_hz; returns the fastest choice when
     * none suffices (Section V-C: "60 FPS sensors to avoid being
     * sensor-bound").
     */
    int selectSensorFps(double required_hz) const;

    /**
     * The Section V-C pick for a design: selectSensorFps of this
     * airframe's knee at the all-up mass for @p compute_payload_g.
     */
    int sensorFpsAtKnee(double compute_payload_g) const;

    const UavSpec &spec() const { return uavSpec; }
    const Airframe &airframe() const { return *frame; }
    const MissionProfile &profile() const { return missionProfile; }

  private:
    UavSpec uavSpec;
    std::shared_ptr<const Airframe> frame;
    MissionProfile missionProfile;
};

} // namespace autopilot::uav

#endif // AUTOPILOT_UAV_MISSION_H
