/**
 * @file
 * Pluggable airframe layer: the flight-envelope queries the mission model
 * needs, abstracted over vehicle dynamics.
 *
 * The F-1 abstraction (safe velocity vs action throughput) generalizes
 * across airframes with very different ceilings and energetics: a
 * rotorcraft's ceiling is braking-limited and its power is momentum-theory
 * induced power, while a fixed wing has a stall-speed floor, a
 * turn-radius-limited path and a far better lift-to-drag J/m. Everything
 * the mission evaluator, the bottleneck analyzer and the baselines ask
 * about the vehicle goes through this interface. QuadrotorAirframe is the
 * one rotorcraft F-1 model (v_safe = min(d_clear * theta, v_ceiling),
 * v_ceiling = min(sqrt(2 * a_max * d_sense), structural limit)); an exact
 * golden table in the tests pins its numbers.
 */

#ifndef AUTOPILOT_UAV_AIRFRAME_H
#define AUTOPILOT_UAV_AIRFRAME_H

#include <memory>
#include <string>

#include "uav/uav_spec.h"

namespace autopilot::uav
{

/** Airframe family; selects an Airframe implementation. */
enum class AirframeKind
{
    Quadrotor, ///< Rotorcraft: hovers, turns in place, induced-power cruise.
    FixedWing, ///< Fixed wing: stall floor, banked turns, L/D cruise.
};

/** Provisioning classification of a design against the knee point. */
enum class Provisioning
{
    UnderProvisioned, ///< Below the knee: velocity is compute-bound.
    Balanced,         ///< At the knee (within kBalancedKneeBand).
    OverProvisioned,  ///< Beyond the knee: extra throughput buys nothing.
};

/** Human-readable provisioning label. */
std::string provisioningName(Provisioning provisioning);

/**
 * Relative band around the knee that Airframe::classify treats as
 * balanced (Fig. 4b).
 */
constexpr double kBalancedKneeBand = 0.15;

/**
 * Safe velocities below this are treated as "cannot move": the mission
 * would otherwise report astronomically long finite (or non-finite)
 * times and energies instead of a diagnosed infeasibility.
 */
constexpr double kMinSafeVelocityMps = 1e-6;

/** Stable lower-case name ("quad", "fixed-wing") for CLI/JSON/CSV. */
std::string airframeKindName(AirframeKind kind);

/** Parse an airframe name; returns false on unknown names. */
bool airframeKindFromName(const std::string &name, AirframeKind &out);

/**
 * Flight-envelope and energetics queries for one vehicle. All masses are
 * all-up grams; implementations must be pure functions of (spec, mass,
 * velocity) so evaluations stay deterministic and cacheable.
 */
class Airframe
{
  public:
    virtual ~Airframe() = default;

    virtual AirframeKind kind() const = 0;

    /** All-up mass at a given compute payload, grams. */
    double totalMassGrams(double compute_payload_g) const;

    /** True when the vehicle can sustain flight at this mass at all. */
    virtual bool canFly(double total_mass_g) const = 0;

    /**
     * Body-dynamics velocity ceiling at this mass, m/s (0 when the
     * vehicle cannot fly). Falls as mass rises: the mass -> ceiling
     * coupling that makes heavy compute payloads expensive.
     */
    virtual double velocityCeilingMps(double total_mass_g) const = 0;

    /**
     * Minimum sustainable airspeed, m/s: 0 for rotorcraft, the stall
     * floor for fixed wings. Safe velocities below this are infeasible,
     * not merely slow.
     */
    virtual double minAirspeedMps(double total_mass_g) const = 0;

    /**
     * F-1 safe velocity at a given action throughput, m/s. Returns 0
     * when the envelope admits no speed (e.g. the throughput-bound
     * velocity sits below the stall floor).
     */
    virtual double safeVelocityMps(double throughput_hz,
                                   double total_mass_g) const = 0;

    /** Knee point: minimum throughput that reaches the ceiling, Hz. */
    virtual double kneeThroughputHz(double total_mass_g) const = 0;

    /** Propulsion electrical power in steady flight at @p velocity_mps. */
    virtual double propulsionPowerW(double total_mass_g,
                                    double velocity_mps) const = 0;

    /**
     * Propulsion power during the fixed takeoff/landing overhead window:
     * hover power for rotorcraft, launch/recovery climb power for fixed
     * wings.
     */
    virtual double overheadPowerW(double total_mass_g) const = 0;

    /**
     * Minimum turning radius at speed, meters. 0 for rotorcraft (turn in
     * place); fixed wings pay v^2 / (g * sqrt(n^2 - 1)) per banked turn,
     * which stretches multi-turn mission paths.
     */
    virtual double turnRadiusM(double total_mass_g,
                               double velocity_mps) const = 0;

    /**
     * Human-readable diagnosis of why flight at (@p total_mass_g,
     * @p throughput_hz) is infeasible; empty string when it is feasible.
     */
    virtual std::string infeasibleReason(double total_mass_g,
                                         double throughput_hz) const = 0;

    /** Pipeline action throughput: slowest of sensor/compute/control. */
    double actionThroughputHz(double compute_fps, double sensor_fps) const;

    /**
     * Provisioning of a throughput against this airframe's knee, with
     * kBalancedKneeBand as the balanced band.
     */
    Provisioning classify(double throughput_hz,
                          double total_mass_g) const;

    const UavSpec &spec() const { return uavSpec; }

  protected:
    explicit Airframe(const UavSpec &spec);

    UavSpec uavSpec;
};

/**
 * The rotorcraft F-1 model: braking-limited ceiling from the thrust
 * budget (propulsion.h), turn in place, momentum-theory rotor power.
 */
class QuadrotorAirframe final : public Airframe
{
  public:
    explicit QuadrotorAirframe(const UavSpec &spec);

    AirframeKind kind() const override { return AirframeKind::Quadrotor; }
    bool canFly(double total_mass_g) const override;
    double velocityCeilingMps(double total_mass_g) const override;
    double minAirspeedMps(double total_mass_g) const override;
    double safeVelocityMps(double throughput_hz,
                           double total_mass_g) const override;
    double kneeThroughputHz(double total_mass_g) const override;
    double propulsionPowerW(double total_mass_g,
                            double velocity_mps) const override;
    double overheadPowerW(double total_mass_g) const override;
    double turnRadiusM(double total_mass_g,
                       double velocity_mps) const override;
    std::string infeasibleReason(double total_mass_g,
                                 double throughput_hz) const override;
};

/** Construct the airframe of @p kind over @p spec. */
std::unique_ptr<Airframe> makeAirframe(AirframeKind kind,
                                       const UavSpec &spec);

} // namespace autopilot::uav

#endif // AUTOPILOT_UAV_AIRFRAME_H
