/**
 * @file
 * F-1 bottleneck analysis (the ISPASS'22 "Roofline model for UAVs" [45]
 * companion tool): given a full system configuration, identify which
 * pipeline stage bounds the vehicle's safe velocity and quantify the
 * headroom each stage upgrade would unlock.
 */

#ifndef AUTOPILOT_UAV_BOTTLENECK_H
#define AUTOPILOT_UAV_BOTTLENECK_H

#include <string>

#include "uav/uav_spec.h"

namespace autopilot::uav
{

/** The stage bounding the sensor-compute-control-physics pipeline. */
enum class BottleneckStage
{
    Sensor,      ///< Sensor frame rate bounds the action throughput.
    Compute,     ///< Policy inference rate bounds the action throughput.
    Control,     ///< Flight-controller loop bounds the pipeline.
    BodyDynamics,///< Throughput suffices; thrust-to-weight caps velocity.
};

/** Human-readable stage name. */
std::string bottleneckStageName(BottleneckStage stage);

/** Full bottleneck report for one configuration. */
struct BottleneckReport
{
    BottleneckStage stage = BottleneckStage::BodyDynamics;
    double actionThroughputHz = 0.0;
    double kneeThroughputHz = 0.0;
    double safeVelocityMps = 0.0;
    double velocityCeilingMps = 0.0;
    /// Safe velocity if the bounding stage alone were made infinitely
    /// fast (for BodyDynamics: if the compute payload were massless).
    double unboundedVelocityMps = 0.0;

    /** Fraction of velocity lost to the bottleneck (0 = balanced). */
    double velocityLossFraction() const;
};

/**
 * Analyze the pipeline bottleneck of a concrete configuration.
 *
 * @param spec              Vehicle.
 * @param compute_payload_g Onboard-compute mass, grams.
 * @param compute_fps       Policy inference rate.
 * @param sensor_fps        Sensor frame rate.
 */
BottleneckReport analyzeBottleneck(const UavSpec &spec,
                                   double compute_payload_g,
                                   double compute_fps,
                                   double sensor_fps);

} // namespace autopilot::uav

#endif // AUTOPILOT_UAV_BOTTLENECK_H
