#include "uav/bottleneck.h"

#include <algorithm>

#include "uav/airframe.h"
#include "util/logging.h"

namespace autopilot::uav
{

std::string
bottleneckStageName(BottleneckStage stage)
{
    switch (stage) {
      case BottleneckStage::Sensor:       return "sensor-bound";
      case BottleneckStage::Compute:      return "compute-bound";
      case BottleneckStage::Control:      return "control-bound";
      case BottleneckStage::BodyDynamics: return "body-dynamics-bound";
    }
    return "?";
}

double
BottleneckReport::velocityLossFraction() const
{
    if (unboundedVelocityMps <= 0.0)
        return 0.0;
    return std::max(0.0,
                    1.0 - safeVelocityMps / unboundedVelocityMps);
}

BottleneckReport
analyzeBottleneck(const UavSpec &spec, double compute_payload_g,
                  double compute_fps, double sensor_fps)
{
    util::fatalIf(compute_fps <= 0.0 || sensor_fps <= 0.0,
                  "analyzeBottleneck: rates must be positive");

    const QuadrotorAirframe quad(spec);
    const double mass = quad.totalMassGrams(compute_payload_g);

    BottleneckReport report;
    report.actionThroughputHz =
        quad.actionThroughputHz(compute_fps, sensor_fps);
    report.kneeThroughputHz = quad.kneeThroughputHz(mass);
    report.safeVelocityMps =
        quad.safeVelocityMps(report.actionThroughputHz, mass);
    report.velocityCeilingMps = quad.velocityCeilingMps(mass);

    const bool throughput_bound =
        report.actionThroughputHz < report.kneeThroughputHz;
    if (throughput_bound) {
        // Identify the slowest stage.
        if (sensor_fps <= compute_fps &&
            sensor_fps <= spec.controlLoopHz) {
            report.stage = BottleneckStage::Sensor;
        } else if (compute_fps <= spec.controlLoopHz) {
            report.stage = BottleneckStage::Compute;
        } else {
            report.stage = BottleneckStage::Control;
        }
        // Unbounding the slow stage lifts velocity to whatever the other
        // stages and the ceiling allow.
        double remaining = spec.controlLoopHz;
        if (report.stage != BottleneckStage::Sensor)
            remaining = std::min(remaining, sensor_fps);
        if (report.stage != BottleneckStage::Compute)
            remaining = std::min(remaining, compute_fps);
        report.unboundedVelocityMps =
            quad.safeVelocityMps(remaining, mass);
    } else {
        report.stage = BottleneckStage::BodyDynamics;
        // Massless compute payload: the best ceiling this airframe can
        // reach with its current throughput.
        const double unloaded = quad.totalMassGrams(0.0);
        report.unboundedVelocityMps = std::min(
            quad.velocityCeilingMps(unloaded),
            quad.safeVelocityMps(report.actionThroughputHz, unloaded));
    }
    return report;
}

} // namespace autopilot::uav
