#include "core/baseline_eval.h"

#include "power/soc_power.h"

namespace autopilot::core
{

BaselineMissionResult
evaluateBaselineOnUav(const BaselinePlatform &platform,
                      const nn::Model &model, const uav::UavSpec &uav)
{
    BaselineMissionResult result;
    result.platformName = platform.name;
    result.fps = platform.framesPerSecond(model);
    // The board still needs the camera and its interface.
    result.computePowerW =
        power::socPower(platform.runPowerW).totalW();
    result.payloadGrams = platform.massGrams;

    const uav::MissionModel mission_model(uav);
    result.sensorFps = mission_model.sensorFpsAtKnee(result.payloadGrams);
    result.mission = mission_model.evaluate(
        result.payloadGrams, result.computePowerW, result.fps,
        static_cast<double>(result.sensorFps));
    return result;
}

} // namespace autopilot::core
