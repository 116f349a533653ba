/**
 * @file
 * NPU (accelerator sub-system) power estimation.
 *
 * Combines the PE, SRAM and DRAM models over a systolic RunResult exactly
 * as Section III-B describes: the cycle simulator produces SRAM/DRAM access
 * counts, CACTI-style and Micron-style models convert them to energy, and
 * the PE array contributes dynamic MAC energy plus leakage.
 */

#ifndef AUTOPILOT_POWER_NPU_POWER_H
#define AUTOPILOT_POWER_NPU_POWER_H

#include "power/dram_model.h"
#include "power/pe_model.h"
#include "power/sram_model.h"
#include "power/technology.h"
#include "systolic/config.h"
#include "systolic/engine.h"

namespace autopilot::power
{

/** Breakdown of NPU average power in watts. */
struct NpuPowerBreakdown
{
    double peDynamicW = 0.0;
    double peLeakageW = 0.0;
    double sramDynamicW = 0.0;
    double sramLeakageW = 0.0;
    double dramW = 0.0;
    double controllerW = 0.0; ///< Fixed sequencer/NoC/clock-tree floor.

    /** Sum of all components. */
    double totalW() const
    {
        return peDynamicW + peLeakageW + sramDynamicW + sramLeakageW +
               dramW + controllerW;
    }
};

/** Estimator for a given accelerator configuration. */
class NpuPowerModel
{
  public:
    /**
     * @param config Accelerator configuration.
     * @param node   Process node for all sub-models.
     */
    explicit NpuPowerModel(const systolic::AcceleratorConfig &config,
                           const TechnologyNode &node = referenceNode());

    /**
     * Average power while continuously running the given workload.
     *
     * @param run Result of simulating the policy on this configuration.
     * @param backgroundBytesPerSec Non-NPU traffic sharing the DRAM
     *        channel (camera/host streams, see
     *        systolic::ContentionProfile); charged to the DRAM
     *        component on top of the run's own traffic. Must be finite
     *        and >= 0.
     *
     * Fatal when the run's duration at this configuration's clock is
     * zero, denormal or non-finite - the pJ-to-W conversion would
     * otherwise overflow to inf and NaN every derived objective
     * silently.
     */
    NpuPowerBreakdown estimate(const systolic::RunResult &run,
                               double backgroundBytesPerSec = 0.0) const;

    /** Average total power in watts (convenience). */
    double averagePowerW(const systolic::RunResult &run,
                         double backgroundBytesPerSec = 0.0) const;

    const systolic::AcceleratorConfig &config() const { return cfg; }

  private:
    systolic::AcceleratorConfig cfg;
    TechnologyNode tech;
    PeModel peModel;
    DramModel dramModel;
    SramModel ifmapSram;
    SramModel filterSram;
    SramModel ofmapSram;

    // Fixed controller / NoC / clock-tree power at 28 nm, watts, plus a
    // multiplicative margin for glue logic.
    static constexpr double controllerBaseW = 0.10;
    static constexpr double glueMargin = 1.15;
};

} // namespace autopilot::power

#endif // AUTOPILOT_POWER_NPU_POWER_H
