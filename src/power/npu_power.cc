#include "power/npu_power.h"

#include <cmath>
#include <string>

#include "util/logging.h"

namespace autopilot::power
{

NpuPowerModel::NpuPowerModel(const systolic::AcceleratorConfig &config,
                             const TechnologyNode &node)
    : cfg(config), tech(node), peModel(node),
      ifmapSram(config.ifmapSramKb, node),
      filterSram(config.filterSramKb, node),
      ofmapSram(config.ofmapSramKb, node)
{
    cfg.validate();
}

NpuPowerBreakdown
NpuPowerModel::estimate(const systolic::RunResult &run,
                        double backgroundBytesPerSec) const
{
    const systolic::LayerTraffic &traffic = run.traffic;
    util::fatalIf(run.totalCycles <= 0,
                  "NpuPowerModel::estimate: empty run result");
    util::fatalIf(!(backgroundBytesPerSec >= 0.0) ||
                      !std::isfinite(backgroundBytesPerSec),
                  "NpuPowerModel::estimate: background DRAM traffic "
                  "must be finite and >= 0");

    // Same expression as RunResult::runtimeSeconds at this clock.
    const double seconds =
        static_cast<double>(run.totalCycles) / (cfg.clockGhz * 1e9);
    const double pj_to_w = 1e-12 / seconds;
    // A huge clock against a tiny cycle count makes `seconds` denormal
    // (or, through upstream arithmetic bugs, zero/NaN) and `pj_to_w`
    // inf - which would NaN every objective downstream without a
    // diagnostic. Refuse the degenerate conversion instead.
    util::fatalIf(!std::isfinite(seconds) || !std::isfinite(pj_to_w),
                  "NpuPowerModel::estimate: degenerate run duration (" +
                      std::to_string(seconds) +
                      " s) - clock/cycle counts produce a non-finite "
                      "pJ-to-W conversion");

    NpuPowerBreakdown breakdown;

    // MAC energy scales with the configured operand width - before this
    // the traffic side already charged bytesPerElement while every MAC
    // was billed at the INT8 constant, silently under-charging any
    // non-int8 configuration.
    breakdown.peDynamicW = static_cast<double>(run.totalMacs) *
                           peModel.macEnergyPj(cfg.bytesPerElement) *
                           pj_to_w;
    breakdown.peLeakageW = peModel.arrayLeakageMw(cfg.peCount()) * 1e-3;

    // SRAM access counts are element counts; the per-access energies are
    // for one 8-bit word, so wider operands cost proportionally more
    // (x1 at the int8 default keeps legacy numbers bit-identical).
    const double sram_width =
        static_cast<double>(cfg.bytesPerElement);
    double sram_pj = 0.0;
    sram_pj += static_cast<double>(traffic.ifmapSramReads) *
               ifmapSram.readEnergyPj();
    sram_pj += static_cast<double>(traffic.filterSramReads) *
               filterSram.readEnergyPj();
    sram_pj += static_cast<double>(traffic.ofmapSramWrites) *
               ofmapSram.writeEnergyPj();
    sram_pj += static_cast<double>(traffic.psumSramReads) *
               ofmapSram.readEnergyPj();
    sram_pj += static_cast<double>(traffic.psumSramWrites) *
               ofmapSram.writeEnergyPj();
    breakdown.sramDynamicW = sram_pj * sram_width * pj_to_w;

    breakdown.sramLeakageW =
        (ifmapSram.leakageMw() + filterSram.leakageMw() +
         ofmapSram.leakageMw()) *
        1e-3;

    const double bytes_per_second =
        static_cast<double>(traffic.totalDramBytes()) / seconds +
        backgroundBytesPerSec;
    breakdown.dramW = dramModel.averagePowerMw(bytes_per_second) * 1e-3;

    breakdown.controllerW = controllerBaseW * tech.leakageScale;

    // Apply the glue margin to the dynamic components.
    breakdown.peDynamicW *= glueMargin;
    breakdown.sramDynamicW *= glueMargin;

    return breakdown;
}

double
NpuPowerModel::averagePowerW(const systolic::RunResult &run,
                             double backgroundBytesPerSec) const
{
    return estimate(run, backgroundBytesPerSec).totalW();
}

} // namespace autopilot::power
