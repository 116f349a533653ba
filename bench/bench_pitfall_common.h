/**
 * @file
 * Shared driver for the Section V-B pitfall benches (Figs. 8, 9, 10):
 * compare one traditional design strategy against the AutoPilot pick on
 * the nano-UAV and print the mission comparison plus both designs mapped
 * onto the F-1 model.
 */

#ifndef AUTOPILOT_BENCH_BENCH_PITFALL_COMMON_H
#define AUTOPILOT_BENCH_BENCH_PITFALL_COMMON_H

#include <iostream>

#include "bench_common.h"
#include "uav/airframe.h"

namespace autopilot::bench
{

/**
 * Run the nano-UAV dense-scenario pipeline and print the comparison of
 * @p strategy vs. the AutoPilot selection.
 *
 * @param strategy     The traditional strategy under study.
 * @param paper_ratio  The AP-over-strategy mission ratio the paper
 *                     reports (2.25x HT, 1.8x LP, 1.3x HE).
 */
inline void
runPitfallBench(core::DesignStrategy strategy, double paper_ratio)
{
    core::AutoPilot pilot(
        benchTask(airlearning::ObstacleDensity::Dense));
    const uav::UavSpec nano = uav::zhangNano();
    const core::AutoPilotRun run = pilot.designFor(nano);

    const core::FullSystemDesign other =
        core::AutoPilot::selectByStrategy(run.candidates, strategy);
    const core::FullSystemDesign &ap = run.selected;

    std::cout << "(a) Missions per charge:\n";
    util::Table missions({"design", "point", "FPS", "SoC W", "payload g",
                          "v_safe m/s", "missions"});
    for (const auto *design : {&other, &ap}) {
        const bool is_ap = design == &ap;
        missions.addRow(
            {is_ap ? "AP" : core::strategyName(strategy),
             designLabel(*design),
             util::formatDouble(design->eval.fps, 1),
             util::formatDouble(design->eval.socPowerW, 2),
             util::formatDouble(design->payloadGrams, 1),
             util::formatDouble(design->mission.safeVelocityMps, 1),
             util::formatDouble(design->mission.numMissions, 1)});
    }
    missions.print(std::cout);

    const double measured =
        other.mission.numMissions > 0.0
            ? ap.mission.numMissions / other.mission.numMissions
            : 99.0;
    std::cout << "\nAP / " << core::strategyName(strategy)
              << " mission ratio: " << util::formatRatio(measured)
              << "  (paper: " << util::formatRatio(paper_ratio) << ")\n";

    std::cout << "\n(b) F-1 view on the nano-UAV:\n";
    util::Table f1_table({"design", "action Hz", "knee Hz",
                          "v ceiling m/s", "v_safe m/s",
                          "provisioning"});
    const uav::QuadrotorAirframe quad(nano);
    for (const auto *design : {&other, &ap}) {
        const bool is_ap = design == &ap;
        const double mass = quad.totalMassGrams(design->payloadGrams);
        f1_table.addRow(
            {is_ap ? "AP" : core::strategyName(strategy),
             util::formatDouble(design->mission.actionThroughputHz, 1),
             util::formatDouble(design->mission.kneeThroughputHz, 1),
             util::formatDouble(quad.velocityCeilingMps(mass), 1),
             util::formatDouble(design->mission.safeVelocityMps, 1),
             uav::provisioningName(design->mission.provisioning)});
    }
    f1_table.print(std::cout);
}

} // namespace autopilot::bench

#endif // AUTOPILOT_BENCH_BENCH_PITFALL_COMMON_H
