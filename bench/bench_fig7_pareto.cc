/**
 * @file
 * Reproduces Fig. 7: the Phase 2 Pareto frontier for the nano-UAV dense
 * scenario, the HT / LP / HE / AP design picks, and the
 * weight-power-velocity relationships that explain Phase 3's choice.
 *
 * Paper reference points: HT 205 FPS @ 8.24 W (65 g), AP 46 FPS @ 0.7 W
 * (24 g), HE 96 FPS @ 1.5 W (64 FPS/W vs AP 55 FPS/W), LP 18.4 Hz.
 */

#include <iostream>

#include "bench_common.h"
#include "uav/airframe.h"

using namespace autopilot;

int
main()
{
    std::cout << "=== Fig. 7: Phase 2 frontier and design strategies "
                 "(nano-UAV, dense) ===\n\n";

    core::AutoPilot pilot(
        bench::benchTask(airlearning::ObstacleDensity::Dense));
    const uav::UavSpec nano = uav::zhangNano();
    const core::AutoPilotRun run = pilot.designFor(nano);

    // (a) Pareto frontier of the Phase 2 archive.
    const auto front = run.dseResult.front();
    std::cout << "(a) Phase 2 archive: " << run.dseResult.archive.size()
              << " evaluated designs, " << front.size()
              << " Pareto-optimal:\n";
    util::Table frontier({"design", "success %", "SoC W", "latency ms",
                          "FPS"});
    for (const dse::Evaluation &eval : front) {
        frontier.addRow({eval.point.name(),
                         util::formatDouble(eval.successRate * 100, 1),
                         util::formatDouble(eval.socPowerW, 2),
                         util::formatDouble(eval.latencyMs, 1),
                         util::formatDouble(eval.fps, 1)});
    }
    frontier.print(std::cout);

    // (d-g) Strategy picks on isolated compute metrics.
    const core::DesignStrategy strategies[] = {
        core::DesignStrategy::HighThroughput,
        core::DesignStrategy::LowPower,
        core::DesignStrategy::HighEfficiency,
        core::DesignStrategy::AutoPilotPick,
    };
    std::cout << "\n(b-g) Strategy picks (candidates with near-best "
                 "success):\n";
    util::Table picks({"strategy", "design", "FPS", "SoC W", "FPS/W",
                       "payload g", "v_safe m/s", "provisioning",
                       "missions"});
    for (core::DesignStrategy strategy : strategies) {
        const core::FullSystemDesign design =
            core::AutoPilot::selectByStrategy(run.candidates, strategy);
        picks.addRow(
            {core::strategyName(strategy), bench::designLabel(design),
             util::formatDouble(design.eval.fps, 1),
             util::formatDouble(design.eval.socPowerW, 2),
             util::formatDouble(design.eval.fps / design.eval.socPowerW,
                                1),
             util::formatDouble(design.payloadGrams, 1),
             util::formatDouble(design.mission.safeVelocityMps, 1),
             uav::provisioningName(design.mission.provisioning),
             util::formatDouble(design.mission.numMissions, 1)});
    }
    picks.print(std::cout);

    // (b, c) Weight vs power and velocity vs weight across candidates.
    std::cout << "\n(b, c) weight-power and velocity-weight relations "
                 "across candidates:\n";
    util::Table relations(
        {"design", "NPU W", "payload g", "v ceiling m/s"});
    const uav::QuadrotorAirframe quad(nano);
    for (const core::FullSystemDesign &candidate : run.candidates) {
        const double mass = quad.totalMassGrams(candidate.payloadGrams);
        relations.addRow(
            {candidate.eval.point.accel.name(),
             util::formatDouble(candidate.eval.npuPowerW, 2),
             util::formatDouble(candidate.payloadGrams, 1),
             util::formatDouble(quad.velocityCeilingMps(mass), 1)});
    }
    relations.print(std::cout);

    std::cout << "\nPaper anchors: HT 205 FPS @ 8.24 W (65 g); AP 46 FPS "
                 "@ 0.7 W (24 g); HE 96 FPS @ 1.5 W; LP 18.4 Hz.\n";
    return 0;
}
