/**
 * @file
 * Ground-truth optimality check for the whole methodology: exhaustively
 * enumerate a tractable slice of the hardware space (best dense policy,
 * matched scratchpads: 8 x 8 x 8 = 512 designs), compute every design's
 * mission count through the full Phase 3 pipeline, and compare the true
 * optimum against what AutoPilot's sampled BO + F-1 selection finds.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "power/mass_model.h"
#include "power/npu_power.h"
#include "power/soc_power.h"
#include "systolic/engine.h"
#include "uav/mission.h"

using namespace autopilot;

int
main()
{
    std::cout << "=== Exhaustive slice vs AutoPilot selection "
                 "(nano-UAV, dense) ===\n\n";

    const uav::UavSpec nano = uav::zhangNano();
    const uav::MissionModel mission_model(nano);
    const power::MassModel mass_model;

    // AutoPilot run (sampled BO + F-1 back end).
    core::AutoPilot pilot(
        bench::benchTask(airlearning::ObstacleDensity::Dense));
    const core::AutoPilotRun run = pilot.designFor(nano);
    const auto &ap = run.selected;

    // Exhaustive slice: the AP policy on every (rows x cols x sram)
    // with matched scratchpads.
    const nn::Model model = nn::buildE2EModel(ap.eval.point.policy);
    const systolic::HardwareSpace space;

    struct Entry
    {
        systolic::AcceleratorConfig config;
        double fps = 0.0;
        double npuW = 0.0;
        double missions = 0.0;
    };
    std::vector<Entry> entries;
    for (int rows : space.peRowChoices) {
        for (int cols : space.peColChoices) {
            for (int sram : space.sramKbChoices) {
                Entry entry;
                entry.config.peRows = rows;
                entry.config.peCols = cols;
                entry.config.ifmapSramKb = sram;
                entry.config.filterSramKb = sram;
                entry.config.ofmapSramKb = sram;

                const systolic::AnalyticalEngine engine(entry.config);
                const systolic::RunResult result = engine.run(model);
                entry.fps =
                    result.framesPerSecond(entry.config.clockGhz);
                entry.npuW = power::NpuPowerModel(entry.config)
                                 .averagePowerW(result);
                const double payload =
                    mass_model.computePayloadGrams(entry.npuW);
                const int sensor =
                    mission_model.sensorFpsAtKnee(payload);
                entry.missions =
                    mission_model
                        .evaluate(payload,
                                  power::socPower(entry.npuW).totalW(),
                                  entry.fps, sensor)
                        .numMissions;
                entries.push_back(entry);
            }
        }
    }

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.missions > b.missions;
              });

    std::cout << "Exhaustive slice: " << entries.size()
              << " designs (policy "
              << nn::policyName(ap.eval.point.policy)
              << ", matched scratchpads). Top 5 by missions:\n";
    util::Table top({"accelerator", "FPS", "NPU W", "missions"});
    for (std::size_t i = 0; i < 5 && i < entries.size(); ++i) {
        top.addRow({entries[i].config.name(),
                    util::formatDouble(entries[i].fps, 1),
                    util::formatDouble(entries[i].npuW, 2),
                    util::formatDouble(entries[i].missions, 1)});
    }
    top.print(std::cout);

    const double true_best = entries.front().missions;
    const double achieved = ap.mission.numMissions;
    std::cout << "\nAutoPilot selection: "
              << bench::designLabel(ap) << " -> "
              << util::formatDouble(achieved, 1) << " missions\n";
    std::cout << "True slice optimum:  "
              << util::formatDouble(true_best, 1)
              << " missions; AutoPilot achieves "
              << util::formatDouble(100.0 * achieved / true_best, 1)
              << "% of it with "
              << run.dseResult.archive.size() << " evaluations vs "
              << entries.size() * 27
              << " for the full exhaustive grid.\n";
    return 0;
}
