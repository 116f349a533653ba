/**
 * @file
 * Mission planner: the full AutoPilot workflow a drone-fleet operator
 * would run.
 *
 * Usage: mission_planner [nano|micro|mini] [low|medium|dense]
 *
 * Designs the DSSoC for the chosen vehicle and scenario, compares it
 * against off-the-shelf boards, runs the F-1 bottleneck analyzer on the
 * result, and persists the Phase 1/2 artifacts to CSV so later runs (or
 * other vehicles) can reuse them.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/autopilot.h"
#include "core/baseline_eval.h"
#include "core/baselines.h"
#include "io/persistence.h"
#include "uav/bottleneck.h"
#include "util/logging.h"
#include "util/table.h"

using namespace autopilot;

namespace
{

uav::UavSpec
parseUav(const std::string &name)
{
    if (name == "nano")
        return uav::zhangNano();
    if (name == "micro")
        return uav::djiSpark();
    if (name == "mini")
        return uav::ascTecPelican();
    util::fatal("unknown UAV class '" + name +
                "' (use nano|micro|mini)");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string uav_name = argc > 1 ? argv[1] : "nano";
    const std::string density_name = argc > 2 ? argv[2] : "dense";
    const uav::UavSpec vehicle = parseUav(uav_name);
    airlearning::ObstacleDensity density{};
    if (!airlearning::densityFromName(density_name, density))
        util::fatal("unknown scenario '" + density_name +
                    "' (use low|medium|dense)");

    std::cout << "Designing a DSSoC for " << vehicle.name << " ("
              << density_name << " obstacles)\n\n";

    core::TaskSpec task;
    task.density = density;
    task.validationEpisodes = 150;
    task.dseBudget = 100;
    core::AutoPilot pilot(task);
    const core::AutoPilotRun run = pilot.designFor(vehicle);
    const core::FullSystemDesign &ap = run.selected;

    util::Table result({"metric", "AutoPilot design"});
    result.addRow({"policy", nn::policyName(ap.eval.point.policy)});
    result.addRow({"accelerator", ap.eval.point.accel.name()});
    result.addRow({"success rate",
                   util::formatDouble(ap.eval.successRate * 100, 1) +
                       " %"});
    result.addRow({"inference rate",
                   util::formatDouble(ap.eval.fps, 1) + " FPS"});
    result.addRow({"SoC power",
                   util::formatDouble(ap.eval.socPowerW, 2) + " W"});
    result.addRow({"compute payload",
                   util::formatDouble(ap.payloadGrams, 1) + " g"});
    result.addRow({"missions / charge",
                   util::formatDouble(ap.mission.numMissions, 1)});
    result.print(std::cout);

    // Bottleneck analysis of the selected system.
    const uav::BottleneckReport report = uav::analyzeBottleneck(
        vehicle, ap.payloadGrams, ap.eval.fps,
        static_cast<double>(ap.sensorFps));
    std::cout << "\nBottleneck: "
              << uav::bottleneckStageName(report.stage) << " (action "
              << util::formatDouble(report.actionThroughputHz, 1)
              << " Hz vs knee "
              << util::formatDouble(report.kneeThroughputHz, 1)
              << " Hz; removing it would buy "
              << util::formatDouble(
                     report.velocityLossFraction() * 100, 0)
              << "% velocity)\n";

    // Comparison against off-the-shelf boards.
    std::cout << "\nOff-the-shelf comparison:\n";
    util::Table compare({"platform", "FPS", "power W", "mass g",
                         "missions", "AutoPilot gain"});
    const nn::Model model = nn::buildE2EModel(ap.eval.point.policy);
    for (const core::BaselinePlatform &platform :
         {core::jetsonTx2(), core::xavierNx(), core::intelNcs(),
          core::pulpDronet()}) {
        const auto baseline =
            core::evaluateBaselineOnUav(platform, model, vehicle);
        const double missions = baseline.mission.numMissions;
        compare.addRow(
            {platform.name, util::formatDouble(baseline.fps, 1),
             util::formatDouble(baseline.computePowerW, 2),
             util::formatDouble(baseline.payloadGrams, 1),
             util::formatDouble(missions, 1),
             missions > 0.0
                 ? util::formatRatio(ap.mission.numMissions / missions)
                 : "infeasible"});
    }
    compare.print(std::cout);

    // Persist the reusable artifacts.
    {
        std::ofstream db_file("policy_database_" + density_name +
                              ".csv");
        io::writePolicyDatabase(pilot.phase1(), db_file);
        std::ofstream archive_file("dse_archive_" + density_name +
                                   ".csv");
        io::writeDseArchive(run.dseResult.archive, archive_file);
    }
    std::cout << "\nSaved policy_database_" << density_name
              << ".csv and dse_archive_" << density_name
              << ".csv for reuse.\n";
    return 0;
}
