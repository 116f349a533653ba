/**
 * @file
 * Architectural fine-tuning study (Section III-C): when no Phase 2
 * candidate sits on the F-1 knee, AutoPilot shifts a design onto it with
 * frequency scaling, or ports it to another technology node. This bench
 * takes an over-provisioned design, scales its clock down to the
 * nano-UAV knee, and shows the mission gain; then ports the AP-class
 * design across nodes.
 */

#include <iostream>

#include "core/autopilot.h"
#include "core/fine_tuning.h"
#include "power/mass_model.h"
#include "uav/mission.h"
#include "util/table.h"

using namespace autopilot;

namespace
{

core::FullSystemDesign
lower(const dse::Evaluation &eval, const uav::UavSpec &vehicle)
{
    return core::AutoPilot::mapToFullSystem(eval, vehicle);
}

} // namespace

int
main()
{
    const uav::UavSpec nano = uav::zhangNano();

    std::cout << "=== Architectural fine-tuning onto the F-1 knee "
                 "(nano-UAV) ===\n\n";

    // An over-provisioned starting point: a large array at full clock
    // running the dense-scenario policy.
    dse::DesignPoint point;
    point.policy = {7, 48};
    point.accel.peRows = 64;
    point.accel.peCols = 64;
    point.accel.ifmapSramKb = 512;
    point.accel.filterSramKb = 512;
    point.accel.ofmapSramKb = 512;
    const dse::Evaluation base =
        core::ArchitecturalTuner::reevaluate(point, 0.85);

    // Find the knee for this design's mass and retune the clock to it.
    const core::FullSystemDesign base_design = lower(base, nano);
    const double knee = base_design.mission.kneeThroughputHz;
    const dse::Evaluation tuned =
        core::ArchitecturalTuner::scaleFrequency(base, knee);
    const core::FullSystemDesign tuned_design = lower(tuned, nano);

    util::Table freq({"design", "clock GHz", "FPS", "NPU W",
                      "payload g", "provisioning", "missions"});
    for (const auto *design : {&base_design, &tuned_design}) {
        freq.addRow(
            {design == &base_design ? "original (over-provisioned)"
                                    : "frequency-scaled to knee",
             util::formatDouble(design->eval.point.accel.clockGhz, 3),
             util::formatDouble(design->eval.fps, 1),
             util::formatDouble(design->eval.npuPowerW, 2),
             util::formatDouble(design->payloadGrams, 1),
             uav::provisioningName(design->mission.provisioning),
             util::formatDouble(design->mission.numMissions, 1)});
    }
    freq.print(std::cout);
    std::cout << "\nMission gain from frequency scaling: "
              << util::formatRatio(tuned_design.mission.numMissions /
                                   base_design.mission.numMissions)
              << "\n\n";

    // Technology-node port of an AP-class design.
    std::cout << "=== Technology-node scaling of an AP-class design "
                 "===\n\n";
    dse::DesignPoint ap_point;
    ap_point.policy = {7, 48};
    ap_point.accel.peRows = 32;
    ap_point.accel.peCols = 16;
    ap_point.accel.ifmapSramKb = 256;
    ap_point.accel.filterSramKb = 512;
    ap_point.accel.ofmapSramKb = 128;
    const dse::Evaluation ap28 =
        core::ArchitecturalTuner::reevaluate(ap_point, 0.85);

    util::Table nodes({"node", "clock GHz", "FPS", "NPU W", "payload g",
                       "missions"});
    for (int nm : {40, 28, 16, 7}) {
        const dse::Evaluation ported =
            nm == 28 ? ap28
                     : core::ArchitecturalTuner::scaleTechnology(ap28,
                                                                 nm);
        const core::FullSystemDesign design = lower(ported, nano);
        nodes.addRow(
            {std::to_string(nm) + " nm",
             util::formatDouble(ported.point.accel.clockGhz, 3),
             util::formatDouble(ported.fps, 1),
             util::formatDouble(ported.npuPowerW, 2),
             util::formatDouble(design.payloadGrams, 1),
             util::formatDouble(design.mission.numMissions, 1)});
    }
    nodes.print(std::cout);
    std::cout << "\nNewer nodes cut both the heatsink mass and the SoC "
                 "draw, compounding into mission gains - the paper's "
                 "second fine-tuning knob.\n";
    return 0;
}
