/**
 * @file
 * Campaign runner CLI: journaled, resumable multi-task AutoPilot runs.
 *
 * Default campaign: one task per obstacle density for the nano-UAV,
 * each with its own checkpoint subdirectory under --dir. Kill it at any
 * point and re-run with --resume to continue from the last committed
 * batch; the final report is byte-identical to an uninterrupted run.
 *
 *   campaign_runner --dir /tmp/campaign          # fresh run
 *   campaign_runner --dir /tmp/campaign --resume # continue after kill
 *
 * Service mode: `campaign_runner --serve ROOT` runs the file-drop
 * campaign daemon (runner::CampaignService) instead. Drop one
 * submission JSON per campaign into ROOT/inbox/ (write elsewhere, then
 * rename into place); results appear in ROOT/results/, live status in
 * ROOT/status/. Many campaigns run concurrently over one shared
 * work-stealing pool with per-tenant fair-share admission. SIGINT or
 * SIGTERM drains: running campaigns stop at the next batch boundary
 * and resume byte-identically on the next --serve. SIGKILL is also
 * safe - at most one in-flight batch per campaign is recomputed.
 *
 *   campaign_runner --serve /tmp/svc --max-active 2 --workers 4
 *   cat > /tmp/sub.json <<'EOF'
 *   {"tenant": "alice", "density": "low", "budget": 30}
 *   EOF
 *   mv /tmp/sub.json /tmp/svc/inbox/alice-low.json
 *
 * Flags (service mode):
 *   --serve ROOT       Service root directory (created on demand).
 *   --max-active N     Campaigns running at once       (default 2)
 *   --workers N        Shared pool threads; 0 = hw     (default 0)
 *   --poll S           Inbox scan interval, seconds    (default 0.2)
 *   --max-campaigns N  Exit after N terminal campaigns (default: run
 *                      until signalled)
 *
 * Flags (classic one-shot mode):
 *   --dir DIR          Campaign root (checkpoints/journals); required
 *                      for --resume. Default: no checkpointing.
 *   --resume [DIR]     Warm-start from DIR (or the --dir value).
 *   --optimizer NAME   bo | nsga2 | sa | random     (default bo)
 *   --backend NAME     analytical | quantized | cycle | tiered |
 *                      contention | dram
 *                      (default analytical)
 *   --camera-mbps X    Background camera DRAM traffic, MB/s (default 0)
 *   --host-mbps X      Background host DRAM traffic, MB/s   (default 0)
 *   --npu-floor F      QoS bandwidth floor for the NPU, [0,1) (default 0)
 *   --dram-banks N     Bank count for the dram backend      (default 8)
 *   --row-policy P     open | closed row-buffer policy  (default open)
 *   --dram-timing T    "tCAS:tRCD:tRP[:tREFI:tRFC]" in cycles
 *                      (default 4:4:4:1560:36)
 *   --budget N         Phase 2 evaluation budget    (default 60)
 *   --episodes N       Phase 1 validation episodes  (default 80)
 *   --threads N        Worker threads per task      (default 1)
 *   --concurrency N    Tasks run at once            (default 1)
 *   --deadline S       Per-task deadline in seconds (default off)
 *   --airframe NAME    quad | fixed-wing: fly every task on this
 *                      airframe (default quad; single-scenario
 *                      shorthand for --mission-mix)
 *   --mission-mix FILE JSON array of weighted (airframe, mission)
 *                      scenarios (see runner::parseMissionMix); the
 *                      weighted missions-per-charge across the mix
 *                      becomes the selection objective. Mutually
 *                      exclusive with --airframe.
 *   --precision LIST   Comma-separated operand widths searched by
 *                      Phase 2: subset of int8,fp16,fp32 (default
 *                      int8). More than one width adds precision as an
 *                      8th design dimension and switches the archive/
 *                      journal to the precision-labelled layout.
 *
 * The contention flags describe camera/host streams sharing the NPU's
 * DRAM channel (see systolic::ContentionProfile); they shape the
 * "contention" backend and the "tiered" verify tier, and are part of
 * the task fingerprint, so a journal resumes only under the profile it
 * was written with.
 *
 * With --backend dram (or --backend tiered plus any --dram-* flag) the
 * same camera/host rates instead program bank-level traffic generators
 * (see dram::DramSpec): the camera walks rows linearly, the host jumps
 * randomly, and the flat contention surcharge stays zero so bytes are
 * never charged twice. The dram spec is folded into the fingerprint the
 * same way.
 */

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dram/config.h"
#include "io/csv.h"
#include "runner/campaign.h"
#include "runner/service.h"
#include "systolic/config.h"
#include "uav/uav_spec.h"
#include "util/cancel.h"
#include "util/logging.h"

namespace
{

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "campaign_runner: " << error << "\n"
              << "usage: campaign_runner [--dir DIR] [--resume [DIR]]\n"
              << "         [--optimizer bo|nsga2|sa|random]\n"
              << "         [--backend analytical|quantized|cycle|tiered|"
                 "contention|dram]\n"
              << "         [--camera-mbps X] [--host-mbps X]"
                 " [--npu-floor F]\n"
              << "         [--dram-banks N] [--row-policy open|closed]\n"
              << "         [--dram-timing tCAS:tRCD:tRP[:tREFI:tRFC]]\n"
              << "         [--budget N] [--episodes N] [--threads N]\n"
              << "         [--concurrency N] [--deadline SECONDS]\n"
              << "         [--airframe quad|fixed-wing]"
                 " [--mission-mix FILE]\n"
              << "         [--precision int8[,fp16[,fp32]]]\n"
              << "   or: campaign_runner --serve ROOT [--max-active N]\n"
              << "         [--workers N] [--poll SECONDS]"
                 " [--max-campaigns N]\n";
    std::exit(2);
}

/// The value of numeric flag @p flag, or usage() naming the flag.
int
intFlag(const std::string &flag, const std::string &text)
{
    int value = 0;
    const std::string error = autopilot::io::tryParseInt(text, value);
    if (!error.empty())
        usage("bad " + flag + ": " + error);
    return value;
}

/// The value of numeric flag @p flag, or usage() naming the flag.
double
doubleFlag(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    const std::string error = autopilot::io::tryParseDouble(text, value);
    if (!error.empty())
        usage("bad " + flag + ": " + error);
    return value;
}

/// Drain source flipped by SIGINT/SIGTERM. cancel() is a lock-free
/// atomic store, so calling it from a signal handler is safe.
autopilot::util::CancelSource *serviceStop = nullptr;

void
onDrainSignal(int)
{
    if (serviceStop != nullptr)
        serviceStop->cancel();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace autopilot;

    std::string dir;
    std::string serveRoot;
    int maxActive = 2;
    int workers = 0;
    double pollSeconds = 0.2;
    int maxCampaigns = 0;
    bool resume = false;
    std::string optimizer = "bo";
    std::string backend = "analytical";
    int budget = 60;
    int episodes = 80;
    int threads = 1;
    int concurrency = 1;
    double deadlineSeconds = 0.0;
    double cameraMbps = 0.0;
    double hostMbps = 0.0;
    double npuFloor = 0.0;
    dram::DramTiming dramTiming;
    bool hasDramFlag = false;
    std::string airframeName;
    std::string missionMixFile;
    std::vector<int> precisions = {1};

    const std::vector<std::string> args(argv + 1, argv + argc);
    auto value = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            usage("missing value for " + args[i]);
        return args[++i];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--dir") {
            dir = value(i);
        } else if (arg == "--serve") {
            serveRoot = value(i);
        } else if (arg == "--max-active") {
            maxActive = intFlag(arg, value(i));
        } else if (arg == "--workers") {
            workers = intFlag(arg, value(i));
        } else if (arg == "--poll") {
            pollSeconds = doubleFlag(arg, value(i));
        } else if (arg == "--max-campaigns") {
            maxCampaigns = intFlag(arg, value(i));
        } else if (arg == "--resume") {
            resume = true;
            // Optional value: --resume DIR names the campaign root.
            if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0)
                dir = args[++i];
        } else if (arg == "--optimizer") {
            optimizer = value(i);
        } else if (arg == "--backend") {
            backend = value(i);
        } else if (arg == "--budget") {
            budget = intFlag(arg, value(i));
        } else if (arg == "--episodes") {
            episodes = intFlag(arg, value(i));
        } else if (arg == "--threads") {
            threads = intFlag(arg, value(i));
        } else if (arg == "--concurrency") {
            concurrency = intFlag(arg, value(i));
        } else if (arg == "--deadline") {
            deadlineSeconds = doubleFlag(arg, value(i));
        } else if (arg == "--camera-mbps") {
            cameraMbps = doubleFlag(arg, value(i));
        } else if (arg == "--host-mbps") {
            hostMbps = doubleFlag(arg, value(i));
        } else if (arg == "--npu-floor") {
            npuFloor = doubleFlag(arg, value(i));
        } else if (arg == "--dram-banks") {
            dramTiming.banks = intFlag(arg, value(i));
            hasDramFlag = true;
        } else if (arg == "--row-policy") {
            if (!dram::rowPolicyFromName(value(i),
                                         dramTiming.rowPolicy))
                usage("unknown row policy '" + args[i] +
                      "' (want open|closed)");
            hasDramFlag = true;
        } else if (arg == "--dram-timing") {
            std::string error;
            if (!dram::parseDramTiming(value(i), dramTiming, error))
                usage("bad --dram-timing: " + error);
            hasDramFlag = true;
        } else if (arg == "--airframe") {
            airframeName = value(i);
        } else if (arg == "--mission-mix") {
            missionMixFile = value(i);
        } else if (arg == "--precision") {
            std::string error;
            if (!systolic::parsePrecisionList(value(i), precisions,
                                              error))
                usage("bad --precision: " + error);
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }
    if (resume && dir.empty())
        usage("--resume needs a campaign directory (--resume DIR)");
    if (cameraMbps < 0.0 || hostMbps < 0.0)
        usage("contention rates must be >= 0");
    if (!airframeName.empty() && !missionMixFile.empty())
        usage("--airframe and --mission-mix are mutually exclusive");

    // Scenario set shared by every classic-mode task. --airframe quad
    // keeps the mix empty (the legacy default, byte-identical results).
    uav::MissionMix missionMix;
    if (!airframeName.empty()) {
        uav::AirframeKind kind = uav::AirframeKind::Quadrotor;
        if (!uav::airframeKindFromName(airframeName, kind))
            usage("unknown airframe '" + airframeName +
                  "' (want quad|fixed-wing)");
        if (kind != uav::AirframeKind::Quadrotor) {
            uav::MissionScenario scenario =
                uav::defaultMissionScenario();
            scenario.airframe = kind;
            missionMix.scenarios = {scenario};
        }
    }
    if (!missionMixFile.empty()) {
        std::ifstream in(missionMixFile, std::ios::binary);
        if (!in)
            usage("cannot open mission-mix file '" + missionMixFile +
                  "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::string error;
        if (!runner::parseMissionMix(buffer.str(), missionMix, error))
            usage("bad mission mix '" + missionMixFile + "': " + error);
    }

    if (!serveRoot.empty()) {
        runner::ServiceConfig service;
        service.rootDir = serveRoot;
        service.maxActiveCampaigns = maxActive;
        service.poolThreads = workers;
        service.pollSeconds = pollSeconds;
        service.maxCampaigns = maxCampaigns;

        util::CancelSource stop;
        service.stop = stop.token();
        serviceStop = &stop;
        std::signal(SIGINT, onDrainSignal);
        std::signal(SIGTERM, onDrainSignal);

        std::cout << "Campaign service on " << serveRoot << " (max "
                  << maxActive << " active, pool "
                  << (workers == 0 ? "hw" : std::to_string(workers))
                  << " threads)\n";
        runner::CampaignService daemon(service);
        const runner::ServiceReport outcome = daemon.serve();
        serviceStop = nullptr;

        std::cout << "Service: " << outcome.admitted << " admitted, "
                  << outcome.completed << " completed, "
                  << outcome.failed << " failed, " << outcome.rejected
                  << " rejected, " << outcome.interrupted
                  << " interrupted\n";
        return outcome.failed == 0 ? 0 : 1;
    }

    // --backend dram (or tiered with any --dram-* flag) turns the
    // camera/host rates into bank-level traffic generators; otherwise
    // they stay the flat contention surcharge. Never both - the same
    // bytes must not be charged twice.
    const bool wantsDram =
        backend == "dram" || (hasDramFlag && backend == "tiered");
    if (hasDramFlag && !wantsDram)
        usage("--dram-* flags require --backend dram or tiered");
    dram::DramSpec dramSpec;
    systolic::ContentionProfile contention;
    if (wantsDram) {
        dramSpec =
            dram::uavDramSpec(dramTiming, cameraMbps * 1e6,
                              hostMbps * 1e6);
        const std::string reason = dramSpec.infeasibleReason();
        if (!reason.empty())
            usage("infeasible dram channel: " + reason);
    } else {
        contention.cameraBytesPerSec = cameraMbps * 1e6;
        contention.hostBytesPerSec = hostMbps * 1e6;
        contention.npuFloorFraction = npuFloor;
    }

    runner::CampaignConfig config;
    config.rootDir = dir;
    config.resume = resume;
    config.concurrency = concurrency;

    // One task per obstacle density: the paper's scenario sweep, each
    // journaled independently so a kill loses at most one batch per
    // task.
    std::vector<runner::CampaignTask> tasks;
    for (airlearning::ObstacleDensity density :
         airlearning::allDensities()) {
        runner::CampaignTask task;
        task.name = airlearning::densityName(density);
        task.spec.density = density;
        task.spec.validationEpisodes = episodes;
        task.spec.dseBudget = budget;
        task.spec.threads = threads;
        task.spec.backend = backend;
        task.spec.contention = contention;
        task.spec.dram = dramSpec;
        task.spec.optimizer = optimizer;
        task.spec.missionMix = missionMix;
        task.spec.precisions = precisions;
        task.uav = uav::zhangNano();
        task.deadlineSeconds = deadlineSeconds;
        tasks.push_back(task);
    }

    std::cout << "Campaign: " << tasks.size() << " tasks (optimizer "
              << optimizer << ", backend " << backend << ", budget "
              << budget << ")";
    if (contention.enabled())
        std::cout << " under " << contention.totalBytesPerSec() / 1e6
                  << " MB/s background DRAM traffic";
    if (dramSpec.enabled())
        std::cout << " under "
                  << dramSpec.backgroundBytesPerSec() / 1e6
                  << " MB/s bank-level traffic ("
                  << dramSpec.timing.banks << " banks, "
                  << dram::rowPolicyName(dramSpec.timing.rowPolicy)
                  << "-row)";
    if (!missionMix.isDefault())
        std::cout << ", mission mix '" << missionMix.tag() << "'";
    if (precisions.size() > 1)
        std::cout << ", precision "
                  << systolic::formatPrecisionList(precisions);
    std::cout << (dir.empty() ? ""
                              : (resume ? ", resuming" : ", journaled"))
              << "\n\n";

    runner::CampaignRunner campaignRunner(config);
    const runner::CampaignReport report = campaignRunner.run(tasks);
    printCampaignReport(report, std::cout);

    return report.failedCount() == 0 ? 0 : 1;
}
