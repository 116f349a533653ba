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
 * thread pool with per-tenant fair-share admission. SIGINT or SIGTERM
 * drains: running campaigns stop at the next batch boundary and
 * resume byte-identically on the next --serve. SIGKILL is also
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
 *   --workers N        Shared pool threads, 0-256; 0 = hw (default 0)
 *   --poll S           Inbox scan interval, seconds    (default 0.2);
 *                      a finished campaign frees its slot at once
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
 *   --threads N        Worker threads per task, 0-256 (default 1)
 *   --concurrency N    Tasks run at once, 0-256     (default 1)
 *   --deadline S       Per-task deadline in seconds (default off)
 *   --airframe NAME    quad | fixed-wing: fly every task on this
 *                      airframe (default quad; single-scenario
 *                      shorthand for --mission-mix)
 *   --mission-mix FILE JSON array of weighted (airframe, mission)
 *                      scenarios (the "mission_mix" key grammar); the
 *                      weighted missions-per-charge across the mix
 *                      becomes the selection objective. Mutually
 *                      exclusive with --airframe.
 *   --precision LIST   Comma-separated operand widths searched by
 *                      Phase 2: subset of int8,fp16,fp32 (default
 *                      int8). More than one width adds precision as an
 *                      8th design dimension and switches the archive/
 *                      journal to the precision-labelled layout.
 *
 * Every classic-mode task flag is a submission key of the service
 * (see runner::applyTaskKeys): --optimizer, --backend, --budget,
 * --episodes, --threads, --precision and --airframe set the key of the
 * same name, --deadline sets deadline_s, --camera-mbps/--host-mbps/
 * --npu-floor set camera_mbps/host_mbps/npu_floor, --dram-banks/
 * --row-policy/--dram-timing set dram_banks/row_policy/dram_timing,
 * and --mission-mix FILE sets mission_mix to the file's array. One
 * grammar therefore decides, for both inputs, the value ranges, the
 * airframe shorthand and whether the camera/host rates are a flat
 * contention profile (part of the task fingerprint, so a journal
 * resumes only under the profile it was written with) or bank-level
 * traffic generators (with --backend dram, or tiered plus any --dram-*
 * flag). Only the defaults differ: 80 episodes and budget 60 here, and
 * the density sweep. A bad value exits 2 naming the flag.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dram/config.h"
#include "io/csv.h"
#include "io/json.h"
#include "runner/campaign.h"
#include "runner/service.h"
#include "systolic/config.h"
#include "uav/uav_spec.h"
#include "util/cancel.h"

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

/// usage() naming flag @p flag as the one at fault.
[[noreturn]] void
badFlag(const std::string &flag, const std::string &error)
{
    usage("bad " + flag + ": " + error);
}

/// The value of integer flag @p flag, at least @p min and at most
/// @p max, or usage() naming the flag.
int
intFlag(const std::string &flag, const std::string &text,
        int min = std::numeric_limits<int>::min(),
        int max = std::numeric_limits<int>::max())
{
    int value = 0;
    std::string error = autopilot::io::tryParseInt(text, value);
    if (error.empty() && value < min)
        error = "want an integer >= " + std::to_string(min);
    if (error.empty() && value > max)
        error = "want an integer <= " + std::to_string(max);
    if (!error.empty())
        badFlag(flag, error);
    return value;
}

/// The value of numeric flag @p flag, or usage() naming the flag.
double
doubleFlag(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    const std::string error = autopilot::io::tryParseDouble(text, value);
    if (!error.empty())
        badFlag(flag, error);
    return value;
}

/// How a task flag's text becomes its submission key's JSON value.
enum class FlagText
{
    Integer,
    Number,
    String,
    JsonFile,
};

/// A classic-mode task flag and the submission key it sets.
struct TaskFlag
{
    const char *flag;
    const char *key;
    FlagText text;
};

constexpr TaskFlag kTaskFlags[] = {
    {"--optimizer", "optimizer", FlagText::String},
    {"--backend", "backend", FlagText::String},
    {"--budget", "budget", FlagText::Integer},
    {"--episodes", "episodes", FlagText::Integer},
    {"--threads", "threads", FlagText::Integer},
    {"--deadline", "deadline_s", FlagText::Number},
    {"--camera-mbps", "camera_mbps", FlagText::Number},
    {"--host-mbps", "host_mbps", FlagText::Number},
    {"--npu-floor", "npu_floor", FlagText::Number},
    {"--dram-banks", "dram_banks", FlagText::Integer},
    {"--row-policy", "row_policy", FlagText::String},
    {"--dram-timing", "dram_timing", FlagText::String},
    {"--airframe", "airframe", FlagText::String},
    {"--mission-mix", "mission_mix", FlagText::JsonFile},
    {"--precision", "precision", FlagText::String},
};

/// The JSON value @p flag sets from @p text, or usage() naming the flag.
autopilot::io::JsonValue
flagValue(const TaskFlag &flag, const std::string &text)
{
    using autopilot::io::JsonValue;
    if (flag.text == FlagText::Integer)
        return JsonValue::makeNumber(intFlag(flag.flag, text));
    if (flag.text == FlagText::Number)
        return JsonValue::makeNumber(doubleFlag(flag.flag, text));
    if (flag.text == FlagText::String)
        return JsonValue::makeString(text);
    // FlagText::JsonFile: the document in file @p text.
    std::ifstream in(text, std::ios::binary);
    if (!in)
        badFlag(flag.flag, "cannot open '" + text + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue value;
    std::string error;
    if (!autopilot::io::tryParseJson(buffer.str(), value, error))
        badFlag(flag.flag, error);
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
    int concurrency = 1;
    std::map<std::string, io::JsonValue> taskKeys;

    const std::vector<std::string> args(argv + 1, argv + argc);
    auto value = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            usage("missing value for " + args[i]);
        return args[++i];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto taskFlag =
            std::find_if(std::begin(kTaskFlags), std::end(kTaskFlags),
                         [&](const TaskFlag &flag) {
                             return arg == flag.flag;
                         });
        if (taskFlag != std::end(kTaskFlags)) {
            taskKeys[taskFlag->key] = flagValue(*taskFlag, value(i));
        } else if (arg == "--dir") {
            dir = value(i);
        } else if (arg == "--serve") {
            serveRoot = value(i);
        } else if (arg == "--max-active") {
            maxActive = intFlag(arg, value(i), 1);
        } else if (arg == "--workers") {
            workers = intFlag(arg, value(i), 0, runner::maxThreads);
        } else if (arg == "--poll") {
            pollSeconds = doubleFlag(arg, value(i));
            if (!std::isfinite(pollSeconds) || pollSeconds < 0.0)
                badFlag(arg, "want a finite number >= 0");
        } else if (arg == "--max-campaigns") {
            maxCampaigns = intFlag(arg, value(i), 0);
        } else if (arg == "--resume") {
            resume = true;
            // Optional value: --resume DIR names the campaign root.
            if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0)
                dir = args[++i];
        } else if (arg == "--concurrency") {
            concurrency = intFlag(arg, value(i), 0, runner::maxThreads);
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }
    if (resume && dir.empty())
        usage("--resume needs a campaign directory (--resume DIR)");

    // The classic-mode task before its density is set: the CLI's
    // defaults with the flags' keys applied over them.
    runner::CampaignTask base;
    base.spec.validationEpisodes = 80;
    base.spec.dseBudget = 60;
    base.uav = uav::zhangNano();
    std::string error;
    std::string badKey;
    if (!runner::applyTaskKeys(taskKeys, base, error, badKey)) {
        for (const TaskFlag &flag : kTaskFlags)
            if (badKey == flag.key)
                badFlag(flag.flag, error);
        usage(error);
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
        runner::CampaignTask task = base;
        task.name = airlearning::densityName(density);
        task.spec.density = density;
        tasks.push_back(task);
    }

    const core::TaskSpec &spec = base.spec;
    std::cout << "Campaign: " << tasks.size() << " tasks (optimizer "
              << spec.optimizer << ", backend " << spec.backend
              << ", budget " << spec.dseBudget << ")";
    if (spec.contention.enabled())
        std::cout << " under "
                  << spec.contention.totalBytesPerSec() / 1e6
                  << " MB/s background DRAM traffic";
    if (spec.dram.enabled())
        std::cout << " under "
                  << spec.dram.backgroundBytesPerSec() / 1e6
                  << " MB/s bank-level traffic ("
                  << spec.dram.timing.banks << " banks, "
                  << dram::rowPolicyName(spec.dram.timing.rowPolicy)
                  << "-row)";
    if (!spec.missionMix.isDefault())
        std::cout << ", mission mix '" << spec.missionMix.tag() << "'";
    if (spec.precisions.size() > 1)
        std::cout << ", precision "
                  << systolic::formatPrecisionList(spec.precisions);
    std::cout << (dir.empty() ? ""
                              : (resume ? ", resuming" : ", journaled"))
              << "\n\n";

    runner::CampaignRunner campaignRunner(config);
    const runner::CampaignReport report = campaignRunner.run(tasks);
    printCampaignReport(report, std::cout);

    return report.failedCount() == 0 ? 0 : 1;
}
