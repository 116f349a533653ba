#include "runner/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include "airlearning/environment.h"
#include "dram/config.h"
#include "dse/eval_backend.h"
#include "dse/optimizer.h"
#include "io/json.h"
#include "io/persistence.h"
#include "systolic/config.h"
#include "uav/uav_spec.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::runner
{

namespace fs = std::filesystem;

namespace
{

/// Longest single wait between passes. pollSeconds only has to be
/// finite, and a wait past about 292 years would overflow the clock's
/// nanosecond ticks (and return at once, spinning the loop); an idle
/// inbox scan a day costs nothing.
constexpr double maxWaitSeconds = 86400.0;

/// Path components and tenant names end up in directory names and
/// status CSVs; keep them boring.
bool
safeName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

bool
uavFromName(const std::string &name, uav::UavSpec &out)
{
    if (name == "nano")
        out = uav::zhangNano();
    else if (name == "spark")
        out = uav::djiSpark();
    else if (name == "pelican")
        out = uav::ascTecPelican();
    else
        return false;
    return true;
}

/// Non-negative integer from a JSON number (rejects 1.5, -1, 1e20).
bool
intField(const io::JsonValue &value, int &out)
{
    if (!value.isNumber())
        return false;
    const double number = value.asNumber();
    if (!(number >= 0.0) || number > 1e9 ||
        number != std::floor(number))
        return false;
    out = static_cast<int>(number);
    return true;
}

bool
numberField(const io::JsonValue &value, double &out)
{
    if (!value.isNumber() || !std::isfinite(value.asNumber()))
        return false;
    out = value.asNumber();
    return true;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// rename() that warns instead of throwing: a daemon shrugging off one
/// bad file beats a daemon dying on it.
bool
tryRename(const std::string &from, const std::string &to)
{
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) {
        util::warn("CampaignService: cannot move '" + from + "' to '" +
                   to + "': " + ec.message());
        return false;
    }
    return true;
}

/// One mission-mix scenario object; defaults come from the legacy
/// scenario so a bare {} is the quadrotor point-to-point run.
bool
scenarioFromJson(const io::JsonValue &value, std::size_t index,
                 uav::MissionScenario &out, std::string &error)
{
    if (!value.isObject()) {
        error = "mission-mix scenario " + std::to_string(index) +
                " must be a JSON object";
        return false;
    }
    uav::MissionScenario scenario = uav::defaultMissionScenario();
    for (const auto &[key, field] : value.asObject()) {
        bool ok = true;
        if (key == "name") {
            ok = field.isString();
            if (ok)
                scenario.name = field.asString();
        } else if (key == "airframe") {
            ok = field.isString() &&
                 uav::airframeKindFromName(field.asString(),
                                           scenario.airframe);
        } else if (key == "mission") {
            ok = field.isString() &&
                 uav::missionClassFromName(
                     field.asString(), scenario.profile.missionClass);
        } else if (key == "weight") {
            ok = numberField(field, scenario.weight);
        } else if (key == "distance_m") {
            ok = numberField(field, scenario.profile.distanceM);
        } else if (key == "area_m2") {
            ok = numberField(field, scenario.profile.searchAreaM2);
        } else if (key == "spacing_m") {
            ok = numberField(field, scenario.profile.laneSpacingM);
        } else if (key == "payload_g") {
            ok = numberField(field,
                             scenario.profile.deliveryPayloadG);
        } else {
            error = "unknown mission-mix key '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "bad mission-mix value for '" + key + "'";
            return false;
        }
    }
    out = scenario;
    return true;
}

/// The shared mission-mix grammar: a JSON array of scenario objects,
/// validated as a whole (unique names, per-class parameters, weights).
bool
missionMixFromJson(const io::JsonValue &value, uav::MissionMix &out,
                   std::string &error)
{
    if (!value.isArray()) {
        error = "mission mix must be a JSON array of scenario objects";
        return false;
    }
    uav::MissionMix mix;
    const std::vector<io::JsonValue> &items = value.asArray();
    for (std::size_t i = 0; i < items.size(); ++i) {
        uav::MissionScenario scenario;
        if (!scenarioFromJson(items[i], i, scenario, error))
            return false;
        mix.scenarios.push_back(scenario);
    }
    if (!mix.check(error))
        return false;
    out = std::move(mix);
    return true;
}

void
bumpServiceCounter(const std::string &name, std::size_t amount = 1)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    if (telemetry.enabled() && amount > 0) {
        telemetry.metrics()
            .counter("service.campaigns." + name)
            .add(static_cast<std::uint64_t>(amount));
    }
}

/// The status a finished campaign ends in. A drain is not a failure:
/// an "interrupted" campaign stays in active/ and resumes on restart.
std::string
terminalState(const CampaignReport &report)
{
    if (report.cancelledCount() > 0)
        return "interrupted";
    return report.failedCount() == 0 ? "done" : "failed";
}

} // namespace

bool
applyTaskKeys(const std::map<std::string, io::JsonValue> &keys,
              CampaignTask &task, std::string &error, std::string &badKey)
{
    core::TaskSpec &spec = task.spec;
    double cameraBps = spec.contention.cameraBytesPerSec;
    double hostBps = spec.contention.hostBytesPerSec;
    dram::DramTiming dramTiming = spec.dram.timing;
    uav::AirframeKind airframeKind = uav::AirframeKind::Quadrotor;
    bool hasAirframe = false;
    bool hasMix = false;
    bool hasDramKey = false;

    for (const auto &[key, value] : keys) {
        bool ok = true;
        double mbps = 0.0;
        std::string detail;
        badKey = key;
        if (key == "density") {
            ok = value.isString() &&
                 airlearning::densityFromName(value.asString(),
                                              spec.density);
        } else if (key == "episodes") {
            ok = intField(value, spec.validationEpisodes) &&
                 spec.validationEpisodes >= 1;
        } else if (key == "budget") {
            ok = intField(value, spec.dseBudget) && spec.dseBudget >= 1;
        } else if (key == "threads") {
            ok = intField(value, spec.threads) && spec.threads <= maxThreads;
            if (!ok)
                detail = "want an integer in [0, " +
                         std::to_string(maxThreads) + "]";
        } else if (key == "seed") {
            int seed = 0;
            ok = intField(value, seed);
            if (ok)
                spec.seed = static_cast<std::uint64_t>(seed);
        } else if (key == "optimizer") {
            const std::vector<std::string> &names = dse::optimizerNames();
            ok = value.isString() &&
                 std::find(names.begin(), names.end(),
                           value.asString()) != names.end();
            if (ok)
                spec.optimizer = value.asString();
        } else if (key == "backend") {
            ok = value.isString() &&
                 dse::BackendRegistry::instance().knows(value.asString());
            if (ok)
                spec.backend = value.asString();
        } else if (key == "uav") {
            ok = value.isString() && uavFromName(value.asString(), task.uav);
        } else if (key == "deadline_s") {
            ok = numberField(value, task.deadlineSeconds) &&
                 task.deadlineSeconds >= 0.0;
        } else if (key == "camera_mbps") {
            ok = numberField(value, mbps) && mbps >= 0.0;
            cameraBps = mbps * 1e6;
        } else if (key == "host_mbps") {
            ok = numberField(value, mbps) && mbps >= 0.0;
            hostBps = mbps * 1e6;
        } else if (key == "npu_floor") {
            double &floor = spec.contention.npuFloorFraction;
            ok = numberField(value, floor) && floor >= 0.0 && floor < 1.0;
        } else if (key == "dram_banks") {
            ok = intField(value, dramTiming.banks) && dramTiming.banks >= 1;
            hasDramKey = true;
        } else if (key == "row_policy") {
            ok = value.isString() &&
                 dram::rowPolicyFromName(value.asString(),
                                         dramTiming.rowPolicy);
            hasDramKey = true;
        } else if (key == "dram_timing") {
            std::string timingError;
            ok = value.isString() &&
                 dram::parseDramTiming(value.asString(), dramTiming,
                                       timingError);
            hasDramKey = true;
        } else if (key == "airframe") {
            ok = value.isString() &&
                 uav::airframeKindFromName(value.asString(),
                                           airframeKind);
            hasAirframe = true;
        } else if (key == "mission_mix") {
            hasMix = true;
            if (!missionMixFromJson(value, spec.missionMix, error))
                return false;
        } else if (key == "precision") {
            // Comma-separated operand-width list ("int8,fp16,fp32");
            // more than one width makes precision a searched Phase 2
            // dimension for this campaign.
            ok = value.isString() &&
                 systolic::parsePrecisionList(value.asString(),
                                              spec.precisions, detail);
        } else {
            error = "unknown key '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "bad value for '" + key + "'" +
                    (detail.empty() ? "" : ": " + detail);
            return false;
        }
    }

    if (hasAirframe && hasMix) {
        badKey = "airframe";
        error = "'airframe' and 'mission_mix' are mutually exclusive";
        return false;
    }
    // "airframe" is single-scenario shorthand; quad is the default and
    // keeps the implicit mix empty (fingerprint-identical to legacy).
    if (hasAirframe && airframeKind != uav::AirframeKind::Quadrotor) {
        uav::MissionScenario scenario = uav::defaultMissionScenario();
        scenario.airframe = airframeKind;
        spec.missionMix.scenarios = {scenario};
    }

    // Bank-level simulation is active for the "dram" backend (or for
    // "tiered" when a dram_* key opts the verify tier in). The same
    // camera/host rates then shape traffic generators instead of the
    // flat contention surcharge, which stays zero so the channel is
    // never charged twice for the same bytes.
    badKey.clear();
    const bool wantsDram = spec.backend == "dram" ||
                           (hasDramKey && spec.backend == "tiered");
    if (hasDramKey && !wantsDram) {
        badKey = "backend";
        error = "dram_* keys require backend 'dram' or 'tiered'";
        return false;
    }
    if (wantsDram) {
        spec.dram = dram::uavDramSpec(dramTiming, cameraBps, hostBps);
        cameraBps = hostBps = 0.0;
        const std::string reason = spec.dram.infeasibleReason();
        if (!reason.empty()) {
            error = "infeasible dram channel: " + reason;
            return false;
        }
        // The width-dependent half (refresh interval vs one worst-case
        // burst) depends only on the timing, at the width every design
        // point is costed at (DesignSpace::decode keeps the default
        // dramBytesPerCycle). Checked here, a bad "dram_timing" is a
        // rejected submission instead of a fatal mid-campaign.
        const std::string refresh = spec.dram.infeasibleReasonAt(
            systolic::AcceleratorConfig{}.dramBytesPerCycle);
        if (!refresh.empty()) {
            badKey = "dram_timing";
            error = "infeasible dram channel: " + refresh;
            return false;
        }
    }
    spec.contention.cameraBytesPerSec = cameraBps;
    spec.contention.hostBytesPerSec = hostBps;
    // The flat profile is simulated by the contention backend and the
    // tiered verify tier, at the default clock and DRAM width that
    // DesignSpace::decode keeps for every design point; the other
    // backends only validate its rates. Checked here, an infeasible
    // profile is a rejected submission instead of a fatal mid-campaign.
    const bool simulatesProfile =
        spec.backend == "contention" || spec.backend == "tiered";
    const std::string reason =
        simulatesProfile
            ? spec.contention.infeasibleReason(systolic::AcceleratorConfig{})
            : spec.contention.invalidReason();
    if (!reason.empty()) {
        // Rates are the only keys left to blame: negative ones and the
        // floor's range fail at parse time. Name the non-finite rate,
        // else the larger share of the background load.
        badKey = !std::isfinite(cameraBps) ? "camera_mbps"
                 : !std::isfinite(hostBps) ? "host_mbps"
                 : cameraBps >= hostBps    ? "camera_mbps"
                                           : "host_mbps";
        error = "infeasible contention profile: " + reason;
        return false;
    }
    return true;
}

bool
parseSubmission(const std::string &id, const std::string &text,
                CampaignSubmission &out, std::string &error)
{
    if (!safeName(id)) {
        error = "bad campaign id '" + id +
                "' (want [A-Za-z0-9_-]{1,64})";
        return false;
    }

    io::JsonValue doc;
    if (!io::tryParseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "submission must be a JSON object";
        return false;
    }

    CampaignSubmission sub;
    sub.id = id;
    sub.tenant = "default";
    sub.task.name = id;
    // Service-friendly defaults: small enough that a smoke submission
    // completes quickly, overridable per field.
    sub.task.spec.validationEpisodes = 40;
    sub.task.spec.dseBudget = 30;
    sub.task.uav = uav::zhangNano();

    // "tenant" is the one key outside the task grammar.
    std::map<std::string, io::JsonValue> keys = doc.asObject();
    if (const auto tenant = keys.find("tenant"); tenant != keys.end()) {
        if (!tenant->second.isString() ||
            !safeName(tenant->second.asString())) {
            error = "bad value for 'tenant'";
            return false;
        }
        sub.tenant = tenant->second.asString();
        keys.erase(tenant);
    }
    std::string badKey;
    if (!applyTaskKeys(keys, sub.task, error, badKey))
        return false;
    out = std::move(sub);
    return true;
}

bool
parseMissionMix(const std::string &text, uav::MissionMix &out,
                std::string &error)
{
    io::JsonValue doc;
    if (!io::tryParseJson(text, doc, error))
        return false;
    return missionMixFromJson(doc, out, error);
}

/** A submission accepted into a tenant queue. */
struct CampaignService::Pending
{
    CampaignSubmission sub;
    int seq = 0;       ///< Status-file sequence (per process run);
                       ///< 0 until the "queued" status is written.
    int admitted = -1; ///< Global admission order; -1 while queued.
};

/** A running campaign: its thread plus the report it will produce. */
struct CampaignService::Active
{
    std::unique_ptr<Pending> pending;
    std::thread thread;
    bool done = false; ///< Guarded by CampaignService::doneMutex.
    CampaignReport report;
};

CampaignService::CampaignService(const ServiceConfig &config)
    : cfg(config)
{
    util::fatalIf(cfg.rootDir.empty(),
                  "CampaignService: rootDir is required");
    util::fatalIf(cfg.maxActiveCampaigns < 1,
                  "CampaignService: maxActiveCampaigns must be >= 1");
    util::fatalIf(cfg.poolThreads < 0 || cfg.poolThreads > maxThreads,
                  "CampaignService: poolThreads must be in [0, " +
                      std::to_string(maxThreads) + "]");
    util::fatalIf(!std::isfinite(cfg.pollSeconds) || cfg.pollSeconds < 0.0,
                  "CampaignService: pollSeconds must be finite and >= 0");
    util::fatalIf(cfg.maxCampaigns < 0,
                  "CampaignService: maxCampaigns must be >= 0");
    util::validateRetryPolicy(cfg.retry);
    for (const char *sub :
         {"inbox", "active", "work", "status", "results", "done"}) {
        std::error_code ec;
        fs::create_directories(dir(sub), ec);
        util::fatalIf(static_cast<bool>(ec),
                      "CampaignService: cannot create '" + dir(sub) +
                          "': " + ec.message());
    }
    sharedPool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(cfg.poolThreads));
}

CampaignService::~CampaignService()
{
    // serve() joins its campaigns before returning; this only covers a
    // serve() that never ran or threw through fatal-free paths.
    for (const std::unique_ptr<Active> &campaign : active) {
        if (campaign->thread.joinable())
            campaign->thread.join();
    }
}

std::string
CampaignService::dir(const std::string &sub) const
{
    return cfg.rootDir + "/" + sub;
}

void
CampaignService::writeStatus(Pending &pending, const std::string &state,
                             const std::string &detail)
{
    // "queued" describes the submission before its admission, also
    // when the write lands in the pass that admitted it.
    const int admitted = state == "queued" ? -1 : pending.admitted;
    pending.seq++;
    std::ostringstream os;
    os << "seq," << pending.seq << "\n"
       << "id," << pending.sub.id << "\n"
       << "tenant," << pending.sub.tenant << "\n"
       << "state," << state << "\n"
       << "admitted,"
       << (admitted >= 0 ? std::to_string(admitted) : std::string("-"))
       << "\n"
       << "detail," << (detail.empty() ? "-" : detail) << "\n";
    io::writeFileAtomic(dir("status") + "/" + pending.sub.id + ".status",
                        os.str());
}

void
CampaignService::writeQueued(Pending &pending)
{
    if (pending.seq == 0)
        writeStatus(pending, "queued", "");
}

void
CampaignService::enqueue(std::unique_ptr<Pending> pending)
{
    // The "queued" status is written at the end of the pass (see
    // writeBookkeeping), after this pass's admissions.
    const std::string tenant = pending->sub.tenant;
    queues[tenant].push_back(std::move(pending));
    queuedCount++;
}

void
CampaignService::recoverActive(ServiceReport &report)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir("active")))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());

    for (const fs::path &path : files) {
        const std::string id = path.stem().string();
        auto pending = std::make_unique<Pending>();
        pending->sub.id = safeName(id) ? id : "invalid";
        pending->sub.tenant = "-";
        std::string error;
        if (!parseSubmission(id, readWholeFile(path.string()),
                             pending->sub, error)) {
            // A file we once accepted no longer parses: it was
            // corrupted behind our back. Reject rather than crash-loop.
            util::warn("CampaignService: active submission '" + id +
                       "' no longer valid (" + error + "); rejecting");
            writeStatus(*pending, "rejected", error);
            tryRename(path.string(),
                      dir("done") + "/" + id + ".rejected");
            report.rejected++;
            bumpServiceCounter("rejected");
            continue;
        }
        util::inform("CampaignService: recovering campaign '" + id +
                     "' (tenant " + pending->sub.tenant + ")");
        enqueue(std::move(pending));
    }
}

void
CampaignService::scanInbox(ServiceReport &report)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir("inbox")))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());

    for (const fs::path &path : files) {
        const std::string id = path.stem().string();
        auto pending = std::make_unique<Pending>();
        pending->sub.id = safeName(id) ? id : "invalid";
        pending->sub.tenant = "-";

        std::string error;
        bool ok =
            parseSubmission(id, readWholeFile(path.string()),
                            pending->sub, error);
        if (ok) {
            const bool inMemory =
                std::any_of(active.begin(), active.end(),
                            [&](const std::unique_ptr<Active> &a) {
                                return a->pending->sub.id == id;
                            }) ||
                std::any_of(queues.begin(), queues.end(),
                            [&](const auto &q) {
                                return std::any_of(
                                    q.second.begin(), q.second.end(),
                                    [&](const std::unique_ptr<Pending>
                                            &p) {
                                        return p->sub.id == id;
                                    });
                            });
            if (inMemory) {
                ok = false;
                error = "duplicate id: campaign already queued/running";
            } else if (fs::exists(dir("results") + "/" + id +
                                  ".result")) {
                ok = false;
                error = "duplicate id: campaign already completed";
            }
        }

        if (!ok) {
            util::warn("CampaignService: rejecting submission '" + id +
                       "': " + error);
            writeStatus(*pending, "rejected", error);
            tryRename(path.string(),
                      dir("done") + "/" + id + ".rejected");
            report.rejected++;
            bumpServiceCounter("rejected");
            continue;
        }
        // Accepted: the rename is the durable admission record. If we
        // die right after, restart recovers it from active/.
        if (!tryRename(path.string(),
                       dir("active") + "/" + id + ".json"))
            continue; // Still in inbox; retried next scan.
        enqueue(std::move(pending));
    }
}

void
CampaignService::admitFairShare(ServiceReport &report)
{
    // Admitting past the maxCampaigns bound would start work the loop
    // is about to abandon; leave it queued in active/ for a later run.
    const bool boundMet =
        cfg.maxCampaigns > 0 &&
        report.completed + report.failed >=
            static_cast<std::size_t>(cfg.maxCampaigns);
    while (static_cast<int>(active.size()) < cfg.maxActiveCampaigns &&
           queuedCount > 0 && !cfg.stop.cancelled() && !boundMet) {
        // Next tenant strictly after the round-robin cursor (wrapping)
        // with work queued: a burst from one tenant waits its turn.
        auto turn = queues.end();
        for (auto it = queues.upper_bound(rrCursor);
             it != queues.end(); ++it) {
            if (!it->second.empty()) {
                turn = it;
                break;
            }
        }
        if (turn == queues.end()) {
            for (auto it = queues.begin();
                 it != queues.upper_bound(rrCursor) &&
                 it != queues.end();
                 ++it) {
                if (!it->second.empty()) {
                    turn = it;
                    break;
                }
            }
        }
        if (turn == queues.end())
            break;

        rrCursor = turn->first;
        auto campaign = std::make_unique<Active>();
        campaign->pending = std::move(turn->second.front());
        turn->second.pop_front();
        queuedCount--;

        Pending &pending = *campaign->pending;
        pending.admitted = admissionCounter++;
        report.admitted++;
        bumpServiceCounter("admitted");

        CampaignConfig cc;
        cc.rootDir = dir("work") + "/" + pending.sub.id;
        // Always warm-start: a fresh campaign has no checkpoint files
        // and starts clean, a recovered one resumes byte-identically.
        cc.resume = true;
        cc.concurrency = 1;
        cc.retry = cfg.retry;
        cc.stop = cfg.stop;
        cc.sharedPool = sharedPool.get();

        Active *handle = campaign.get();
        campaign->thread = std::thread([this, handle, cc]() {
            try {
                CampaignRunner runner(cc);
                const std::vector<CampaignTask> tasks = {
                    handle->pending->sub.task};
                handle->report = runner.run(tasks);
            } catch (const std::exception &error) {
                TaskOutcome outcome;
                outcome.name = handle->pending->sub.task.name;
                outcome.status = TaskStatus::Failed;
                outcome.attempts = 1;
                outcome.diagnosis =
                    std::string("campaign thread: ") + error.what();
                handle->report.outcomes = {outcome};
            }
            {
                const std::lock_guard<std::mutex> lock(doneMutex);
                handle->done = true;
            }
            doneCv.notify_one();
        });
        active.push_back(std::move(campaign));
    }

    util::Telemetry &telemetry = util::Telemetry::instance();
    if (telemetry.enabled()) {
        telemetry.metrics()
            .gauge("service.active")
            .set(static_cast<std::int64_t>(active.size()));
    }
}

void
CampaignService::finalize(Active &campaign)
{
    Pending &pending = *campaign.pending;
    const std::string &id = pending.sub.id;
    const std::string state = terminalState(campaign.report);

    if (state == "interrupted") {
        // The submission stays in active/ and its journals in work/,
        // so the next start resumes it.
        writeStatus(pending, state, "service drain");
        return;
    }

    std::ostringstream result;
    printCampaignReport(campaign.report, result);
    io::writeFileAtomic(dir("results") + "/" + id + ".result",
                        result.str());

    std::string detail;
    for (const TaskOutcome &outcome : campaign.report.outcomes)
        if (outcome.status != TaskStatus::Succeeded)
            detail = outcome.diagnosis;
    writeStatus(pending, state, detail);
    tryRename(dir("active") + "/" + id + ".json",
              dir("done") + "/" + id + ".json");
}

bool
CampaignService::reapFinished(ServiceReport &report)
{
    // reaped is empty here: the previous pass's writeBookkeeping
    // cleared it.
    {
        const std::lock_guard<std::mutex> lock(doneMutex);
        for (auto it = active.begin(); it != active.end();) {
            if ((*it)->done) {
                reaped.push_back(std::move(*it));
                it = active.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Counted here, before this pass admits, so the maxCampaigns bound
    // sees them; their files are written by writeBookkeeping.
    for (const std::unique_ptr<Active> &campaign : reaped) {
        campaign->thread.join();
        const std::string state = terminalState(campaign->report);
        if (state == "interrupted")
            report.interrupted++;
        else if (state == "done")
            report.completed++;
        else
            report.failed++;
        bumpServiceCounter(state == "done" ? "completed" : state);
    }
    return !reaped.empty();
}

void
CampaignService::writeBookkeeping(std::size_t firstAdmitted)
{
    // Every durable write of the pass, after its admissions: results
    // and terminal states of the reaped campaigns first (before the
    // next scanInbox, whose duplicate check reads the result files),
    // then the admitted campaigns' "running", then the "queued" of
    // the submissions still waiting. A status write is only ever
    // delayed, never skipped, so each file keeps every seq.
    for (const std::unique_ptr<Active> &campaign : reaped)
        finalize(*campaign);
    reaped.clear();
    for (std::size_t i = firstAdmitted; i < active.size(); ++i) {
        Pending &pending = *active[i]->pending;
        writeQueued(pending);
        writeStatus(pending, "running", "");
    }
    for (const auto &[tenant, queue] : queues)
        for (const std::unique_ptr<Pending> &pending : queue)
            writeQueued(*pending);
}

ServiceReport
CampaignService::serve()
{
    util::fatalIf(served, "CampaignService: serve() may run only once");
    served = true;

    ServiceReport report;
    recoverActive(report);

    while (true) {
        bool progressed = false;
        if (!cfg.stop.cancelled()) {
            const std::size_t before =
                report.rejected + queuedCount;
            scanInbox(report);
            progressed |= report.rejected + queuedCount != before;
        }
        progressed |= reapFinished(report);
        const std::size_t admittedBefore = report.admitted;
        const std::size_t firstAdmitted = active.size();
        admitFairShare(report);
        progressed |= report.admitted != admittedBefore;
        writeBookkeeping(firstAdmitted);

        if (cfg.stop.cancelled() && active.empty())
            break; // Drained; queued submissions wait in active/.
        if (cfg.maxCampaigns > 0 && active.empty() &&
            report.completed + report.failed >=
                static_cast<std::size_t>(cfg.maxCampaigns))
            break;
        // Bounded mode is batch mode: with nothing running, nothing
        // queued and a scan that found nothing, waiting for the bound
        // would wait forever (e.g. a restart after every submission
        // already completed). Idle means done.
        if (cfg.maxCampaigns > 0 && active.empty() &&
            queuedCount == 0 && !progressed)
            break;

        if (!progressed && cfg.pollSeconds > 0.0) {
            // A finishing campaign wakes the loop at once; the timeout
            // only paces the inbox scan.
            std::unique_lock<std::mutex> lock(doneMutex);
            doneCv.wait_for(
                lock,
                std::chrono::duration<double>(
                    std::min(cfg.pollSeconds, maxWaitSeconds)),
                [this] {
                    return std::any_of(
                        active.begin(), active.end(),
                        [](const std::unique_ptr<Active> &campaign) {
                            return campaign->done;
                        });
                });
        }
    }
    return report;
}

} // namespace autopilot::runner
