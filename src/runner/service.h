/**
 * @file
 * Campaign service: a file-drop daemon running many campaigns for many
 * tenants over one shared thread pool.
 *
 * Layout under ServiceConfig::rootDir (created on demand):
 *
 *   inbox/<id>.json    submissions dropped by clients (write elsewhere,
 *                      rename into place - the scan assumes whole files)
 *   active/<id>.json   admitted-or-queued submissions; scanned at
 *                      startup so a SIGKILLed service resumes exactly
 *                      the campaigns it had accepted
 *   work/<id>/         per-campaign checkpoint root (Phase 1 policy
 *                      checkpoints + Phase 2 evaluation journals)
 *   status/<id>.status one small CSV per campaign, atomically rewritten
 *                      at every state transition with a monotonically
 *                      increasing sequence number
 *   results/<id>.result the deterministic campaign report, written once
 *                      when the campaign reaches a terminal state
 *   done/<id>.json     terminal submissions (completed, failed or
 *                      rejected), moved out of inbox/active
 *
 * Admission is per-tenant round-robin fair-share: submissions queue
 * FIFO within their tenant, and free campaign slots rotate across
 * tenants, so one tenant's burst of 50 campaigns cannot starve another
 * tenant's single run. All admitted campaigns execute their pipeline
 * stages on ONE shared util::ThreadPool, so a huge campaign's tasks
 * interleave with everyone else's.
 *
 * Crash safety: the on-disk truth is the submission file's location
 * (inbox -> active -> done) plus the per-campaign journals in work/.
 * Every move is a rename and every status/result write is
 * fsync+rename-atomic (io::writeFileAtomic), so a SIGKILL at any
 * instant loses at most one in-flight evaluation batch per campaign; a
 * restarted service re-admits everything in active/, resumes from the
 * journals, and produces byte-identical result files. A finished
 * campaign's slot is refilled before its result and status are
 * written; until then it sits in active/ with a complete journal, the
 * state a crash right after it finished leaves anyway.
 *
 * A malformed or invalid submission is rejected (status file explains
 * why, the file moves to done/<id>.rejected) - it never takes the
 * daemon down. Draining: cancel the ServiceConfig::stop source; running
 * campaigns stop at the next batch boundary, stay in active/, and
 * resume on the next start.
 */

#ifndef AUTOPILOT_RUNNER_SERVICE_H
#define AUTOPILOT_RUNNER_SERVICE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.h"
#include "runner/campaign.h"
#include "uav/mission_profile.h"
#include "util/cancel.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace autopilot::runner
{

/** One validated inbox submission (see parseSubmission for the JSON). */
struct CampaignSubmission
{
    std::string id;     ///< Inbox filename stem; names work/<id>/.
    std::string tenant; ///< Fair-share scheduling key.
    CampaignTask task;  ///< The pipeline run to execute.
};

/**
 * The task grammar shared by service submissions and campaign_runner's
 * flags. Applies @p keys over @p task, whose fields on entry are the
 * caller's defaults; a field no key names keeps its default.
 *
 * Keys: density (low|medium|dense), episodes, budget, seed, threads
 * (integers; threads at most maxThreads), optimizer
 * (dse::optimizerNames), backend (registry names), uav
 * (nano|spark|pelican), deadline_s, camera_mbps, host_mbps,
 * npu_floor (numbers), dram_banks, row_policy (open|closed),
 * dram_timing ("tCAS:tRCD:tRP[:tREFI:tRFC]"), precision
 * ("int8[,fp16[,fp32]]"), airframe (quad|fixed-wing: single-scenario
 * shorthand) and mission_mix (array of scenario objects, see
 * parseMissionMix; mutually exclusive with airframe). Without either
 * the task keeps the caller's mix. The camera/host rates program
 * bank-level generators (spec.dram) for the "dram" backend, or for
 * "tiered" with a dram_* key, and the flat spec.contention surcharge
 * otherwise - never both. A channel or profile the backend could not
 * simulate at the default accelerator clock and width is rejected here
 * (dram_timing, camera_mbps or host_mbps blamed), not fatal later.
 *
 * Returns false with a diagnostic in @p error and the key it blames in
 * @p badKey ("" when no one key is at fault); never calls fatal().
 */
bool applyTaskKeys(const std::map<std::string, io::JsonValue> &keys,
                   CampaignTask &task, std::string &error,
                   std::string &badKey);

/**
 * Parse and validate one submission document: a JSON object of
 * applyTaskKeys keys plus "tenant" (fair-share key, default
 * "default"), applied over the service defaults (40 episodes, budget
 * 30, the nano UAV). @p id (the inbox file stem) becomes the campaign
 * id and task name. Returns false with a diagnostic in @p error on any
 * problem - malformed JSON, unknown keys, bad types, out-of-range
 * values, unknown names - without ever calling fatal(): the service
 * must reject one file, not die.
 */
bool parseSubmission(const std::string &id, const std::string &text,
                     CampaignSubmission &out, std::string &error);

/**
 * Parse a mission-mix JSON document: an array of scenario objects with
 * keys name (string, [a-z0-9_-]{1,32}, unique), airframe
 * (quad|fixed-wing), mission (nav|search|delivery), weight and the
 * per-class numbers distance_m, area_m2 and spacing_m (search),
 * payload_g (delivery). Unknown keys are rejected and the assembled
 * mix is validated with uav::MissionMix::check. This is the grammar
 * of the "mission_mix" key (see applyTaskKeys), which a submission
 * holds inline and campaign_runner's --mission-mix flag reads from a
 * file. Returns false with a diagnostic in @p error; never calls
 * fatal().
 */
bool parseMissionMix(const std::string &text, uav::MissionMix &out,
                     std::string &error);

/** Service-level knobs. */
struct ServiceConfig
{
    /// Service root; the inbox/active/work/status/results/done tree
    /// lives underneath. Required (fatal when empty).
    std::string rootDir;
    /// Campaigns running concurrently; queued submissions wait their
    /// tenant's round-robin turn. Must be >= 1.
    int maxActiveCampaigns = 2;
    /// Worker threads in the shared pool all campaigns execute on; 0
    /// uses the hardware concurrency; at most maxThreads.
    int poolThreads = 0;
    /// Inbox scan interval. A finishing campaign wakes the service at
    /// once, so its slot is refilled without waiting for the next scan.
    double pollSeconds = 0.2;
    /// Retry policy applied to every campaign's tasks.
    util::RetryPolicy retry;
    /// Drain signal: cancel it and serve() stops admitting, cancels
    /// running campaigns at their next batch boundary (they remain
    /// resumable in active/) and returns. Inert by default.
    util::CancelToken stop;
    /// When > 0, serve() also returns once this many campaigns reached
    /// a terminal state (completed or failed; rejections do not count)
    /// and none are running - a bounded batch mode for tests and smoke
    /// runs. Batch mode also returns when the service goes fully idle
    /// (nothing running, queued, or newly scanned), so a restart over
    /// an already-finished root exits instead of waiting forever; drop
    /// submissions into the inbox BEFORE serving in this mode.
    int maxCampaigns = 0;
};

/** What one serve() call did. */
struct ServiceReport
{
    std::size_t admitted = 0;    ///< Campaigns started (incl. resumed).
    std::size_t completed = 0;   ///< All tasks succeeded.
    std::size_t failed = 0;      ///< Terminal failure (retries/deadline).
    std::size_t rejected = 0;    ///< Invalid submissions turned away.
    std::size_t interrupted = 0; ///< Cancelled by drain; resumable.
};

/**
 * The daemon. Construct (validates config, creates the directory tree,
 * starts the shared pool), then serve() until drained.
 */
class CampaignService
{
  public:
    explicit CampaignService(const ServiceConfig &config);
    ~CampaignService();

    CampaignService(const CampaignService &) = delete;
    CampaignService &operator=(const CampaignService &) = delete;

    /**
     * Run the service loop: recover active/ submissions, then per pass
     * scan the inbox, reap finished campaigns, admit fair-share into
     * the freed slots and only then make the pass's status and result
     * writes, until the stop token fires or the maxCampaigns bound is
     * met. Between passes it waits for a campaign to finish or for the
     * next inbox scan. Blocks. Safe to call once per instance.
     */
    ServiceReport serve();

    const ServiceConfig &config() const { return cfg; }

    /** The shared pool (for tests asserting scheduling behavior). */
    util::ThreadPool &pool() { return *sharedPool; }

  private:
    struct Pending;
    struct Active;

    std::string dir(const std::string &sub) const;
    void writeStatus(Pending &pending, const std::string &state,
                     const std::string &detail);
    void writeQueued(Pending &pending);
    void scanInbox(ServiceReport &report);
    void recoverActive(ServiceReport &report);
    void enqueue(std::unique_ptr<Pending> pending);
    void admitFairShare(ServiceReport &report);
    bool reapFinished(ServiceReport &report);
    void finalize(Active &campaign);
    void writeBookkeeping(std::size_t firstAdmitted);

    ServiceConfig cfg;
    std::unique_ptr<util::ThreadPool> sharedPool;
    /// FIFO queue per tenant; admission rotates across tenants.
    std::map<std::string, std::deque<std::unique_ptr<Pending>>> queues;
    std::string rrCursor; ///< Last tenant admitted (round-robin state).
    std::vector<std::unique_ptr<Active>> active;
    /// Joined and counted campaigns whose result and terminal status
    /// are written at the end of the pass that reaped them.
    std::vector<std::unique_ptr<Active>> reaped;
    /// Guards every Active::done; a campaign thread notifies doneCv
    /// after setting its flag, which wakes serve() between passes.
    std::mutex doneMutex;
    std::condition_variable doneCv;
    int admissionCounter = 0; ///< Global admission order stamp.
    std::size_t queuedCount = 0;
    bool served = false;
};

} // namespace autopilot::runner

#endif // AUTOPILOT_RUNNER_SERVICE_H
