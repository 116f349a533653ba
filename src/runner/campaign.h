/**
 * @file
 * Fault-tolerant multi-task campaign orchestration.
 *
 * A campaign is a list of named AutoPilot tasks (one full three-phase
 * pipeline each - e.g. one per obstacle density, or a backend/optimizer
 * sweep) executed across a shared util::ThreadPool. Each task gets:
 *
 *  - a checkpoint subdirectory `<rootDir>/<name>/` holding its Phase 1
 *    policy checkpoint and Phase 2 evaluation journal, so a killed
 *    campaign resumes with --resume losing at most one in-flight batch
 *    per task;
 *  - retry-with-backoff on transient failures (anything thrown out of
 *    the pipeline except a deadline expiry), where every retry after
 *    the first warm-starts from the journal the failed attempt left
 *    behind - progress is never re-simulated;
 *  - an optional wall-clock deadline, checked between phases; expiry
 *    is terminal (never retried);
 *  - graceful degradation: a task that exhausts its retries (or its
 *    deadline) is recorded as a diagnosed skip and the rest of the
 *    campaign continues.
 *
 * Failure scope: the runner catches C++ exceptions (injected backend
 * faults, deadline expiry, I/O errors surfaced as exceptions). It does
 * not - cannot - recover from util::fatal()/panic(), which terminate
 * the process by design (bad specs are caught up front instead).
 *
 * Determinism: task outcomes are committed in task order, and each
 * task's results are byte-identical across thread counts and across
 * kill/resume (see TaskSpec::resume), so a campaign report diffs
 * cleanly against a golden uninterrupted run.
 */

#ifndef AUTOPILOT_RUNNER_CAMPAIGN_H
#define AUTOPILOT_RUNNER_CAMPAIGN_H

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/autopilot.h"
#include "uav/uav_spec.h"
#include "util/cancel.h"
#include "util/retry.h"

namespace autopilot::runner
{

/** One campaign entry: a full pipeline run for one task/vehicle pair. */
struct CampaignTask
{
    /// Unique within the campaign; names the checkpoint subdirectory,
    /// so it must be a valid path component.
    std::string name;
    core::TaskSpec spec;
    uav::UavSpec uav; ///< Phase 3 target vehicle.
    /// Wall-clock bound for one attempt, checked between phases;
    /// 0 disables. Expiry is terminal: a task that ran out of time
    /// once is assumed to run out of time again.
    double deadlineSeconds = 0.0;
};

/** Terminal state of one campaign task. */
enum class TaskStatus
{
    Succeeded,       ///< Pipeline completed; outcome.run is valid.
    Failed,          ///< Retries exhausted on a transient/injected fault.
    DeadlineExpired, ///< The per-task deadline fired (never retried).
    /// The campaign's stop token fired (service drain). Unlike a
    /// deadline this is not terminal for the task itself: its journal
    /// is intact and a restarted service resumes it byte-identically.
    Cancelled
};

/** Short status label ("ok", "failed", "deadline", "cancelled"). */
std::string taskStatusName(TaskStatus status);

/** What happened to one task. */
struct TaskOutcome
{
    std::string name;
    TaskStatus status = TaskStatus::Failed;
    int attempts = 0;      ///< Pipeline attempts consumed (>= 1).
    std::string diagnosis; ///< Failure detail; empty when Succeeded.
    core::AutoPilotRun run; ///< Valid only when Succeeded.
};

/**
 * Largest thread count an input from outside the process may ask for:
 * TaskSpec::threads (the `threads` key), CampaignConfig::concurrency
 * and ServiceConfig::poolThreads. Far above any useful pool on one
 * host, and far below a count whose thread creation fails part-way.
 */
constexpr int maxThreads = 256;

/** Campaign-level orchestration knobs. */
struct CampaignConfig
{
    /// Campaign root directory; each task checkpoints under
    /// `<rootDir>/<task.name>/`. Empty disables checkpointing (tasks
    /// run in-memory only and cannot resume).
    std::string rootDir;
    /// Warm-start every task from its checkpoint subdirectory (see
    /// TaskSpec::resume). Tasks without matching files start fresh.
    bool resume = false;
    /// Tasks executed concurrently; 1 runs them serially on the
    /// calling thread, 0 uses the hardware concurrency; at most
    /// maxThreads. Task-internal parallelism is separate
    /// (TaskSpec::threads).
    int concurrency = 1;
    /// Retry policy for transient failures. The default retries
    /// everything except util::DeadlineExceeded and
    /// util::CancelledError, 3 attempts with exponential backoff.
    util::RetryPolicy retry;
    /// Campaign-wide stop token (e.g. the service's drain signal),
    /// chained into every task's per-attempt cancel source: tasks
    /// notice it before each phase and at every Phase 2 batch
    /// boundary, end as TaskStatus::Cancelled, and resume from their
    /// journals on the next run. Inert by default.
    util::CancelToken stop;
    /// Run every task's pipeline on this caller-owned pool instead of
    /// a per-task private one (see AutoPilot's shared-pool ctor). Null
    /// keeps the classic per-task pools. Non-owning; must outlive
    /// run().
    util::ThreadPool *sharedPool = nullptr;
};

/** Everything a finished campaign produced, in task order. */
struct CampaignReport
{
    std::vector<TaskOutcome> outcomes;

    std::size_t succeededCount() const;
    /// Failed + DeadlineExpired + Cancelled.
    std::size_t failedCount() const;
    std::size_t cancelledCount() const;
};

/**
 * Render the campaign summary table (one row per task: status,
 * attempts, key selected-design metrics or the failure diagnosis).
 * Deterministic - no timing, no paths - so reports from a resumed
 * campaign diff cleanly against an uninterrupted golden run.
 */
void printCampaignReport(const CampaignReport &report, std::ostream &os);

/** Orchestrates one campaign. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(const CampaignConfig &config = {});

    /**
     * Run every task (names must be unique and non-empty; fatal
     * otherwise). Blocks until all tasks reach a terminal state;
     * outcomes are returned in task order regardless of concurrency.
     */
    CampaignReport run(std::span<const CampaignTask> tasks);

    const CampaignConfig &config() const { return cfg; }

  private:
    TaskOutcome runOne(const CampaignTask &task) const;

    CampaignConfig cfg;
};

} // namespace autopilot::runner

#endif // AUTOPILOT_RUNNER_CAMPAIGN_H
