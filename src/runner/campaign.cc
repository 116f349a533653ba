#include "runner/campaign.h"

#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "util/logging.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace autopilot::runner
{

std::string
taskStatusName(TaskStatus status)
{
    switch (status) {
      case TaskStatus::Succeeded:       return "ok";
      case TaskStatus::Failed:          return "failed";
      case TaskStatus::DeadlineExpired: return "deadline";
      case TaskStatus::Cancelled:       return "cancelled";
    }
    return "?";
}

std::size_t
CampaignReport::succeededCount() const
{
    std::size_t count = 0;
    for (const TaskOutcome &outcome : outcomes)
        count += outcome.status == TaskStatus::Succeeded ? 1 : 0;
    return count;
}

std::size_t
CampaignReport::failedCount() const
{
    return outcomes.size() - succeededCount();
}

std::size_t
CampaignReport::cancelledCount() const
{
    std::size_t count = 0;
    for (const TaskOutcome &outcome : outcomes)
        count += outcome.status == TaskStatus::Cancelled ? 1 : 0;
    return count;
}

void
printCampaignReport(const CampaignReport &report, std::ostream &os)
{
    util::Table table({"task", "status", "attempts", "success",
                       "soc W", "lat ms", "missions", "detail"});
    for (const TaskOutcome &outcome : report.outcomes) {
        if (outcome.status == TaskStatus::Succeeded) {
            const core::FullSystemDesign &design = outcome.run.selected;
            table.addRow(
                {outcome.name, taskStatusName(outcome.status),
                 std::to_string(outcome.attempts),
                 util::formatDouble(design.eval.successRate, 3),
                 util::formatDouble(design.eval.socPowerW, 3),
                 util::formatDouble(design.eval.latencyMs, 3),
                 std::to_string(design.missionScore()), "-"});
        } else {
            table.addRow({outcome.name, taskStatusName(outcome.status),
                          std::to_string(outcome.attempts), "-", "-",
                          "-", "-", outcome.diagnosis});
        }
    }
    os << "Campaign: " << report.succeededCount() << "/"
       << report.outcomes.size() << " tasks succeeded\n";
    table.print(os);

    // Per-scenario breakdown for tasks that ran a non-default mission
    // mix: the weighted objective alone hides which fleet member the
    // selected SoC serves well or poorly. Default-mix campaigns print
    // nothing extra, keeping legacy reports byte-identical.
    for (const TaskOutcome &outcome : report.outcomes) {
        if (outcome.status != TaskStatus::Succeeded ||
            outcome.run.task.missionMix.isDefault())
            continue;
        os << "Task " << outcome.name << " mission mix '"
           << outcome.run.task.missionMix.tag() << "' (weighted "
           << util::formatDouble(outcome.run.selected.weightedMissions,
                                 3)
           << " missions/charge):\n";
        for (const core::ScenarioOutcome &scenario :
             outcome.run.selected.scenarios) {
            os << "  " << scenario.name << " ("
               << uav::airframeKindName(scenario.airframe)
               << ", weight "
               << util::formatDouble(scenario.weight, 1) << "): ";
            if (scenario.mission.feasible) {
                os << util::formatDouble(scenario.mission.numMissions,
                                         3)
                   << " missions at "
                   << util::formatDouble(
                          scenario.mission.safeVelocityMps, 1)
                   << " m/s";
            } else {
                os << "infeasible ("
                   << scenario.mission.infeasibleReason << ")";
            }
            os << "\n";
        }
    }
}

CampaignRunner::CampaignRunner(const CampaignConfig &config)
    : cfg(config)
{
    util::fatalIf(cfg.concurrency < 0 || cfg.concurrency > maxThreads,
                  "CampaignRunner: concurrency must be in [0, " +
                      std::to_string(maxThreads) + "]");
    util::validateRetryPolicy(cfg.retry);
}

TaskOutcome
CampaignRunner::runOne(const CampaignTask &task) const
{
    TaskOutcome outcome;
    outcome.name = task.name;
    try {
        outcome.run = util::retryWithBackoff(
            cfg.retry,
            [&](int attempt) {
                outcome.attempts = attempt;
                const util::Deadline deadline =
                    util::Deadline::after(task.deadlineSeconds);
                // Per-attempt cancel source: the attempt's deadline
                // plus the campaign-wide stop token. AutoPilot checks
                // it before every phase and the evaluator at every
                // batch boundary, so expiry or a drain stops the
                // attempt within one batch - never mid-journal-record.
                const util::CancelSource cancel(deadline, cfg.stop);
                core::TaskSpec spec = task.spec;
                spec.cancel = cancel.token();
                if (!cfg.rootDir.empty()) {
                    spec.checkpointDir = cfg.rootDir + "/" + task.name;
                    // A retry always warm-starts from the journal the
                    // failed attempt flushed: committed batches are
                    // never re-simulated.
                    spec.resume = cfg.resume || attempt > 1;
                }
                core::AutoPilot pilot(spec, cfg.sharedPool);
                pilot.phase1();
                deadline.check("task '" + task.name + "' after Phase 1");
                pilot.phase2();
                deadline.check("task '" + task.name + "' after Phase 2");
                return pilot.designFor(task.uav);
            },
            [&](int attempt, const std::exception &error) {
                util::warn("CampaignRunner: task '" + task.name +
                           "' attempt " + std::to_string(attempt) +
                           " failed (" + error.what() + "); retrying");
            });
        outcome.status = TaskStatus::Succeeded;
    } catch (const util::DeadlineExceeded &error) {
        outcome.status = TaskStatus::DeadlineExpired;
        outcome.diagnosis = error.what();
    } catch (const util::CancelledError &error) {
        outcome.status = TaskStatus::Cancelled;
        outcome.diagnosis = error.what();
    } catch (const std::exception &error) {
        outcome.status = TaskStatus::Failed;
        outcome.diagnosis = error.what();
    }
    if (outcome.status != TaskStatus::Succeeded) {
        util::warn("CampaignRunner: skipping task '" + task.name +
                   "' after " + std::to_string(outcome.attempts) +
                   " attempt(s): " + outcome.diagnosis);
    }
    return outcome;
}

CampaignReport
CampaignRunner::run(std::span<const CampaignTask> tasks)
{
    std::set<std::string> names;
    for (const CampaignTask &task : tasks) {
        util::fatalIf(task.name.empty(),
                      "CampaignRunner: every task needs a name");
        util::fatalIf(!names.insert(task.name).second,
                      "CampaignRunner: duplicate task name '" +
                          task.name + "'");
        util::fatalIf(!std::isfinite(task.deadlineSeconds) ||
                          task.deadlineSeconds < 0.0,
                      "CampaignRunner: deadline on task '" + task.name +
                          "' must be finite and >= 0");
        util::fatalIf(task.spec.threads < 0 ||
                          task.spec.threads > maxThreads,
                      "CampaignRunner: threads on task '" + task.name +
                          "' must be in [0, " +
                          std::to_string(maxThreads) + "]");
    }

    util::TraceSpan span("campaign", "runner");
    CampaignReport report;
    report.outcomes.resize(tasks.size());

    // Tasks fan out over a campaign-level pool; outcomes land in
    // task-index slots so the report order never depends on scheduling.
    // Each AutoPilot still owns its task-internal pool (spec.threads).
    std::unique_ptr<util::ThreadPool> pool;
    if (cfg.concurrency != 1 && tasks.size() > 1) {
        pool = std::make_unique<util::ThreadPool>(
            static_cast<std::size_t>(cfg.concurrency));
    }
    util::parallel_for(pool.get(), tasks.size(), [&](std::size_t i) {
        report.outcomes[i] = runOne(tasks[i]);
    });

    util::Telemetry &telemetry = util::Telemetry::instance();
    if (telemetry.enabled()) {
        telemetry.metrics()
            .counter("runner.tasks.succeeded")
            .add(report.succeededCount());
        telemetry.metrics()
            .counter("runner.tasks.failed")
            .add(report.failedCount());
    }
    return report;
}

} // namespace autopilot::runner
