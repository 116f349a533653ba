#include "core/autopilot.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "dse/eval_backend.h"
#include "io/journal.h"
#include "power/mass_model.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::core
{

std::string
strategyName(DesignStrategy strategy)
{
    switch (strategy) {
      case DesignStrategy::HighThroughput: return "HT";
      case DesignStrategy::LowPower:       return "LP";
      case DesignStrategy::HighEfficiency: return "HE";
      case DesignStrategy::AutoPilotPick:  return "AP";
    }
    return "?";
}

std::uint64_t
taskFingerprint(const TaskSpec &task)
{
    std::ostringstream key;
    key.precision(17);
    key << airlearning::densityName(task.density) << '|'
        << task.validationEpisodes << '|' << task.dseBudget << '|'
        << task.successTolerance << '|' << task.maxLatencyMs << '|'
        << task.seed << '|' << task.backend << '|' << task.optimizer
        << '|' << task.contention.cameraBytesPerSec << '|'
        << task.contention.hostBytesPerSec << '|'
        << task.contention.npuFloorFraction;
    // A disabled DramSpec contributes nothing (like the default mix
    // below), so every pre-dram checkpoint and journal keeps its
    // fingerprint and stays resumable.
    if (task.dram.enabled())
        key << "|dram|" << task.dram.fingerprintText();
    // The default int8-only precision set contributes nothing, so every
    // pre-precision checkpoint and journal keeps its fingerprint and
    // stays resumable.
    if (task.precisions != std::vector<int>{1})
        key << "|precision|"
            << systolic::formatPrecisionList(task.precisions);
    // The default mix contributes nothing, so every pre-mix checkpoint
    // and journal keeps its fingerprint and stays resumable.
    if (!task.missionMix.isDefault()) {
        for (const uav::MissionScenario &scenario :
             task.missionMix.scenarios) {
            key << "|mix|" << scenario.name << '|'
                << uav::airframeKindName(scenario.airframe) << '|'
                << uav::missionClassName(scenario.profile.missionClass)
                << '|' << scenario.profile.distanceM << '|'
                << scenario.profile.searchAreaM2 << '|'
                << scenario.profile.laneSpacingM << '|'
                << scenario.profile.deliveryPayloadG << '|'
                << scenario.weight;
        }
    }
    // FNV-1a, 64-bit.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : key.str()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

AutoPilot::AutoPilot(const TaskSpec &task, util::ThreadPool *sharedPool)
    : AutoPilot(task)
{
    externalPool = sharedPool;
}

AutoPilot::AutoPilot(const TaskSpec &task) : taskSpec(task)
{
    util::fatalIf(taskSpec.validationEpisodes <= 0 ||
                      taskSpec.dseBudget <= 0,
                  "AutoPilot: budgets must be positive");
    util::fatalIf(taskSpec.successTolerance < 0.0 ||
                      taskSpec.successTolerance > 1.0,
                  "AutoPilot: success tolerance outside [0, 1]");
    util::fatalIf(taskSpec.threads < 0,
                  "AutoPilot: thread count must be >= 0");
    util::fatalIf(
        !dse::BackendRegistry::instance().knows(taskSpec.backend),
        "AutoPilot: unknown cost-model backend '" + taskSpec.backend +
            "'");
    taskSpec.contention.validate();
    taskSpec.dram.validate();
    util::fatalIf(taskSpec.dram.enabled() &&
                      taskSpec.contention.enabled(),
                  "AutoPilot: configure background DRAM traffic either "
                  "as a flat contention profile or as bank-level "
                  "traffic generators, not both - the two encode the "
                  "same streams at different fidelities and would be "
                  "billed twice");
    bool optimizerKnown = false;
    for (const std::string &candidate : dse::optimizerNames())
        optimizerKnown = optimizerKnown || candidate == taskSpec.optimizer;
    util::fatalIf(!optimizerKnown, "AutoPilot: unknown optimizer '" +
                                       taskSpec.optimizer + "'");
    taskSpec.missionMix.validate();
    util::fatalIf(taskSpec.precisions.empty(),
                  "AutoPilot: precision set must not be empty");
    int previousWidth = 0;
    for (const int width : taskSpec.precisions) {
        util::fatalIf(width != 1 && width != 2 && width != 4,
                      "AutoPilot: unsupported precision width " +
                          std::to_string(width) +
                          " bytes (want 1, 2 or 4)");
        util::fatalIf(width <= previousWidth,
                      "AutoPilot: precision set must be strictly "
                      "ascending");
        previousWidth = width;
    }
    if (!taskSpec.checkpointDir.empty())
        std::filesystem::create_directories(taskSpec.checkpointDir);
    if (taskSpec.telemetry)
        util::Telemetry::instance().setEnabled(true);
}

util::ThreadPool *
AutoPilot::workerPool()
{
    if (externalPool != nullptr)
        return externalPool; // Shared across pipelines (service mode).
    if (taskSpec.threads == 1)
        return nullptr; // Serial on the calling thread.
    if (!pool) {
        pool = std::make_unique<util::ThreadPool>(
            static_cast<std::size_t>(taskSpec.threads));
    }
    return pool.get();
}

const airlearning::PolicyDatabase &
AutoPilot::phase1()
{
    if (phase1Done)
        return database;
    // Before-phase check: a task whose deadline already passed (or
    // whose service is draining) must not launch a training phase it
    // can never finish in time.
    taskSpec.cancel.check("Phase 1 start");

    const std::string checkpointPath =
        taskSpec.checkpointDir.empty()
            ? std::string()
            : taskSpec.checkpointDir + "/policies.chk";
    const std::uint64_t fingerprint = taskFingerprint(taskSpec);

    if (taskSpec.resume && !checkpointPath.empty()) {
        const io::PolicyCheckpoint checkpoint =
            io::readPolicyCheckpoint(checkpointPath);
        if (checkpoint.found && checkpoint.ok &&
            checkpoint.fingerprint == fingerprint) {
            database = checkpoint.db;
            phase1Done = true;
            return database;
        }
        if (checkpoint.found) {
            util::warn(
                "AutoPilot: ignoring policy checkpoint '" +
                checkpointPath + "' (" +
                (checkpoint.ok ? std::string("task fingerprint mismatch")
                               : "corrupt: " + checkpoint.reason) +
                "); retraining Phase 1");
        }
    }

    {
        util::TraceSpan span("phase1", "autopilot");
        airlearning::TrainerConfig trainer_config;
        trainer_config.validationEpisodes = taskSpec.validationEpisodes;
        trainer_config.seed = taskSpec.seed;
        const airlearning::Trainer trainer(trainer_config);
        trainer.trainAll(nn::PolicySpace(), taskSpec.density, database,
                         workerPool());
        phase1Done = true;
    }
    if (!checkpointPath.empty())
        io::writePolicyCheckpoint(checkpointPath, fingerprint, database);
    return database;
}

const dse::OptimizerResult &
AutoPilot::phase2()
{
    if (phase2Done)
        return dseResult;

    dse::DseEvaluator evaluator(phase1(), taskSpec.density,
                                taskSpec.backend, taskSpec.contention,
                                taskSpec.dram, taskSpec.precisions);
    taskSpec.cancel.check("Phase 2 start");
    util::TraceSpan span("phase2", "autopilot");
    evaluator.setThreadPool(workerPool());
    // Batch-boundary cancellation: the evaluator re-checks this token
    // at every evaluateBatch() entry, so an expired deadline stops the
    // optimizer within one batch instead of burning the whole Phase 2
    // budget, and the journal still holds only whole batches.
    evaluator.setCancelToken(taskSpec.cancel);
    // Journal rows record which fleet workload drove the campaign.
    evaluator.setScenarioTag(taskSpec.missionMix.tag());

    // Journaling: replay any fingerprint-matched journal prefix into
    // the memo cache (the optimizer then replays its recorded
    // trajectory with those points costing no simulation), and hook
    // the evaluator so each newly committed batch is appended and
    // flushed - a kill loses at most the in-flight batch.
    std::unique_ptr<io::EvalJournalWriter> journal;
    if (!taskSpec.checkpointDir.empty()) {
        const std::string journalPath =
            taskSpec.checkpointDir + "/journal.csv";
        const std::uint64_t fingerprint = taskFingerprint(taskSpec);
        std::vector<dse::Evaluation> replayed;
        if (taskSpec.resume) {
            io::JournalReplay replay = io::readEvalJournal(journalPath);
            if (replay.found && replay.fingerprint == fingerprint) {
                if (replay.truncated) {
                    util::warn("AutoPilot: journal '" + journalPath +
                               "' torn at line " +
                               std::to_string(replay.badLine) + " (" +
                               replay.reason + "); replaying " +
                               std::to_string(replay.entries.size()) +
                               " intact rows");
                }
                replayed = std::move(replay.entries);
            } else if (replay.found) {
                util::warn("AutoPilot: ignoring journal '" +
                           journalPath +
                           "' (task fingerprint mismatch); starting "
                           "Phase 2 fresh");
            }
        }
        evaluator.preload(replayed);
        journal = std::make_unique<io::EvalJournalWriter>(
            journalPath, fingerprint, replayed,
            taskSpec.precisions.size() > 1);
        evaluator.setJournalSink(
            [writer = journal.get()](
                std::span<const dse::Evaluation> batch) {
                writer->append(batch);
            });
    }

    const std::unique_ptr<dse::Optimizer> optimizer =
        dse::makeOptimizer(taskSpec.optimizer);
    dse::OptimizerConfig config;
    config.evaluationBudget = taskSpec.dseBudget;
    config.seed = taskSpec.seed ^ 0xB0;
    dseResult = optimizer->optimize(evaluator, config);
    phase2Done = true;
    return dseResult;
}

FullSystemDesign
AutoPilot::mapToFullSystem(const dse::Evaluation &eval,
                           const uav::UavSpec &uav)
{
    return mapToFullSystem(eval, uav, uav::MissionMix{});
}

FullSystemDesign
AutoPilot::mapToFullSystem(const dse::Evaluation &eval,
                           const uav::UavSpec &uav,
                           const uav::MissionMix &mix)
{
    FullSystemDesign design;
    design.eval = eval;
    design.tdpW = eval.npuPowerW;

    const power::MassModel mass_model;
    design.payloadGrams = mass_model.computePayloadGrams(design.tdpW);

    double weighted = 0.0;
    double total_weight = 0.0;
    for (const uav::MissionScenario &scenario :
         uav::effectiveScenarios(mix)) {
        const uav::MissionModel mission_model(uav, scenario.airframe,
                                              scenario.profile);
        // Sensor selection is per scenario: each airframe has its own
        // knee.
        ScenarioOutcome outcome;
        outcome.name = scenario.name;
        outcome.airframe = scenario.airframe;
        outcome.weight = scenario.weight;
        outcome.sensorFps =
            mission_model.sensorFpsAtKnee(design.payloadGrams);
        outcome.mission = mission_model.evaluate(
            design.payloadGrams, eval.socPowerW, eval.fps,
            static_cast<double>(outcome.sensorFps));
        weighted += scenario.weight * outcome.mission.numMissions;
        total_weight += scenario.weight;
        design.scenarios.push_back(std::move(outcome));
    }
    design.sensorFps = design.scenarios.front().sensorFps;
    design.mission = design.scenarios.front().mission;
    design.weightedMissions = weighted / total_weight;
    return design;
}

std::vector<FullSystemDesign>
AutoPilot::candidatesFor(const uav::UavSpec &uav)
{
    const dse::OptimizerResult &result = phase2();
    util::fatalIf(result.archive.empty(),
                  "AutoPilot: Phase 2 produced no evaluations");
    taskSpec.cancel.check("Phase 3 start");

    double best_success = 0.0;
    for (const dse::Evaluation &eval : result.archive)
        best_success = std::max(best_success, eval.successRate);

    // Map the surviving archive entries to full-system designs in
    // parallel (the mission-model evaluation per candidate is
    // independent), then partition in archive order so the candidate
    // list is identical across thread counts.
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < result.archive.size(); ++i) {
        if (result.archive[i].successRate + taskSpec.successTolerance >=
            best_success)
            survivors.push_back(i);
    }
    std::vector<FullSystemDesign> mapped(survivors.size());
    util::parallel_for(workerPool(), survivors.size(),
                       [&](std::size_t s) {
                           mapped[s] = mapToFullSystem(
                               result.archive[survivors[s]], uav,
                               taskSpec.missionMix);
                       });

    std::vector<FullSystemDesign> candidates;
    std::vector<FullSystemDesign> latency_violators;
    for (std::size_t s = 0; s < survivors.size(); ++s) {
        const dse::Evaluation &eval = result.archive[survivors[s]];
        if (taskSpec.maxLatencyMs > 0.0 &&
            eval.latencyMs > taskSpec.maxLatencyMs) {
            latency_violators.push_back(std::move(mapped[s]));
            continue;
        }
        candidates.push_back(std::move(mapped[s]));
    }
    if (candidates.empty() && !latency_violators.empty()) {
        util::warn("AutoPilot: no candidate meets the " +
                   std::to_string(taskSpec.maxLatencyMs) +
                   " ms latency constraint; falling back to the "
                   "unconstrained set");
        return latency_violators;
    }
    return candidates;
}

FullSystemDesign
AutoPilot::selectByStrategy(
    const std::vector<FullSystemDesign> &candidates,
    DesignStrategy strategy)
{
    util::fatalIf(candidates.empty(),
                  "AutoPilot::selectByStrategy: no candidates");

    auto pick = [&](auto better) {
        const FullSystemDesign *best = &candidates.front();
        for (const FullSystemDesign &candidate : candidates) {
            if (better(candidate, *best))
                best = &candidate;
        }
        return *best;
    };

    switch (strategy) {
      case DesignStrategy::HighThroughput:
        return pick([](const FullSystemDesign &a,
                       const FullSystemDesign &b) {
            return a.eval.fps > b.eval.fps;
        });
      case DesignStrategy::LowPower:
        return pick([](const FullSystemDesign &a,
                       const FullSystemDesign &b) {
            return a.eval.socPowerW < b.eval.socPowerW;
        });
      case DesignStrategy::HighEfficiency:
        return pick([](const FullSystemDesign &a,
                       const FullSystemDesign &b) {
            return a.eval.fps / a.eval.socPowerW >
                   b.eval.fps / b.eval.socPowerW;
        });
      case DesignStrategy::AutoPilotPick:
        return pick([](const FullSystemDesign &a,
                       const FullSystemDesign &b) {
            // The fleet objective: weighted missions across the mix
            // (identical to numMissions on the default mix).
            if (a.missionScore() != b.missionScore())
                return a.missionScore() > b.missionScore();
            // Tie-break toward lower power (lighter, cooler design).
            return a.eval.socPowerW < b.eval.socPowerW;
        });
    }
    util::panic("selectByStrategy: unknown strategy");
}

AutoPilotRun
AutoPilot::designFor(const uav::UavSpec &uav)
{
    AutoPilotRun run;
    run.uav = uav;
    run.task = taskSpec;
    run.dseResult = phase2(); // Before the span: phases must not nest.
    util::TraceSpan span("phase3", "autopilot");
    run.candidates = candidatesFor(uav);
    run.selected = selectByStrategy(run.candidates,
                                    DesignStrategy::AutoPilotPick);
    return run;
}

} // namespace autopilot::core
