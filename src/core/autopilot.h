/**
 * @file
 * The AutoPilot methodology facade: the three-phase pipeline of Fig. 1.
 *
 *  Phase 1 (domain-specific front end): train and validate E2E policies
 *  for the task specification; fill the Air Learning database.
 *
 *  Phase 2 (domain-agnostic multi-objective DSE): Bayesian optimization
 *  over the joint Table II space, optimizing {success rate, SoC power,
 *  inference latency}.
 *
 *  Phase 3 (domain-specific back end): filter the candidates with the
 *  highest success rates, map each through the compute-weight model onto
 *  the F-1 model of the target vehicle, and select the combination that
 *  maximizes the number of missions.
 *
 * Phases 1 and 2 depend only on the deployment scenario, not the vehicle,
 * so one AutoPilot instance can lower the same Phase 2 result to several
 * UAVs ("a bad design point for one UAV type can be a balanced design for
 * another") - exactly why the methodology is split into three phases.
 */

#ifndef AUTOPILOT_CORE_AUTOPILOT_H
#define AUTOPILOT_CORE_AUTOPILOT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "airlearning/database.h"
#include "airlearning/trainer.h"
#include "dram/config.h"
#include "dse/bayesopt.h"
#include "dse/optimizer.h"
#include "systolic/contention.h"
#include "uav/mission.h"
#include "uav/mission_profile.h"
#include "uav/uav_spec.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace autopilot::core
{

/** High-level task specification (the user input of Fig. 1). */
struct TaskSpec
{
    airlearning::ObstacleDensity density =
        airlearning::ObstacleDensity::Low;
    int validationEpisodes = 150;  ///< Phase 1 rollouts per policy.
    int dseBudget = 110;           ///< Phase 2 evaluation budget.
    double successTolerance = 0.02;///< Phase 3 filter band below best.
    /// Hard real-time bound on policy inference (Section III-A's
    /// "real-time latency constraints"); 0 disables the constraint.
    /// Candidates violating it are dropped in Phase 3 (with a warning
    /// fallback to the unconstrained set when nothing survives).
    double maxLatencyMs = 0.0;
    std::uint64_t seed = 0xA070D1; ///< Reproducibility seed.
    /// Worker threads for the batch-parallel pipeline stages (Phase 1
    /// training fan-out, Phase 2 batch evaluation and acquisition
    /// screening, Phase 3 candidate mapping). 1 runs fully serial on
    /// the calling thread; 0 uses the hardware concurrency. Results are
    /// byte-identical across thread counts for a fixed seed: every
    /// parallel stage commits its results in proposal order.
    int threads = 1;
    /// Cost-model backend for the Phase 2 evaluator, by registry name
    /// (dse::BackendRegistry): "analytical" (default; the closed-form
    /// path, bit-identical to the historical pipeline), "cycle" (the
    /// cycle-stepped reference engine), "tiered" (analytical screen +
    /// cycle-accurate verification of Pareto-competitive points), or
    /// any custom backend registered at startup. Fatal on an unknown
    /// name. Each archived evaluation records the fidelity that
    /// produced it; printRunReport() shows the per-fidelity breakdown
    /// for non-default backends.
    std::string backend = "analytical";
    /// Shared-DRAM contention profile for the Phase 2 cost model:
    /// background camera/host traffic on the NPU's channel (see
    /// systolic::ContentionProfile). Read by the "contention" backend
    /// and the "tiered" verify tier; the default empty profile leaves
    /// every backend bit-identical to its contention-free behavior.
    /// Validated at construction; part of the task fingerprint, so a
    /// journal written under one profile never resumes under another.
    systolic::ContentionProfile contention;
    /// Bank-level DRAM channel for the Phase 2 cost model: command
    /// timing plus programmable camera/host traffic generators (see
    /// dram::DramSpec). Read by the "dram" backend and, when enabled,
    /// by the "tiered" verify tier; the default spec (no generators)
    /// leaves every backend bit-identical to the pure-cycle path and
    /// contributes nothing to the task fingerprint, so legacy journals
    /// keep resuming. Validated at construction - degenerate timing is
    /// rejected with a human-readable diagnosis - and mutually
    /// exclusive with a non-empty contention profile (the two encode
    /// the same background traffic at different fidelities; billing
    /// both would double-charge latency and power).
    dram::DramSpec dram;
    /// Phase 2 optimizer, by report name ("bo" - the paper's Bayesian
    /// optimization and the default - "nsga2", "sa" or "random"; see
    /// dse::makeOptimizer). Fatal on an unknown name. All optimizers
    /// run with default algorithm parameters; budget and seed come from
    /// dseBudget/seed above.
    std::string optimizer = "bo";
    /// Directory for the run's durable state: the Phase 1 policy
    /// checkpoint ("policies.chk") and the Phase 2 evaluation journal
    /// ("journal.csv"), both headed by the task fingerprint. Empty
    /// (default) disables checkpointing entirely. The directory is
    /// created on demand.
    std::string checkpointDir;
    /// Warm-start from checkpointDir's files when they exist and their
    /// fingerprint matches taskFingerprint(): Phase 1 loads the policy
    /// checkpoint instead of retraining, Phase 2 preloads the journal
    /// into the memo cache (and the backend's warm-start state) so the
    /// optimizer replays its recorded trajectory without re-simulating,
    /// then continues where the interrupted run stopped. A resumed run
    /// with an unchanged spec produces byte-identical results to an
    /// uninterrupted one. Mismatched or absent files fall back to a
    /// fresh run (with a warning when a mismatched file existed).
    bool resume = false;
    /// Cooperative cancellation handle, checked at phase starts and at
    /// every Phase 2 batch boundary (DseEvaluator::evaluateBatch entry),
    /// so an expired deadline or a service drain stops a pipeline
    /// within one batch instead of after the phase - committed journal
    /// batches stay whole and the task resumes byte-identically.
    /// Inert by default. Like threads, EXCLUDED from taskFingerprint():
    /// when a run is cancelled does not change what it computes.
    util::CancelToken cancel;
    /// Fleet workload for Phase 3: a weighted set of (airframe,
    /// mission) scenarios (uav::MissionMix). The selection objective
    /// becomes the weighted missions-per-charge across the mix, with
    /// per-scenario results retained in each FullSystemDesign for the
    /// report. The default empty mix is the legacy single quadrotor
    /// point-to-point scenario: results and the task fingerprint are
    /// bit-identical to the pre-mix pipeline, so existing checkpoints
    /// and journals keep resuming. Validated at construction; a
    /// non-default mix is folded into taskFingerprint().
    uav::MissionMix missionMix;
    /// Searchable operand precisions for the Phase 2 design space's 8th
    /// dimension, as ascending bytes-per-element drawn from {1,2,4}
    /// (int8/fp16/fp32; see systolic::precisionName). The default
    /// int8-only set pins the axis: no RNG draws are spent on it, the
    /// archive keeps the legacy column layout, and nothing is folded
    /// into the fingerprint - results are bit-identical to the
    /// pre-precision pipeline and old journals keep resuming. A wider
    /// set makes precision a search dimension (pair with the
    /// "quantized" backend for per-precision telemetry): wider operands
    /// pay quadratically more MAC energy and proportionally more
    /// SRAM/DRAM traffic but recover the Phase 1 int8 quantization
    /// penalty. Validated at construction; folded into
    /// taskFingerprint() when non-default.
    std::vector<int> precisions = {1};
    /// Enable the run-telemetry subsystem (util::Telemetry): Phase
    /// 1/2/3 trace spans, per-evaluation simulate spans, cache/pool
    /// metrics, and a summary table appended to printRunReport(). Off
    /// by default so reports and golden outputs are unchanged. The flag
    /// switches the process-wide telemetry context on; it never turns
    /// it off, so several AutoPilot instances can share one enabled
    /// context.
    bool telemetry = false;
};

/**
 * 64-bit fingerprint (FNV-1a) over every TaskSpec field that affects
 * results: density, budgets, tolerance, latency bound, seed, backend,
 * optimizer, the contention profile and (when non-default) the mission
 * mix, the bank-level DRAM channel and the precision set. Deliberately
 * EXCLUDES threads,
 * cancel and telemetry (results
 * are byte-identical across thread counts, so a journal written at
 * --threads 4 legitimately resumes at --threads 1) and the
 * checkpointing fields themselves. Stamped into checkpoint/journal
 * headers so a resumed run never replays state computed for a
 * different problem.
 */
std::uint64_t taskFingerprint(const TaskSpec &task);

/** One mission-mix scenario's evaluation of a candidate design. */
struct ScenarioOutcome
{
    std::string name;          ///< Scenario tag from the mix.
    uav::AirframeKind airframe = uav::AirframeKind::Quadrotor;
    double weight = 1.0;       ///< Relative share in the objective.
    int sensorFps = 30;        ///< Sensor picked for this scenario.
    uav::MissionResult mission;///< Mission evaluation on this scenario.
};

/** A Phase 2 candidate lowered to a full UAV system (Phase 3 view). */
struct FullSystemDesign
{
    dse::Evaluation eval;      ///< Compute-level metrics.
    double tdpW = 0.0;         ///< NPU power driving heatsink sizing.
    double payloadGrams = 0.0; ///< PCB + heatsink mass.
    int sensorFps = 30;        ///< Sensor rate (primary scenario).
    uav::MissionResult mission;///< Primary-scenario mission evaluation.
    /// Per-scenario evaluations, in mix order (one default entry for
    /// the legacy single-scenario workload).
    std::vector<ScenarioOutcome> scenarios;
    /// Weight-averaged missions-per-charge across the mix; equals
    /// mission.numMissions bit-for-bit on the default mix.
    double weightedMissions = 0.0;

    /// The Phase 3 selection objective: the weighted fleet metric when
    /// scenarios were mapped, the primary mission metric otherwise
    /// (hand-built designs in tests).
    double missionScore() const
    {
        return scenarios.empty() ? mission.numMissions
                                 : weightedMissions;
    }
};

/** Traditional selection strategies of Section V-B. */
enum class DesignStrategy
{
    HighThroughput, ///< Max compute FPS ("HT").
    LowPower,       ///< Min SoC power ("LP").
    HighEfficiency, ///< Max FPS/W ("HE").
    AutoPilotPick,  ///< Phase 3 full-system selection ("AP").
};

/** Short strategy label ("HT", "LP", "HE", "AP"). */
std::string strategyName(DesignStrategy strategy);

/** Complete record of one AutoPilot run for one vehicle. */
struct AutoPilotRun
{
    uav::UavSpec uav;
    TaskSpec task;
    dse::OptimizerResult dseResult;          ///< Phase 2 archive.
    std::vector<FullSystemDesign> candidates;///< Phase 3 mapped set.
    FullSystemDesign selected;               ///< The AP design.
};

/** The three-phase pipeline, with Phase 1/2 results cached for reuse. */
class AutoPilot
{
  public:
    /** @param task Task specification shared by every vehicle. */
    explicit AutoPilot(const TaskSpec &task);

    /**
     * Construct on a caller-owned worker pool instead of a private
     * one: the campaign service runs many concurrent pipelines over a
     * single shared pool, so one huge campaign's tasks interleave with
     * everyone else's instead of monopolizing threads.
     * @p sharedPool is non-owning and must outlive the pipeline; null
     * falls back to the private-pool behavior of the other ctor.
     * Results are identical either way (tasks are pure, commits are
     * ordered), so sharing is purely a scheduling decision.
     */
    AutoPilot(const TaskSpec &task, util::ThreadPool *sharedPool);

    /** Phase 1: lazily train/validate all template policies. */
    const airlearning::PolicyDatabase &phase1();

    /** Phase 2: lazily run the multi-objective DSE (runs Phase 1). */
    const dse::OptimizerResult &phase2();

    /**
     * Phase 3: lower the Phase 2 candidates to @p uav and select the
     * design that maximizes the number of missions.
     */
    AutoPilotRun designFor(const uav::UavSpec &uav);

    /**
     * Map one Phase 2 evaluation to a full-system design on a vehicle
     * (compute weight model + sensor selection + mission model) for the
     * legacy single quadrotor point-to-point scenario.
     */
    static FullSystemDesign mapToFullSystem(const dse::Evaluation &eval,
                                            const uav::UavSpec &uav);

    /**
     * Mission-mix mapping: evaluate the design on every scenario of
     * @p mix (each with its own airframe, mission profile and sensor
     * selection) and aggregate the weighted missions-per-charge. The
     * primary fields (sensorFps, mission) mirror the first scenario.
     */
    static FullSystemDesign mapToFullSystem(const dse::Evaluation &eval,
                                            const uav::UavSpec &uav,
                                            const uav::MissionMix &mix);

    /**
     * The Phase 3 candidate set for a vehicle: Phase 2 archive entries
     * whose success rate is within the tolerance of the best, each mapped
     * to the full system.
     */
    std::vector<FullSystemDesign>
    candidatesFor(const uav::UavSpec &uav);

    /**
     * Pick a design from a candidate set by a selection strategy; used by
     * the Section V-B pitfall studies.
     */
    static FullSystemDesign
    selectByStrategy(const std::vector<FullSystemDesign> &candidates,
                     DesignStrategy strategy);

    const TaskSpec &task() const { return taskSpec; }

    /**
     * The worker pool shared by all pipeline stages; null when the task
     * requested serial execution (threads == 1). Lazily started so a
     * pipeline that only replays cached phases never spawns threads.
     */
    util::ThreadPool *workerPool();

  private:
    TaskSpec taskSpec;
    bool phase1Done = false;
    bool phase2Done = false;
    airlearning::PolicyDatabase database;
    dse::OptimizerResult dseResult;
    std::unique_ptr<util::ThreadPool> pool;
    util::ThreadPool *externalPool = nullptr; ///< Non-owning override.
};

} // namespace autopilot::core

#endif // AUTOPILOT_CORE_AUTOPILOT_H
