/**
 * @file
 * Pluggable cost-model backends for the Phase 2 evaluator.
 *
 * The paper treats the architectural simulator as a swappable black box
 * (Section III-B: "SCALE-Sim-style" performance plus CACTI/Micron-style
 * power); this layer makes the swap a string. A backend turns one
 * DesignPoint into one Evaluation; the DseEvaluator owns exactly one
 * backend and routes every cache miss through it, so the memoization,
 * batching and determinism machinery is shared by all cost models.
 *
 * Six registry names ship in-tree, over three implementations:
 *
 *  - AnalyticalBackend ("analytical", "quantized"): the closed-form
 *    AnalyticalEngine + NPU/SoC power stack - the historical
 *    DseEvaluator::compute() path, bit-identical to it. The default;
 *    fast enough to burn inside the DSE loop. "quantized" is the same
 *    numbers under its own archived name, making the precision axis an
 *    explicit choice (pair with TaskSpec::precisions); the evaluator
 *    counts its points per operand width ("dse.quantized.<label>.points").
 *  - CycleTimelineBackend ("cycle", "contention", "dram"): the same power
 *    stack on the cycle-stepped prefetch/writeback timeline over one of
 *    three memory models. "cycle" gives the NPU the whole channel;
 *    "contention" derates fetch/writeback bandwidth by the context's
 *    ContentionProfile and bills that traffic to DRAM power; "dram"
 *    simulates a bank-level channel (dram::BankModel) shared with the
 *    DramSpec's traffic generators and bills DRAM power from the
 *    simulated command counts. An empty profile or a spec without
 *    generators falls back to the whole-channel model, so those runs
 *    are bit-identical to "cycle". Rows record the profile's bytes/s or
 *    the channel tag, so a journaled run resumes under the memory model
 *    it was written with.
 *  - TieredBackend ("tiered"): cheap-screen / accurate-verify. Every
 *    point is screened analytically; only points whose screened
 *    objectives are Pareto-competitive (within a configurable
 *    hypervolume-contribution band of the running analytical front) are
 *    promoted to a cycle-timeline re-evaluation. Each Evaluation
 *    records which fidelity produced its archived numbers.
 *
 * Determinism: analytical and cycle evaluations are pure functions of
 * the design point. The tiered promotion decision is stateful (it
 * depends on every point screened before), so TieredBackend makes all
 * promotion decisions serially in request order inside evaluateBatch();
 * for a fixed request sequence - e.g. a seeded optimizer loop - results
 * are byte-identical at any worker-thread count.
 *
 * Telemetry: with the global util::Telemetry enabled each batch bumps
 * "dse.backend.<name>.points"; the tiered backend additionally counts
 * "dse.tiered.screened" / "dse.tiered.promoted" and wraps its screening
 * pass in a "dse.tiered.screen" trace span. Granularity caveat: the
 * analytical batch path processes points in SoA chunks, so its
 * "dse.simulate" spans and "dse.simulate_s" / "dse.screen_s" samples
 * cover one chunk (up to 32 points) each; the cycle-engine backends
 * keep per-point samples.
 */

#ifndef AUTOPILOT_DSE_EVAL_BACKEND_H
#define AUTOPILOT_DSE_EVAL_BACKEND_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "airlearning/database.h"
#include "dram/bank_model.h"
#include "dram/config.h"
#include "dse/design_space.h"
#include "dse/evaluation.h"
#include "systolic/contention.h"
#include "util/thread_pool.h"

namespace autopilot::dse
{

/** Everything a backend needs besides the design point itself. */
struct BackendContext
{
    /// Phase 1 policy database; must contain a record for every
    /// hyperparameter combination the backend will be asked about.
    const airlearning::PolicyDatabase *database = nullptr;
    /// Deployment scenario being designed for.
    airlearning::ObstacleDensity density =
        airlearning::ObstacleDensity::Low;
    /// Background DRAM traffic sharing the NPU's channel. Read by the
    /// "contention" backend and the tiered verify tier; the default
    /// (empty) profile keeps every backend's results untouched.
    systolic::ContentionProfile contention;
    /// Bank-level DRAM channel description (timing + traffic
    /// generators). Read by the "dram" backend and, when enabled, by the
    /// tiered verify tier; the default (no generators) keeps every
    /// backend's results untouched. Mutually exclusive with a
    /// non-empty contention profile - the two encode the same
    /// background traffic at different fidelities, and billing it
    /// twice (flat derate + simulated interference) would double-charge
    /// latency and power.
    dram::DramSpec dram;
};

/** Abstract cost model: DesignPoint -> Evaluation. */
class EvalBackend
{
  public:
    /// Delivers the result for one batch index; may be invoked from
    /// pool workers concurrently, exactly once per index.
    using CommitFn = std::function<void(std::size_t, Evaluation &&)>;

    virtual ~EvalBackend() = default;

    /** Registry key ("analytical", "cycle", "tiered", ...). */
    virtual std::string name() const = 0;

    /** Fidelity of the numbers this backend archives. */
    virtual Fidelity fidelity() const = 0;

    /**
     * Evaluate one design point. The returned Evaluation carries every
     * field except the encoding (backends deal in decoded points; the
     * caller owns the encoding). Pure for the stateless backends;
     * thread-safe for all of them.
     */
    virtual Evaluation evaluate(const DesignPoint &point) = 0;

    /**
     * Evaluate a batch, committing each result as it becomes ready.
     *
     * The default implementation runs evaluate() for every point via
     * util::parallel_for on @p pool (serially when null), wrapped in
     * the per-point "dse.simulate" span and "dse.simulate_s" histogram.
     * Stateful backends override this to sequence their cross-point
     * decisions deterministically (see TieredBackend).
     */
    virtual void evaluateBatch(std::span<const DesignPoint> points,
                               util::ThreadPool *pool,
                               const CommitFn &commit);

    /**
     * Rebuild internal state from a replayed evaluation journal before
     * a resumed run re-enters the optimizer loop. @p replayed holds
     * every journaled evaluation in original request order - a strict
     * prefix of the interrupted run, because the journal commits whole
     * batches in request order. No-op for stateless backends; the
     * tiered backend re-screens the prefix to restore its analytical
     * front, counters and adaptive error statistics to byte-identical
     * values, so a resumed run promotes exactly as the uninterrupted
     * one would.
     */
    virtual void warmStart(std::span<const Evaluation> replayed);
};

/**
 * String-keyed backend factory registry.
 *
 * The six in-tree backend names are pre-registered; anything else (a
 * remote simulator shim, a new memory model) plugs in through
 * registerFactory() and becomes reachable from TaskSpec::backend
 * without touching the evaluator.
 */
class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<EvalBackend>(
        const BackendContext &)>;

    /** The process-wide registry (built-ins already registered). */
    static BackendRegistry &instance();

    /** Register (or replace) the factory for @p name. Thread-safe. */
    void registerFactory(const std::string &name, Factory factory);

    /** True when a factory for @p name exists. Thread-safe. */
    bool knows(const std::string &name) const;

    /** Registered names, sorted. Thread-safe. */
    std::vector<std::string> names() const;

    /**
     * Instantiate the backend registered under @p name (fatal on an
     * unknown name, listing the registered ones). Thread-safe.
     */
    std::unique_ptr<EvalBackend> create(const std::string &name,
                                        const BackendContext &context) const;

  private:
    BackendRegistry();

    mutable std::mutex mutex;
    std::map<std::string, Factory> factories;
};

/** Shorthand for BackendRegistry::instance().create(). */
std::unique_ptr<EvalBackend> makeBackend(const std::string &name,
                                         const BackendContext &context);

/**
 * Closed-form engine + power stack (the historical compute() path).
 *
 * evaluate() is the scalar reference implementation (fresh
 * AnalyticalEngine per point, exactly the pre-batch-kernel sequence).
 * evaluateBatch() runs the raw-speed path instead: points are grouped
 * by policy, each group costed against a cached
 * systolic::CompiledModelPlan by the SoA batch kernel with per-worker
 * thread-local util::Arena scratch, then lowered through the batched
 * power entry point - bit-identical to the scalar path by construction
 * and pinned by test_batch_kernel.cc / test_backends.cc.
 *
 * Registered as "analytical" and as "quantized"; the two differ only in
 * the name rows archive.
 */
class AnalyticalBackend : public EvalBackend
{
  public:
    explicit AnalyticalBackend(const BackendContext &context,
                               std::string name = "analytical");
    ~AnalyticalBackend() override;

    std::string name() const override { return label; }
    Fidelity fidelity() const override { return Fidelity::Analytical; }
    Evaluation evaluate(const DesignPoint &point) override;
    void evaluateBatch(std::span<const DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override;

    /**
     * The batch path with screening instrumentation: identical results
     * to evaluateBatch() (fidelity Analytical), but chunk timings go to
     * @p screen_hist and the per-chunk trace spans are named
     * "dse.screen". Used by TieredBackend's screen tier so the tiered
     * pipeline rides the same SoA kernel.
     */
    void screenBatch(std::span<const DesignPoint> points,
                     util::ThreadPool *pool, std::span<Evaluation> out,
                     util::Histogram *screen_hist);

  private:
    struct PlanCache;

    void batchEvaluate(std::span<const DesignPoint> points,
                       util::ThreadPool *pool, const CommitFn &commit,
                       util::Histogram *chunk_hist,
                       const char *span_name);

    BackendContext ctx;
    std::string label;
    /// Compiled plans per policy (<= |PolicySpace| = 27 entries),
    /// built on first use behind a mutex.
    std::unique_ptr<PlanCache> plans;
};

/** How a CycleTimelineBackend models the NPU's DRAM channel. */
enum class MemoryModel
{
    /// The NPU owns the channel: flat bytes-over-bandwidth transfers.
    Ideal,
    /// Transfers derated by the context's ContentionProfile, whose
    /// background bytes/s are also billed to DRAM power.
    Derated,
    /// Transfers simulated on the bank-level channel of the context's
    /// DramSpec, interleaved with its traffic generators; DRAM power is
    /// billed from the simulated command counts instead of the flat
    /// model, so background traffic is never charged twice.
    Bank,
};

/**
 * Cycle-stepped reference timeline (explicit double-buffered prefetch)
 * + the same power stack, over one MemoryModel.
 *
 * The memory model is fixed at construction, from the registry name and
 * never from the context: "cycle" ignores a configured profile or spec.
 * A Derated model with an empty profile, or a Bank model whose spec has
 * no generators, is normalised to Ideal - the bit-identity contract
 * test_backends.cc / test_dram.cc pin. Ideal and Derated rows archive
 * Fidelity::CycleAccurate and the profile's bytes/s; Bank rows archive
 * Fidelity::BankAccurate and the channel tag.
 *
 * Pure per point (the memory model is fixed for the backend's
 * lifetime), so the default batched path applies unchanged and results
 * are byte-identical at any thread count.
 *
 * Telemetry: a Derated backend sets the
 * "dse.backend.contention.background_bps" gauge. A Bank backend folds
 * each evaluation's command counts into "dse.dram.row_hits" /
 * "dse.dram.row_misses" / "dse.dram.row_conflicts" /
 * "dse.dram.refreshes" and per-generator "dse.dram.gen.<name>.requests"
 * counters, keeps the "dse.dram.hit_rate_ppm" gauge at the running hit
 * rate, and wraps each evaluation in per-generator "dram.gen.<name>"
 * trace spans.
 */
class CycleTimelineBackend : public EvalBackend
{
  public:
    /**
     * @param name   Registry name archived on every row.
     * @param memory Requested memory model. A Derated model validates
     *               the context's profile and a Bank model its spec
     *               (fatal with the diagnosis on degenerate values)
     *               before the empty-to-Ideal normalisation.
     */
    CycleTimelineBackend(const BackendContext &context, std::string name,
                         MemoryModel memory);

    std::string name() const override { return label; }
    Fidelity fidelity() const override
    {
        return memory == MemoryModel::Bank ? Fidelity::BankAccurate
                                           : Fidelity::CycleAccurate;
    }
    Evaluation evaluate(const DesignPoint &point) override;

    /** Bank-model command counters accumulated across every evaluation
     * since construction (monotonic; thread-safe; zero unless Bank). */
    dram::ChannelStats commandTotals() const;
    std::int64_t rowHits() const { return commandTotals().rowHits; }
    std::int64_t rowMisses() const { return commandTotals().rowMisses; }
    std::int64_t rowConflicts() const
    {
        return commandTotals().rowConflicts;
    }
    std::int64_t refreshes() const { return commandTotals().refreshes; }
    std::int64_t activates() const { return commandTotals().activates; }
    std::int64_t channelBytes() const
    {
        return commandTotals().totalBytes();
    }

  private:
    /// Fold one evaluation's command counts into the totals and the
    /// dse.dram.* telemetry.
    void foldCommands(const dram::ChannelStats &stats);

    /// Holds only the memory model's own parameters: the profile when
    /// Derated, the spec when Bank, neither when Ideal.
    BackendContext ctx;
    std::string label;
    MemoryModel memory;
    /// Stable per-generator trace-span names ("dram.gen.<name>");
    /// TraceSpan keeps the char pointer, so the strings must outlive
    /// every span.
    std::vector<std::string> genSpanNames;
    mutable std::mutex commandsMutex;
    dram::ChannelStats commands; ///< Guarded by commandsMutex.
};

/*
 * The historical backend types. Each is exactly one registry name over
 * one of the implementations above; they stay as named types because
 * callers (tests, benches, perfbench) construct backends by type.
 */

/** "quantized": AnalyticalBackend under its own archived name. */
class QuantizedBackend : public AnalyticalBackend
{
  public:
    explicit QuantizedBackend(const BackendContext &context)
        : AnalyticalBackend(context, "quantized") {}
};

/** "cycle": the cycle timeline, NPU owning the channel. */
class CycleBackend : public CycleTimelineBackend
{
  public:
    explicit CycleBackend(const BackendContext &context)
        : CycleTimelineBackend(context, "cycle", MemoryModel::Ideal) {}
};

/** "contention": the cycle timeline under the context's profile. */
class ContentionBackend : public CycleTimelineBackend
{
  public:
    explicit ContentionBackend(const BackendContext &context)
        : CycleTimelineBackend(context, "contention", MemoryModel::Derated)
    {
    }
};

/** "dram": the cycle timeline over the context's bank-level channel. */
class DramBackend : public CycleTimelineBackend
{
  public:
    explicit DramBackend(const BackendContext &context)
        : CycleTimelineBackend(context, "dram", MemoryModel::Bank) {}
};

/** Tiered-promotion policy knobs. */
struct TieredPolicy
{
    /**
     * Relative hypervolume-contribution band. A screened point is
     * promoted to cycle-accurate re-evaluation when its analytical
     * objectives, improved componentwise by this fraction, still
     * contribute hypervolume against the running analytical front
     * (batch already absorbed) - i.e. the point is on the front or
     * within the band behind it. Must be positive: the relaxation is
     * also what lets a front member pass against its own front entry.
     * Wide enough to cover the analytical engine's timing error so
     * true front members are not screened out; the default tracks the
     * engine-validation p95 error (~1-2 %, see
     * bench_engine_validation) with margin.
     */
    double promotionBand = 0.02;
    /// Reference point for the contribution test ({1 - success, watts,
    /// ms}, minimized). Points entirely outside the box are never
    /// promoted - matching the OptimizerConfig default, which gives
    /// designs hotter than ~12 W or slower than ~120 ms no credit.
    Objectives referencePoint = {1.0, 12.0, 120.0};

    /**
     * Adaptive band: re-tune the promotion band from the analytical
     * engine's *measured* error during the run instead of trusting the
     * static default. Every promotion yields a free error sample (the
     * same point costed by both engines); after each batch the band is
     * set to errorMargin x the mean relative latency error observed so
     * far, clamped to [minBand, maxBand]. An optimistic analytical
     * model widens the band (so true front members near the boundary
     * are not screened out); an accurate one narrows it (fewer wasted
     * cycle-accurate runs). Deterministic: errors fold in request
     * order, so the band trajectory is byte-identical at any thread
     * count and across kill/resume (warmStart() reconstructs it from
     * the journal).
     */
    bool adaptive = false;
    double minBand = 0.005;  ///< Adaptive clamp floor.
    double maxBand = 0.10;   ///< Adaptive clamp ceiling.
    double errorMargin = 2.0; ///< Band = margin x mean observed error.
};

/**
 * Analytical screen + selective cycle-accurate verification.
 *
 * Batch flow: (1) screen every point analytically in parallel (pure);
 * (2) serially, absorb the whole batch into the running analytical
 * Pareto front, then test each screened point against that front and
 * mark the competitive ones for promotion (deciding after absorption
 * keeps an immature early-batch front from over-promoting);
 * (3) re-evaluate the promoted points on the cycle timeline in
 * parallel. Non-promoted points archive their analytical numbers with
 * Fidelity::Analytical; promoted ones archive cycle numbers with
 * Fidelity::CycleAccurate - so downstream consumers always know which
 * cost model produced each row.
 *
 * Step (2) is the only stateful step and is sequenced on the calling
 * thread, so a fixed request sequence yields byte-identical results at
 * any thread count. Concurrent callers are serialized by a mutex but
 * their interleaving is then caller-determined.
 */
class TieredBackend : public EvalBackend
{
  public:
    TieredBackend(const BackendContext &context,
                  const TieredPolicy &policy = {});

    std::string name() const override { return "tiered"; }
    Fidelity fidelity() const override { return Fidelity::Mixed; }
    Evaluation evaluate(const DesignPoint &point) override;
    void evaluateBatch(std::span<const DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override;

    /**
     * Restore the analytical front, screen/promotion counters and
     * adaptive error statistics from a journal prefix by re-screening
     * every replayed point (pure, cheap) in journal order. Rows that
     * were promoted (any non-analytical fidelity) contribute their
     * journaled cycle numbers to the adaptive error fold, so the band
     * trajectory resumes byte-identically without re-running the cycle
     * engine.
     */
    void warmStart(std::span<const Evaluation> replayed) override;

    const TieredPolicy &policy() const { return tierPolicy; }

    /** Points screened / promoted so far (monotonic). Thread-safe. */
    std::size_t screenedCount() const;
    std::size_t promotedCount() const;

    /** The promotion band currently in force (== policy().promotionBand
     * unless adaptive). Thread-safe. */
    double currentBand() const;

  private:
    /// Fold one screened objective vector into the running analytical
    /// front. Caller holds stateMutex.
    void absorb(const Objectives &screened);

    /// Band-relaxed hypervolume-contribution test against the running
    /// front. Caller holds stateMutex.
    bool shouldPromote(const Objectives &screened) const;

    /// Fold one promoted point's analytical-vs-cycle relative latency
    /// error and re-derive the adaptive band. Caller holds stateMutex.
    void foldError(double analyticalLatencyMs, double cycleLatencyMs);

    AnalyticalBackend screen;
    /// The verify tier: the Bank memory model when the context's
    /// DramSpec is enabled (only knee-adjacent promoted designs pay
    /// bank-level simulation), else the Derated model under the
    /// context's contention profile - which with the default empty
    /// profile is the Ideal model. Promoted rows archive the verify
    /// tier's fidelity (BankAccurate or CycleAccurate).
    CycleTimelineBackend verify;
    TieredPolicy tierPolicy;

    mutable std::mutex stateMutex;
    /// Non-dominated analytical objectives seen so far.
    std::vector<Objectives> analyticalFront;
    std::size_t screened_ = 0;
    std::size_t promoted_ = 0;
    /// Band in force; tracks the adaptive fold, else the static policy.
    double band_;
    double errorSum_ = 0.0;      ///< Sum of relative latency errors.
    std::size_t errorCount_ = 0; ///< Promotions folded so far.
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_EVAL_BACKEND_H
