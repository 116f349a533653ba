#include "dse/eval_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "airlearning/quantization.h"
#include "dram/engine.h"
#include "dse/hypervolume.h"
#include "nn/e2e_template.h"
#include "power/npu_power.h"
#include "power/soc_power.h"
#include "systolic/compiled_plan.h"
#include "systolic/cycle_engine.h"
#include "systolic/engine.h"
#include "util/arena.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::dse
{

namespace
{

/** The Phase 1 success rate of @p policy (int8-validated). */
double
phase1SuccessRate(const BackendContext &ctx,
                  const nn::PolicyHyperParams &policy)
{
    const auto record = ctx.database->find(policy, ctx.density);
    util::fatalIf(!record.has_value(),
                  "EvalBackend: no Phase 1 record for policy " +
                      nn::policyName(policy) + " - run the trainer first");
    return record->successRate;
}

/**
 * The scalar evaluation path of every backend: look up the Phase 1
 * success rate, run the policy on @p engine, and lower the run through
 * the NPU/SoC power stack with @p backgroundBytesPerSec of flat
 * background DRAM traffic. Exactly the historical
 * DseEvaluator::compute() sequence, so the analytical backend stays
 * bit-identical to the pre-backend evaluator.
 *
 * @p commands, when set, are the bank-level channel counters the run
 * fills in: DRAM power is then billed from the commands actually issued
 * instead of the flat model, so background traffic is charged once.
 */
Evaluation
evaluateWithEngine(const systolic::Engine &engine,
                   const DesignPoint &point, const BackendContext &ctx,
                   double backgroundBytesPerSec,
                   const dram::ChannelStats *commands = nullptr)
{
    Evaluation evaluation;
    evaluation.point = point;
    // The Phase 1 record is int8-validated; deploying at a wider
    // precision recovers part of the quantization penalty (verbatim
    // pass-through at the int8 default).
    evaluation.successRate = airlearning::quantizedSuccessRate(
        phase1SuccessRate(ctx, point.policy), point.policy,
        point.accel.bytesPerElement);

    const nn::Model model = nn::buildE2EModel(point.policy);
    const systolic::RunResult run = engine.run(model);
    const double clock = point.accel.clockGhz;
    const double seconds = run.runtimeSeconds(clock);

    power::NpuPowerBreakdown npu =
        power::NpuPowerModel(point.accel)
            .estimate(run, backgroundBytesPerSec);
    if (commands != nullptr) {
        const power::DramCommandCounts counts{
            commands->activates, commands->precharges,
            commands->refreshes, commands->totalBytes()};
        npu.dramW =
            power::DramModel().commandPowerMw(counts, seconds) * 1e-3;
    }
    evaluation.npuPowerW = npu.totalW();
    evaluation.socPowerW =
        power::socPower(evaluation.npuPowerW).totalW();
    evaluation.latencyMs = seconds * 1e3;
    evaluation.fps = run.framesPerSecond(clock);

    evaluation.objectives = {1.0 - evaluation.successRate,
                             evaluation.socPowerW, evaluation.latencyMs};
    return evaluation;
}

void
checkContext(const BackendContext &context, const char *who)
{
    util::fatalIf(context.database == nullptr,
                  std::string(who) + ": BackendContext has no policy "
                                     "database");
}

/**
 * Batch preamble shared by the backends: bump
 * "dse.backend.<backend>.points" and return the "dse.simulate_s"
 * histogram (null while telemetry is off).
 */
util::Histogram *
countBatch(const std::string &backend, std::size_t points)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    if (!telemetry.enabled())
        return nullptr;
    if (points > 0) {
        telemetry.metrics()
            .counter("dse.backend." + backend + ".points")
            .add(points);
    }
    return &telemetry.metrics().histogram("dse.simulate_s");
}

/**
 * Per-worker scratch for the SoA batch kernel. One arena per thread
 * keeps the bump path lock-free; after the first few chunks each
 * worker's arena is warm and batch evaluation stops touching the heap.
 */
util::Arena &
scratchArena()
{
    static thread_local util::Arena arena(256 * 1024);
    return arena;
}

/**
 * Chunk size of the batched analytical path: large enough to amortize
 * the per-chunk arena reset and SoA setup, small enough that a
 * DSE-sized batch still spreads across pool workers.
 */
constexpr std::size_t kAnalyticalChunk = 32;

} // namespace

// ------------------------------------------------------------ interface ----

void
EvalBackend::warmStart(std::span<const Evaluation> /*replayed*/)
{
    // Stateless backends have nothing to restore.
}

void
EvalBackend::evaluateBatch(std::span<const DesignPoint> points,
                           util::ThreadPool *pool, const CommitFn &commit)
{
    util::Histogram *simulate_hist = countBatch(name(), points.size());
    util::parallel_for(pool, points.size(), [&](std::size_t i) {
        Evaluation evaluation;
        {
            util::TraceSpan span("dse.simulate", "dse");
            util::ScopedTimer timer(simulate_hist);
            evaluation = evaluate(points[i]);
        }
        commit(i, std::move(evaluation));
    });
}

// ------------------------------------------------------------- registry ----

namespace
{

template <typename Backend>
BackendRegistry::Factory
factoryOf()
{
    return [](const BackendContext &context) {
        return std::make_unique<Backend>(context);
    };
}

} // namespace

BackendRegistry::BackendRegistry()
    : factories{{"analytical", factoryOf<AnalyticalBackend>()},
                {"quantized", factoryOf<QuantizedBackend>()},
                {"cycle", factoryOf<CycleBackend>()},
                {"tiered", factoryOf<TieredBackend>()},
                {"contention", factoryOf<ContentionBackend>()},
                {"dram", factoryOf<DramBackend>()}}
{
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::registerFactory(const std::string &name, Factory factory)
{
    std::lock_guard<std::mutex> lock(mutex);
    factories[name] = std::move(factory);
}

bool
BackendRegistry::knows(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    return factories.count(name) != 0;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::string> out;
    out.reserve(factories.size());
    for (const auto &[name, factory] : factories)
        out.push_back(name);
    return out;
}

std::unique_ptr<EvalBackend>
BackendRegistry::create(const std::string &name,
                        const BackendContext &context) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = factories.find(name);
        if (it != factories.end())
            factory = it->second;
    }
    if (!factory) {
        std::string known;
        for (const std::string &candidate : names())
            known += (known.empty() ? "" : ", ") + candidate;
        util::fatal("BackendRegistry: unknown backend '" + name +
                    "' (registered: " + known + ")");
    }
    return factory(context);
}

std::unique_ptr<EvalBackend>
makeBackend(const std::string &name, const BackendContext &context)
{
    return BackendRegistry::instance().create(name, context);
}

// ----------------------------------------------------- concrete backends ----

/// Compiled plans keyed by (numConvLayers, numFilters). The policy
/// space is tiny (27 combinations), so the cache never evicts; plans
/// are built on first use behind the mutex and read lock-free via
/// stable pointers afterwards.
struct AnalyticalBackend::PlanCache
{
    std::mutex mutex;
    std::map<std::pair<int, int>,
             std::unique_ptr<systolic::CompiledModelPlan>>
        byPolicy;
};

AnalyticalBackend::AnalyticalBackend(const BackendContext &context,
                                     std::string name)
    : ctx(context), label(std::move(name)),
      plans(std::make_unique<PlanCache>())
{
    checkContext(ctx, "AnalyticalBackend");
}

AnalyticalBackend::~AnalyticalBackend() = default;

Evaluation
AnalyticalBackend::evaluate(const DesignPoint &point)
{
    // The scalar reference path: a fresh engine per point, exactly the
    // historical compute() sequence. The batch path below must stay
    // bit-identical to this (test_batch_kernel.cc pins it).
    const systolic::AnalyticalEngine engine(point.accel);
    Evaluation evaluation = evaluateWithEngine(engine, point, ctx, 0.0);
    evaluation.fidelity = Fidelity::Analytical;
    evaluation.backend = label;
    return evaluation;
}

void
AnalyticalBackend::batchEvaluate(std::span<const DesignPoint> points,
                                 util::ThreadPool *pool,
                                 const CommitFn &commit,
                                 util::Histogram *chunk_hist,
                                 const char *span_name)
{
    if (points.empty())
        return;

    // --- Group by policy (first-appearance order; <= 27 groups) ---
    // One database lookup and one compiled plan per distinct policy
    // instead of per point.
    struct Group
    {
        const systolic::CompiledModelPlan *plan = nullptr;
        double successRate = 0.0;
        std::vector<std::uint32_t> indices;
    };
    std::vector<Group> groups;
    std::map<std::pair<int, int>, std::size_t> groupIndex;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const nn::PolicyHyperParams &policy = points[i].policy;
        const std::pair<int, int> key{policy.numConvLayers,
                                      policy.numFilters};
        auto [it, inserted] = groupIndex.try_emplace(key, groups.size());
        if (inserted) {
            Group group;
            group.successRate = phase1SuccessRate(ctx, policy);
            {
                std::lock_guard<std::mutex> lock(plans->mutex);
                auto &slot = plans->byPolicy[key];
                if (!slot) {
                    slot = std::make_unique<systolic::CompiledModelPlan>(
                        systolic::CompiledModelPlan::compile(
                            nn::buildE2EModel(policy)));
                }
                group.plan = slot.get();
            }
            groups.push_back(std::move(group));
        }
        groups[it->second].indices.push_back(
            static_cast<std::uint32_t>(i));
    }

    // --- Chunked fan-out: each chunk runs the SoA kernel over its
    // slice from a thread-local arena ---
    struct Chunk
    {
        std::uint32_t group = 0;
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };
    std::vector<Chunk> chunks;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::size_t n = groups[g].indices.size();
        for (std::size_t b = 0; b < n; b += kAnalyticalChunk) {
            chunks.push_back(
                {static_cast<std::uint32_t>(g),
                 static_cast<std::uint32_t>(b),
                 static_cast<std::uint32_t>(
                     std::min(n, b + kAnalyticalChunk))});
        }
    }

    util::parallel_for(pool, chunks.size(), [&](std::size_t ci) {
        const Chunk &chunk = chunks[ci];
        const Group &group = groups[chunk.group];
        const std::size_t count = chunk.end - chunk.begin;

        util::TraceSpan span(span_name, "dse");
        util::ScopedTimer timer(chunk_hist);

        util::Arena &arena = scratchArena();
        arena.reset();
        const std::span<systolic::AcceleratorConfig> configs =
            arena.allocate<systolic::AcceleratorConfig>(count);
        for (std::size_t j = 0; j < count; ++j)
            configs[j] = points[group.indices[chunk.begin + j]].accel;

        const systolic::BatchRunView run =
            systolic::evaluatePlanBatch(*group.plan, configs, arena);
        const std::span<double> npu_w = arena.allocate<double>(count);
        const std::span<double> soc_w = arena.allocate<double>(count);
        power::batchNpuSocPowerW(configs, run.totalMacs, run.totalCycles,
                                 run.traffic, npu_w, soc_w);

        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t i = group.indices[chunk.begin + j];
            Evaluation evaluation;
            evaluation.point = points[i];
            // Per point, not per group: the group shares a policy but
            // its points may carry different precisions. Verbatim at
            // int8, so the batch path stays bit-identical to scalar.
            evaluation.successRate = airlearning::quantizedSuccessRate(
                group.successRate, points[i].policy,
                points[i].accel.bytesPerElement);
            evaluation.npuPowerW = npu_w[j];
            evaluation.socPowerW = soc_w[j];
            // Same expressions as RunResult::runtimeSeconds /
            // framesPerSecond at this clock.
            const double seconds =
                static_cast<double>(run.totalCycles[j]) /
                (points[i].accel.clockGhz * 1e9);
            evaluation.latencyMs = seconds * 1e3;
            evaluation.fps = seconds > 0.0 ? 1.0 / seconds : 0.0;
            evaluation.objectives = {1.0 - evaluation.successRate,
                                     evaluation.socPowerW,
                                     evaluation.latencyMs};
            evaluation.fidelity = Fidelity::Analytical;
            evaluation.backend = label;
            commit(i, std::move(evaluation));
        }
    });
}

void
AnalyticalBackend::evaluateBatch(std::span<const DesignPoint> points,
                                 util::ThreadPool *pool,
                                 const CommitFn &commit)
{
    batchEvaluate(points, pool, commit, countBatch(label, points.size()),
                  "dse.simulate");
}

void
AnalyticalBackend::screenBatch(std::span<const DesignPoint> points,
                               util::ThreadPool *pool,
                               std::span<Evaluation> out,
                               util::Histogram *screen_hist)
{
    util::panicIf(out.size() != points.size(),
                  "AnalyticalBackend::screenBatch: output size mismatch");
    batchEvaluate(
        points, pool,
        [&out](std::size_t i, Evaluation &&evaluation) {
            out[i] = std::move(evaluation);
        },
        screen_hist, "dse.screen");
}

// ------------------------------------------------------- cycle timeline ----

CycleTimelineBackend::CycleTimelineBackend(const BackendContext &context,
                                           std::string name,
                                           MemoryModel requested)
    : ctx{context.database, context.density, {}, {}},
      label(std::move(name)), memory(MemoryModel::Ideal)
{
    checkContext(ctx, "CycleTimelineBackend");
    if (requested == MemoryModel::Derated) {
        context.contention.validate();
        if (context.contention.enabled()) {
            memory = MemoryModel::Derated;
            ctx.contention = context.contention;
        }
    } else if (requested == MemoryModel::Bank) {
        // Fatal with the human-readable infeasibleReason diagnosis on
        // degenerate timing (zero banks, zero tRP/tRCD, refresh interval
        // inside the refresh stall, ...) - never simulated into NaN or
        // infinite latency.
        context.dram.validate();
        if (context.dram.enabled()) {
            memory = MemoryModel::Bank;
            ctx.dram = context.dram;
            for (const dram::TrafficGeneratorSpec &generator :
                 ctx.dram.generators)
                genSpanNames.push_back("dram.gen." + generator.name);
        }
    }
}

Evaluation
CycleTimelineBackend::evaluate(const DesignPoint &point)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    Evaluation evaluation;
    if (memory == MemoryModel::Bank) {
        // Per-generator trace spans around the simulated evaluation,
        // named by stream so a trace shows which background load shaped
        // this run.
        std::vector<std::unique_ptr<util::TraceSpan>> genSpans;
        if (telemetry.enabled()) {
            for (const std::string &spanName : genSpanNames) {
                genSpans.push_back(std::make_unique<util::TraceSpan>(
                    spanName.c_str(), "dram"));
            }
        }
        const dram::DramCycleEngine engine(point.accel, ctx.dram);
        evaluation =
            evaluateWithEngine(engine, point, ctx, 0.0, &engine.runStats());
        evaluation.dramKey = ctx.dram.tag();
        foldCommands(engine.runStats());
    } else {
        // An empty profile (Ideal) keeps CycleEngine's exact integer
        // fold-cycle path and bills no background traffic.
        const double background = ctx.contention.totalBytesPerSec();
        const systolic::CycleEngine engine(point.accel, ctx.contention);
        evaluation = evaluateWithEngine(engine, point, ctx, background);
        evaluation.contentionBytesPerSec = background;
        if (memory == MemoryModel::Derated && telemetry.enabled()) {
            telemetry.metrics()
                .gauge("dse.backend.contention.background_bps")
                .set(static_cast<std::int64_t>(background));
        }
    }
    evaluation.fidelity = fidelity();
    evaluation.backend = label;
    return evaluation;
}

void
CycleTimelineBackend::foldCommands(const dram::ChannelStats &stats)
{
    std::lock_guard<std::mutex> lock(commandsMutex);
    commands.accumulate(stats);
    util::Telemetry &telemetry = util::Telemetry::instance();
    if (!telemetry.enabled())
        return;
    util::MetricsRegistry &metrics = telemetry.metrics();
    metrics.counter("dse.dram.row_hits")
        .add(static_cast<std::uint64_t>(stats.rowHits));
    metrics.counter("dse.dram.row_misses")
        .add(static_cast<std::uint64_t>(stats.rowMisses));
    metrics.counter("dse.dram.row_conflicts")
        .add(static_cast<std::uint64_t>(stats.rowConflicts));
    metrics.counter("dse.dram.refreshes")
        .add(static_cast<std::uint64_t>(stats.refreshes));
    for (const dram::GeneratorStats &slice : stats.generators) {
        metrics.counter("dse.dram.gen." + slice.name + ".requests")
            .add(static_cast<std::uint64_t>(slice.requests));
    }
    // Running aggregate hit rate across every evaluation so far - the
    // row-locality signal of the whole campaign. Set under the lock, so
    // the last value written is the latest total.
    if (commands.accesses() > 0) {
        metrics.gauge("dse.dram.hit_rate_ppm")
            .set(static_cast<std::int64_t>(
                1e6 * static_cast<double>(commands.rowHits) /
                static_cast<double>(commands.accesses())));
    }
}

dram::ChannelStats
CycleTimelineBackend::commandTotals() const
{
    std::lock_guard<std::mutex> lock(commandsMutex);
    return commands;
}

// ---------------------------------------------------------------- tiered ----

TieredBackend::TieredBackend(const BackendContext &context,
                             const TieredPolicy &policy)
    : screen(context),
      // The verify tier is the most accurate model configured: bank-level
      // when the context carries traffic generators, else the derated
      // timeline (the ideal one with an empty profile). Its rows archive
      // as "tiered".
      verify(context, "tiered",
             context.dram.enabled() ? MemoryModel::Bank
                                    : MemoryModel::Derated),
      tierPolicy(policy), band_(policy.promotionBand)
{
    util::fatalIf(tierPolicy.promotionBand <= 0.0 ||
                      tierPolicy.promotionBand >= 1.0,
                  "TieredBackend: promotion band outside (0, 1)");
    util::fatalIf(tierPolicy.referencePoint.size() != 3,
                  "TieredBackend: reference point must have 3 "
                  "objectives");
    if (tierPolicy.adaptive) {
        util::fatalIf(tierPolicy.minBand <= 0.0 ||
                          tierPolicy.maxBand >= 1.0 ||
                          tierPolicy.minBand > tierPolicy.maxBand,
                      "TieredBackend: adaptive band clamp must satisfy "
                      "0 < minBand <= maxBand < 1");
        util::fatalIf(tierPolicy.errorMargin <= 0.0,
                      "TieredBackend: errorMargin must be positive");
    }
}

std::size_t
TieredBackend::screenedCount() const
{
    std::lock_guard<std::mutex> lock(stateMutex);
    return screened_;
}

std::size_t
TieredBackend::promotedCount() const
{
    std::lock_guard<std::mutex> lock(stateMutex);
    return promoted_;
}

double
TieredBackend::currentBand() const
{
    std::lock_guard<std::mutex> lock(stateMutex);
    return band_;
}

void
TieredBackend::absorb(const Objectives &screenedObjectives)
{
    for (const Objectives &member : analyticalFront) {
        if (dominates(member, screenedObjectives))
            return;
    }
    std::erase_if(analyticalFront, [&](const Objectives &member) {
        return dominates(screenedObjectives, member);
    });
    analyticalFront.push_back(screenedObjectives);
}

bool
TieredBackend::shouldPromote(const Objectives &screenedObjectives) const
{
    // Band semantics: improve the candidate componentwise by the band
    // fraction; promote when that relaxed point still contributes
    // fresh hypervolume against the analytical front. Front members
    // always pass (their relaxation dominates their own front entry,
    // adding a shell of volume); points within the band behind the
    // front pass because the relaxation lifts them past it; deeply
    // dominated points fail.
    Objectives relaxed = screenedObjectives;
    for (double &component : relaxed)
        component *= 1.0 - band_;
    return hypervolumeContribution(analyticalFront, relaxed,
                                   tierPolicy.referencePoint) > 0.0;
}

void
TieredBackend::foldError(double analyticalLatencyMs,
                         double cycleLatencyMs)
{
    if (!tierPolicy.adaptive || cycleLatencyMs <= 0.0)
        return;
    errorSum_ += std::abs(analyticalLatencyMs - cycleLatencyMs) /
                 cycleLatencyMs;
    ++errorCount_;
    const double tuned =
        tierPolicy.errorMargin * (errorSum_ / errorCount_);
    band_ = std::clamp(tuned, tierPolicy.minBand, tierPolicy.maxBand);
}

void
TieredBackend::evaluateBatch(std::span<const DesignPoint> points,
                             util::ThreadPool *pool,
                             const CommitFn &commit)
{
    if (points.empty())
        return;

    util::Telemetry &telemetry = util::Telemetry::instance();
    const bool telemetry_on = telemetry.enabled();
    util::Histogram *simulate_hist = countBatch(name(), points.size());

    // --- 1. Analytical screen (parallel; pure per point) ---
    // Rides the compiled-plan SoA batch kernel; bit-identical to
    // screening each point with screen.evaluate().
    std::vector<Evaluation> screenedEvals(points.size());
    {
        util::TraceSpan span("dse.tiered.screen", "dse");
        util::Histogram *screen_hist =
            telemetry_on
                ? &telemetry.metrics().histogram("dse.screen_s")
                : nullptr;
        screen.screenBatch(points, pool, screenedEvals, screen_hist);
    }

    // --- 2. Promotion decisions (serial, request order) ---
    // The only stateful step: sequenced on the calling thread so a
    // fixed request sequence promotes the same points at any thread
    // count. Concurrent callers serialize here. The whole batch is
    // absorbed into the running front *before* any decision - every
    // point is judged against the most mature front available, so an
    // early batch position does not inflate the promotion rate.
    std::vector<std::size_t> promotedIndices;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        for (const Evaluation &screenedEval : screenedEvals)
            absorb(screenedEval.objectives);
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (shouldPromote(screenedEvals[i].objectives))
                promotedIndices.push_back(i);
        }
        screened_ += points.size();
        promoted_ += promotedIndices.size();
    }
    if (telemetry_on) {
        telemetry.metrics()
            .counter("dse.tiered.screened")
            .add(points.size());
        telemetry.metrics()
            .counter("dse.tiered.promoted")
            .add(promotedIndices.size());
    }

    // --- 3. Commit: analytical numbers for the screened-out points,
    // cycle-accurate re-evaluations (parallel) for the promoted ones ---
    std::vector<bool> promoted(points.size(), false);
    for (std::size_t index : promotedIndices)
        promoted[index] = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (promoted[i])
            continue;
        Evaluation evaluation = std::move(screenedEvals[i]);
        evaluation.backend = name(); // Fidelity stays Analytical.
        commit(i, std::move(evaluation));
    }

    std::vector<double> cycleLatencyMs(promotedIndices.size(), 0.0);
    util::parallel_for(
        pool, promotedIndices.size(), [&](std::size_t p) {
            const std::size_t i = promotedIndices[p];
            Evaluation evaluation;
            {
                util::TraceSpan span("dse.simulate", "dse");
                util::ScopedTimer timer(simulate_hist);
                evaluation = verify.evaluate(points[i]);
            }
            cycleLatencyMs[p] = evaluation.latencyMs;
            commit(i, std::move(evaluation));
        });

    // --- 4. Adaptive band update (serial, request order) ---
    // Every promotion measured the same point on both engines; fold
    // the observed relative latency errors in promotion order so the
    // band trajectory is deterministic, and let the next batch promote
    // against the re-tuned band.
    if (tierPolicy.adaptive && !promotedIndices.empty()) {
        std::lock_guard<std::mutex> lock(stateMutex);
        for (std::size_t p = 0; p < promotedIndices.size(); ++p) {
            foldError(screenedEvals[promotedIndices[p]].latencyMs,
                      cycleLatencyMs[p]);
        }
        if (telemetry_on) {
            telemetry.metrics()
                .gauge("dse.tiered.band_ppm")
                .set(static_cast<std::int64_t>(band_ * 1e6));
        }
    }
}

void
TieredBackend::warmStart(std::span<const Evaluation> replayed)
{
    if (replayed.empty())
        return;
    // The journal is a whole-batch, request-order prefix of the
    // interrupted run, so re-screening it row by row performs exactly
    // the absorb/fold sequence the original batches performed - the
    // front, the counters and the adaptive error sums land on
    // byte-identical values. The screen is the pure analytical engine;
    // no cycle-accurate work is repeated (promoted rows replay their
    // journaled cycle latency into the error fold).
    std::lock_guard<std::mutex> lock(stateMutex);
    for (const Evaluation &row : replayed) {
        const Evaluation screened = screen.evaluate(row.point);
        absorb(screened.objectives);
        ++screened_;
        if (row.fidelity != Fidelity::Analytical) {
            ++promoted_;
            foldError(screened.latencyMs, row.latencyMs);
        }
    }
}

Evaluation
TieredBackend::evaluate(const DesignPoint &point)
{
    Evaluation out;
    const DesignPoint points[1] = {point};
    evaluateBatch(std::span<const DesignPoint>(points, 1), nullptr,
                  [&out](std::size_t, Evaluation &&evaluation) {
                      out = std::move(evaluation);
                  });
    return out;
}

// ------------------------------------------------------------- fidelity ----

std::string
fidelityName(Fidelity fidelity)
{
    switch (fidelity) {
      case Fidelity::Analytical:    return "analytical";
      case Fidelity::CycleAccurate: return "cycle";
      case Fidelity::BankAccurate:  return "bank";
      case Fidelity::Mixed:         return "mixed";
    }
    return "?";
}

Fidelity
fidelityFromName(const std::string &name)
{
    Fidelity fidelity = Fidelity::Analytical;
    util::fatalIf(!tryFidelityFromName(name, fidelity),
                  "fidelityFromName: unknown fidelity '" + name + "'");
    return fidelity;
}

bool
tryFidelityFromName(const std::string &name, Fidelity &fidelity)
{
    if (name == "analytical")
        fidelity = Fidelity::Analytical;
    else if (name == "cycle")
        fidelity = Fidelity::CycleAccurate;
    else if (name == "bank")
        fidelity = Fidelity::BankAccurate;
    else if (name == "mixed")
        fidelity = Fidelity::Mixed;
    else
        return false;
    return true;
}

} // namespace autopilot::dse
