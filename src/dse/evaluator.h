/**
 * @file
 * The Phase 2 black-box objective function.
 *
 * Given a design point, produce the three objectives the paper optimizes
 * (Section III-B): task success rate (from the Air Learning database),
 * full-SoC power, and inference latency (both from a pluggable cost-model
 * backend - see dse/eval_backend.h). All objectives are returned in
 * minimization form: {1 - success, SoC watts, latency ms}.
 *
 * The evaluator owns exactly one EvalBackend (selected by registry name;
 * "analytical" by default, matching the historical hard-wired path
 * bit for bit) and routes every cache miss through it, so memoization,
 * batching and the determinism contract are shared by all cost models.
 *
 * Evaluations are memoized: architectural simulation is the expensive step
 * the paper's Bayesian optimization is designed to conserve, and the
 * optimizers must never pay twice for the same point. The cache sits
 * behind one mutex held for a whole evaluateBatch() or preload(), so
 * concurrent callers are safe and simply run one batch at a time; the
 * parallelism lives inside the batch, where the backend fans the
 * distinct uncached points out across an attached util::ThreadPool.
 * A batch whose backend throws is rolled back, leaving the cache, its
 * counters and the replay-fresh marks exactly as they were.
 *
 * Telemetry: when the global util::Telemetry is enabled, cache traffic
 * is mirrored into the registry counters "dse.cache.hit" and
 * "dse.cache.miss" (always equal to cacheStats()), per-point simulation
 * time is recorded into the "dse.simulate_s" histogram, each
 * batch/simulation emits a trace span ("dse.evaluateBatch" /
 * "dse.simulate"), and each backend batch bumps
 * "dse.backend.<name>.points".
 */

#ifndef AUTOPILOT_DSE_EVALUATOR_H
#define AUTOPILOT_DSE_EVALUATOR_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "airlearning/database.h"
#include "dram/config.h"
#include "dse/design_space.h"
#include "dse/evaluation.h"
#include "dse/pareto.h"
#include "systolic/contention.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace autopilot::dse
{

class EvalBackend;

/** One entry of an evaluateBatch() result, aligned with the request. */
struct BatchResult
{
    /// Stable pointer into the memo cache; valid for the evaluator's
    /// lifetime.
    const Evaluation *evaluation = nullptr;
    /// True when this request triggered the simulation: the encoding was
    /// not cached before the batch and this is its first occurrence
    /// within the batch. Exactly the points that count against an
    /// optimizer budget.
    bool fresh = false;
};

/** Cache traffic counters (monotonic; hits + misses == requests). */
struct CacheStats
{
    std::uint64_t hits = 0;   ///< Served from the memo cache.
    std::uint64_t misses = 0; ///< Triggered a simulation.

    std::uint64_t requests() const { return hits + misses; }
};

/** Memoizing evaluator bound to one deployment scenario. */
class DseEvaluator
{
  public:
    /**
     * @param database Phase 1 policy database; must contain a record for
     *                 every hyperparameter combination of the space.
     * @param density  Deployment scenario being designed for.
     * @param backend  Registry name of the cost-model backend
     *                 ("analytical", "cycle", "tiered", "contention",
     *                 or anything registered in BackendRegistry; fatal
     *                 on an unknown name). The default is the
     *                 closed-form path, bit-identical to the
     *                 pre-backend evaluator.
     * @param contention Background DRAM traffic for the contention
     *                 backend (and the tiered verify tier); the default
     *                 empty profile leaves every backend's results
     *                 untouched.
     * @param dram     Bank-level DRAM channel description for the dram
     *                 backend (and, when enabled, the tiered verify
     *                 tier); the default spec (no traffic generators)
     *                 leaves every backend's results untouched.
     * @param precisions Searchable operand widths for the precision
     *                 axis (ascending, from {1,2,4}); the default
     *                 int8-only set pins the axis and keeps results
     *                 bit-identical to the legacy 7-dimension space.
     */
    DseEvaluator(const airlearning::PolicyDatabase &database,
                 airlearning::ObstacleDensity density,
                 const std::string &backend = "analytical",
                 const systolic::ContentionProfile &contention = {},
                 const dram::DramSpec &dram = {},
                 const std::vector<int> &precisions = {1});

    /**
     * Construct with an explicit backend instance (for tests that keep
     * a typed handle on it, and for backends built outside the
     * registry). @p backend must not be null.
     */
    DseEvaluator(const airlearning::PolicyDatabase &database,
                 airlearning::ObstacleDensity density,
                 std::unique_ptr<EvalBackend> backend,
                 const std::vector<int> &precisions = {1});

    ~DseEvaluator();

    /**
     * Attach a worker pool (non-owning; may be null for serial
     * operation). evaluateBatch() uses it to simulate the distinct
     * uncached points of a batch in parallel. Results are independent of
     * the pool: evaluations are pure functions of the encoding (for the
     * tiered backend: of the request sequence), and batch results are
     * returned in request order.
     */
    void setThreadPool(util::ThreadPool *pool) { workers = pool; }

    util::ThreadPool *threadPool() const { return workers; }

    /**
     * Install a cooperative-cancellation token checked at the start of
     * every evaluateBatch() call (the batch boundary). When the token
     * reports an expired deadline or an explicit cancel, the batch
     * throws (DeadlineExceeded / CancelledError) before reserving any
     * point, so every journaled batch stays whole and the run resumes
     * byte-identically. The default (inert) token never fires.
     */
    void setCancelToken(util::CancelToken token)
    {
        cancelToken = std::move(token);
    }

    /**
     * Label every newly simulated evaluation with a mission-mix tag
     * (uav::MissionMix::tag(); "-" by default). Purely an archival
     * annotation - it never affects the simulated numbers - so journal
     * rows record which fleet workload drove the campaign.
     */
    void setScenarioTag(const std::string &tag) { scenarioTag = tag; }

    /**
     * Evaluate (or return the memoized result for) an encoding.
     * Thread-safe; equivalent to a one-element evaluateBatch().
     */
    const Evaluation &evaluate(const Encoding &encoding);

    /**
     * Evaluate a batch of encodings, simulating the distinct uncached
     * points in parallel on the attached pool (serially without one).
     *
     * Thread-safe: concurrent batches run one at a time, so each
     * distinct point is simulated exactly once. The returned vector is
     * aligned with @p encodings; `fresh` marks first-time points in
     * request order (duplicates within a batch are fresh only at their
     * first position). If the backend throws, the batch is rolled back
     * - its points uncached, the replay-fresh marks it consumed
     * restored, no hit or miss counted - and the exception propagates,
     * so a retry behaves as if the failed call never happened.
     */
    std::vector<BatchResult> evaluateBatch(std::span<const Encoding> encodings);

    /**
     * Warm-start the memo cache from a replayed evaluation journal.
     *
     * Each entry is inserted in @p evaluations order (defining its
     * place in the evaluation order) and marked *replay-fresh*: the
     * first cache hit on it reports fresh=true and consumes the mark.
     * A resumed optimizer therefore replays the identical trajectory
     * as the uninterrupted run - replayed points cost no simulation
     * yet still count against its budget exactly once, at the same
     * step they originally did. Duplicate encodings keep the first
     * entry. Call before any evaluateBatch(); replayed
     * points count as cache hits in cacheStats(), never misses.
     *
     * Also forwards the prefix to EvalBackend::warmStart() so stateful
     * backends (tiered) restore their cross-point state from the same
     * replay.
     */
    void preload(std::span<const Evaluation> evaluations);

    /**
     * Install a sink invoked at the end of every evaluateBatch() with
     * the batch's newly simulated evaluations, in request order. This
     * is the journal hook: entries reach the sink only after the whole
     * batch has committed, so a journal written from it contains whole
     * batches in a strict request-order prefix of the run. Preloaded
     * (replayed) points are never re-offered. The sink runs under the
     * cache lock and must not call back into the evaluator. Pass an
     * empty function to detach.
     */
    void setJournalSink(
        std::function<void(std::span<const Evaluation>)> sink);

    /** Number of distinct points evaluated so far. Thread-safe. */
    std::size_t evaluationCount() const;

    /**
     * All distinct evaluations so far, in evaluation order: the order
     * in which the points were first requested (for batches, request
     * order within the batch). This order is deterministic for
     * a fixed request sequence, which makes seeded runs reproducible
     * end to end. Thread-safe.
     */
    std::vector<Evaluation> allEvaluations() const;

    /** Cache traffic counters so far. Thread-safe. */
    CacheStats cacheStats() const;

    const DesignSpace &space() const { return designSpace; }
    airlearning::ObstacleDensity density() const { return scenario; }

    /** The cost-model backend this evaluator routes misses through. */
    const EvalBackend &backend() const { return *evalBackend; }

    /** Registry name of the backend ("analytical" by default). */
    std::string backendName() const;

  private:
    /// Memo-cache entry: the payload plus its replay mark.
    struct Entry
    {
        Evaluation evaluation;
        /// Preloaded from a journal and not yet re-requested: the first
        /// hit consumes this and reports fresh=true so a resumed
        /// optimizer's budget accounting replays exactly.
        bool replayFresh = false;
    };

    /// Run the backend over the batch's claimed entries, committing
    /// each result into its entry.
    void simulate(const std::vector<Entry *> &claimed, bool telemetry_on);

    const airlearning::PolicyDatabase &policyDb;
    airlearning::ObstacleDensity scenario;
    DesignSpace designSpace;
    std::unique_ptr<EvalBackend> evalBackend;
    util::ThreadPool *workers = nullptr;
    util::CancelToken cancelToken; ///< Inert unless installed.
    std::string scenarioTag = "-"; ///< Mission-mix archive label.

    /// Guards everything below; held for a whole evaluateBatch() or
    /// preload(). Backend commits from pool workers write into entries
    /// reserved before the backend runs, one index each, so they take
    /// no lock of their own.
    mutable std::mutex mutex;
    /// Entries in evaluation order. A deque never moves its elements
    /// on push_back, so Evaluation pointers handed out stay valid.
    std::deque<Entry> entries;
    std::map<Encoding, Entry *> index;

    /// Per-batch commit hook (journaling); set before the run starts.
    std::function<void(std::span<const Evaluation>)> journalSink;

    CacheStats stats;
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_EVALUATOR_H
