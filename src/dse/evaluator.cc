#include "dse/evaluator.h"

#include <map>

#include "dse/eval_backend.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::dse
{

DseEvaluator::DseEvaluator(const airlearning::PolicyDatabase &database,
                           airlearning::ObstacleDensity density,
                           const std::string &backend,
                           const systolic::ContentionProfile &contention,
                           const dram::DramSpec &dram,
                           const std::vector<int> &precisions)
    : DseEvaluator(database, density,
                   makeBackend(backend, BackendContext{&database,
                                                       density,
                                                       contention,
                                                       dram}),
                   precisions)
{
}

DseEvaluator::DseEvaluator(const airlearning::PolicyDatabase &database,
                           airlearning::ObstacleDensity density,
                           std::unique_ptr<EvalBackend> backend,
                           const std::vector<int> &precisions)
    : policyDb(database), scenario(density), designSpace(precisions),
      evalBackend(std::move(backend))
{
    util::fatalIf(evalBackend == nullptr,
                  "DseEvaluator: backend must not be null");
}

DseEvaluator::~DseEvaluator() = default;

std::string
DseEvaluator::backendName() const
{
    return evalBackend->name();
}

const Evaluation &
DseEvaluator::evaluate(const Encoding &encoding)
{
    return *evaluateBatch(std::span<const Encoding>(&encoding, 1))
                .front()
                .evaluation;
}

std::vector<BatchResult>
DseEvaluator::evaluateBatch(std::span<const Encoding> encodings)
{
    // Batch-boundary cancellation: checked before any reservation, so
    // a cancelled batch leaves the cache untouched and the journal
    // (fed whole batches via the sink below) stays a clean prefix.
    cancelToken.check("dse::evaluateBatch");

    util::Telemetry &telemetry = util::Telemetry::instance();
    const bool telemetry_on = telemetry.enabled();
    util::TraceSpan batch_span("dse.evaluateBatch", "dse");

    std::lock_guard<std::mutex> lock(mutex);
    std::vector<BatchResult> results(encodings.size());

    // --- Reservation pass, in request order ---
    // First occurrence of an uncached key appends an entry and claims
    // it for this batch; everything else is a cache hit. Doing this in
    // request order is what makes the evaluation order - and therefore
    // allEvaluations() - deterministic for a fixed request sequence.
    std::vector<Entry *> claimed;    // Ours to simulate, in request order.
    std::vector<Entry *> replayHits; // Replay-fresh marks consumed.
    for (std::size_t i = 0; i < encodings.size(); ++i) {
        auto [it, inserted] = index.try_emplace(encodings[i], nullptr);
        if (inserted) {
            it->second = &entries.emplace_back();
            it->second->evaluation.encoding = encodings[i];
            claimed.push_back(it->second);
            results[i] = {&it->second->evaluation, true};
            continue;
        }
        // A preloaded (journal-replayed) entry is fresh on its first
        // hit: the resumed optimizer must spend budget on it at the
        // same step the uninterrupted run did. Still a cache hit - no
        // simulation happens.
        Entry *entry = it->second;
        results[i] = {&entry->evaluation, entry->replayFresh};
        if (entry->replayFresh) {
            entry->replayFresh = false;
            replayHits.push_back(entry);
        }
    }

    // --- Simulation pass (delegated to the cost-model backend) ---
    // The backend computes each claimed point (fanning out over the
    // pool as it sees fit) and commits each result into its own
    // pre-reserved entry.
    try {
        simulate(claimed, telemetry_on);
    } catch (...) {
        // Roll back: the claimed entries are the newest ones, so
        // dropping them restores the cache exactly as it was.
        for (const Entry *entry : claimed)
            index.erase(entry->evaluation.encoding);
        entries.resize(entries.size() - claimed.size());
        for (Entry *entry : replayHits)
            entry->replayFresh = true;
        throw;
    }

    stats.misses += claimed.size();
    stats.hits += encodings.size() - claimed.size();
    if (telemetry_on && !encodings.empty()) {
        // Route the cache traffic through the registry at the same
        // granularity as cacheStats(), so the exported metrics CSV
        // always agrees with it.
        telemetry.metrics().counter("dse.cache.miss").add(claimed.size());
        telemetry.metrics()
            .counter("dse.cache.hit")
            .add(encodings.size() - claimed.size());
    }

    // --- Journal hook: offer the batch's own simulations, whole and
    // in request order, only after every one has committed ---
    if (journalSink && !claimed.empty()) {
        std::vector<Evaluation> committed;
        committed.reserve(claimed.size());
        for (const Entry *entry : claimed)
            committed.push_back(entry->evaluation);
        journalSink(committed);
    }

    return results;
}

void
DseEvaluator::simulate(const std::vector<Entry *> &claimed, bool telemetry_on)
{
    if (claimed.empty())
        return;
    std::vector<DesignPoint> points;
    points.reserve(claimed.size());
    for (const Entry *entry : claimed)
        points.push_back(designSpace.decode(entry->evaluation.encoding));
    if (telemetry_on && evalBackend->name() == "quantized") {
        // Per-precision spread of the simulated points: how the search
        // splits its budget across the int8/fp16/fp32 axis.
        std::map<int, std::uint64_t> perWidth;
        for (const DesignPoint &point : points)
            ++perWidth[point.accel.bytesPerElement];
        util::MetricsRegistry &metrics =
            util::Telemetry::instance().metrics();
        for (const auto &[width, count] : perWidth) {
            metrics
                .counter("dse.quantized." +
                         systolic::precisionName(width) + ".points")
                .add(count);
        }
    }
    evalBackend->evaluateBatch(
        points, workers,
        [this, &claimed](std::size_t i, Evaluation &&evaluation) {
            Evaluation &slot = claimed[i]->evaluation;
            evaluation.encoding = slot.encoding;
            evaluation.scenario = scenarioTag;
            // Label the operand width only when the axis is searchable:
            // the "-" default selects the legacy archive layout, keeping
            // single-precision runs byte-identical on disk.
            if (designSpace.precisionAxisEnabled()) {
                evaluation.precision = systolic::precisionName(
                    evaluation.point.accel.bytesPerElement);
            }
            slot = std::move(evaluation);
        });
}

void
DseEvaluator::preload(std::span<const Evaluation> evaluations)
{
    std::lock_guard<std::mutex> lock(mutex);
    // The backend restores its cross-point state (the tiered front and
    // counters) from the same prefix the cache is loaded from.
    evalBackend->warmStart(evaluations);
    for (const Evaluation &evaluation : evaluations) {
        // Re-encode through THIS evaluator's space so cache keys are
        // normalized: a journal archives 7 encoding columns plus a
        // precision label, and the label's index depends on the
        // configured precision set. encode() also rejects (fatal, with
        // the dimension named) any replayed point outside the space -
        // the fingerprint gate upstream makes that unreachable in
        // normal operation.
        const Encoding key = designSpace.encode(evaluation.point);
        auto [it, inserted] = index.try_emplace(key, nullptr);
        if (!inserted)
            continue; // First replayed row wins; the rest are hits.
        it->second = &entries.emplace_back(Entry{evaluation, true});
        it->second->evaluation.encoding = key;
    }
}

void
DseEvaluator::setJournalSink(
    std::function<void(std::span<const Evaluation>)> sink)
{
    journalSink = std::move(sink);
}

std::size_t
DseEvaluator::evaluationCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

std::vector<Evaluation>
DseEvaluator::allEvaluations() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<Evaluation> all;
    all.reserve(entries.size());
    for (const Entry &entry : entries)
        all.push_back(entry.evaluation);
    return all;
}

CacheStats
DseEvaluator::cacheStats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return stats;
}

} // namespace autopilot::dse
