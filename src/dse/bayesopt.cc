#include "dse/bayesopt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "dse/hypervolume.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace autopilot::dse
{

namespace
{

/// Candidates per screening task. Their GP predictions share one
/// interleaved k* / forward-solve pass (bit-identical per candidate).
constexpr std::size_t screenBlock = 8;

} // namespace

BayesOpt::BayesOpt() : BayesOpt(Settings())
{
}

BayesOpt::BayesOpt(const Settings &settings) : cfg(settings)
{
    util::fatalIf(cfg.initialSamples < 2,
                  "BayesOpt: need at least 2 initial samples");
    util::fatalIf(cfg.candidatePool < 1,
                  "BayesOpt: candidate pool must be positive");
    util::fatalIf(cfg.batchSize < 1,
                  "BayesOpt: batch size must be positive");
}

OptimizerResult
BayesOpt::optimize(DseEvaluator &evaluator, const OptimizerConfig &config)
{
    util::Rng rng(config.seed);
    const DesignSpace &space = evaluator.space();

    OptimizerResult result;
    std::set<Encoding> visited;

    // --- Initial random design (chunked parallel batches) ---
    int evaluated = 0;
    const int initial =
        std::min(cfg.initialSamples, config.evaluationBudget);
    {
        util::TraceSpan init_span("bo.initial_design", "optimizer");
        long attempts = 0;
        while (evaluated < initial && attempts < 100000) {
            const long chunk = std::min<long>(initial - evaluated,
                                              100000 - attempts);
            std::vector<Encoding> proposals;
            proposals.reserve(static_cast<std::size_t>(chunk));
            for (long i = 0; i < chunk; ++i)
                proposals.push_back(space.randomEncoding(rng));
            attempts += chunk;
            evaluated += recordEvaluations(evaluator, proposals, config,
                                           result, initial - evaluated);
            for (const Encoding &proposal : proposals)
                visited.insert(proposal);
        }
    }

    // --- Model-guided iterations ---
    util::Telemetry &telemetry = util::Telemetry::instance();
    while (evaluated < config.evaluationBudget) {
        util::TraceSpan iteration_span("bo.iteration", "optimizer");
        if (telemetry.enabled())
            telemetry.metrics().counter("bo.iterations").add();

        // Fit the per-objective GPs on the full archive: one shared
        // factor, one alpha per objective.
        std::vector<std::vector<double>> inputs;
        inputs.reserve(result.archive.size());
        for (const Evaluation &evaluation : result.archive)
            inputs.push_back(space.features(evaluation.encoding));

        const std::size_t num_objectives =
            result.archive.front().objectives.size();
        GaussianProcess model(cfg.gp);
        {
            util::TraceSpan fit_span("bo.fit_gp", "optimizer");
            util::ScopedTimer fit_timer(
                telemetry.enabled()
                    ? &telemetry.metrics().histogram("bo.fit_gp_s")
                    : nullptr);
            std::vector<std::vector<double>> targets(num_objectives);
            for (std::size_t d = 0; d < num_objectives; ++d) {
                targets[d].reserve(result.archive.size());
                for (const Evaluation &evaluation : result.archive)
                    targets[d].push_back(evaluation.objectives[d]);
            }
            model.fit(inputs, targets);
        }

        // Current front and reference for the S-metric.
        std::vector<Objectives> archive_points;
        archive_points.reserve(result.archive.size());
        for (const Evaluation &evaluation : result.archive)
            archive_points.push_back(evaluation.objectives);
        const std::vector<Objectives> front = paretoFront(archive_points);
        const Objectives reference = config.referencePoint;

        // Candidate pool: random unvisited encodings plus neighbours of
        // the front (local refinement).
        std::vector<Encoding> pool;
        for (int c = 0; c < cfg.candidatePool; ++c) {
            const Encoding candidate = space.randomEncoding(rng);
            if (!visited.count(candidate))
                pool.push_back(candidate);
        }
        for (const Evaluation &evaluation : result.archive) {
            const Encoding candidate =
                space.neighbor(evaluation.encoding, rng);
            if (!visited.count(candidate))
                pool.push_back(candidate);
        }
        if (pool.empty())
            break; // Space exhausted around the archive.

        // Score the pool with the SMS-EGO acquisition, screening the
        // candidates in parallel on the evaluator's pool. The front's
        // sweep is built once; each score is then a pure function of one
        // candidate, so the ranking (and thus the whole search
        // trajectory) is identical across thread counts.
        std::vector<double> scores(pool.size());
        const std::int64_t screen_start =
            telemetry.enabled() ? telemetry.trace().nowUs() : 0;
        util::ScopedTimer screen_timer(
            telemetry.enabled()
                ? &telemetry.metrics().histogram("bo.screen_s")
                : nullptr);
        const HypervolumeContribution gain(front, reference);
        const std::size_t blocks =
            (pool.size() + screenBlock - 1) / screenBlock;
        util::parallel_for(evaluator.threadPool(), blocks, [&](std::size_t b) {
            const std::size_t first = b * screenBlock;
            const std::size_t last =
                std::min(pool.size(), first + screenBlock);
            std::vector<std::vector<double>> features;
            features.reserve(last - first);
            for (std::size_t c = first; c < last; ++c)
                features.push_back(space.features(pool[c]));
            const std::vector<GpPrediction> predictions =
                model.predict(features);
            for (std::size_t c = first; c < last; ++c) {
                const GpPrediction *objective =
                    &predictions[(c - first) * num_objectives];
                Objectives lcb(num_objectives, 0.0);
                for (std::size_t d = 0; d < num_objectives; ++d) {
                    lcb[d] = objective[d].mean -
                             cfg.confidenceGain * objective[d].stddev();
                }

                double score = gain(lcb);
                if (score <= 0.0) {
                    // Epsilon-dominated candidate: penalty grows with
                    // how far inside the dominated region the LCB point
                    // lies.
                    double worst_excess = 0.0;
                    for (const Objectives &member : front) {
                        if (!epsilonDominates(member, lcb, cfg.epsilon))
                            continue;
                        double excess = 0.0;
                        for (std::size_t d = 0; d < num_objectives; ++d)
                            excess += std::max(0.0, lcb[d] - member[d]);
                        worst_excess = std::max(worst_excess, excess);
                    }
                    score = -worst_excess;
                }
                scores[c] = score;
            }
        });
        screen_timer.stop();
        if (telemetry.enabled()) {
            telemetry.trace().record(
                "bo.screen", "optimizer", screen_start,
                telemetry.trace().nowUs() - screen_start);
        }

        // q-batch suggestion: take the top scorers (earliest proposal
        // wins ties) and evaluate them as one parallel batch, committed
        // in score order.
        std::vector<std::size_t> order(pool.size());
        for (std::size_t c = 0; c < order.size(); ++c)
            order[c] = c;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return scores[a] > scores[b];
                         });
        const int remaining = config.evaluationBudget - evaluated;
        const std::size_t batch = std::min<std::size_t>(
            {static_cast<std::size_t>(cfg.batchSize),
             static_cast<std::size_t>(remaining), order.size()});
        std::vector<Encoding> suggestions;
        suggestions.reserve(batch);
        for (std::size_t r = 0; r < batch; ++r)
            suggestions.push_back(pool[order[r]]);

        evaluated += recordEvaluations(evaluator, suggestions, config,
                                       result, remaining);
        for (const Encoding &suggestion : suggestions)
            visited.insert(suggestion);
    }

    return result;
}

} // namespace autopilot::dse
