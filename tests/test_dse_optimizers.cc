/**
 * @file
 * Tests for the Phase 2 evaluator and the four optimizers (BO, NSGA-II,
 * SA, random search) behind the shared Optimizer interface.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>

#include "airlearning/trainer.h"
#include "dse/annealing.h"
#include "dse/bayesopt.h"
#include "dse/evaluator.h"
#include "dse/genetic.h"
#include "dse/optimizer.h"
#include "dse/random_search.h"
#include "util/thread_pool.h"

#include "shared_fixtures.h"

namespace dse = autopilot::dse;
namespace al = autopilot::airlearning;

using autopilot::fixtures::sharedDatabase;

namespace
{

dse::OptimizerConfig
smallBudget(int budget, std::uint64_t seed = 42)
{
    dse::OptimizerConfig config;
    config.evaluationBudget = budget;
    config.seed = seed;
    return config;
}

} // namespace

// ---------------------------------------------------------- evaluator ----

TEST(Evaluator, ProducesConsistentObjectives)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    autopilot::util::Rng rng(1);
    const dse::Encoding encoding =
        evaluator.space().randomEncoding(rng);
    const dse::Evaluation &eval = evaluator.evaluate(encoding);
    ASSERT_EQ(eval.objectives.size(), 3u);
    EXPECT_NEAR(eval.objectives[0], 1.0 - eval.successRate, 1e-12);
    EXPECT_NEAR(eval.objectives[1], eval.socPowerW, 1e-12);
    EXPECT_NEAR(eval.objectives[2], eval.latencyMs, 1e-12);
    EXPECT_GT(eval.fps, 0.0);
    EXPECT_NEAR(eval.fps, 1000.0 / eval.latencyMs, 1e-6);
    EXPECT_GT(eval.socPowerW, eval.npuPowerW);
}

TEST(Evaluator, MemoizesRepeatEvaluations)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    autopilot::util::Rng rng(2);
    const dse::Encoding encoding =
        evaluator.space().randomEncoding(rng);
    evaluator.evaluate(encoding);
    EXPECT_EQ(evaluator.evaluationCount(), 1u);
    evaluator.evaluate(encoding);
    EXPECT_EQ(evaluator.evaluationCount(), 1u);
}

TEST(Evaluator, SuccessRateComesFromDatabase)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    const dse::Encoding encoding = {3, 1, 2, 2, 3, 3, 3}; // l5, f48.
    const dse::Evaluation &eval = evaluator.evaluate(encoding);
    const auto record =
        sharedDatabase().find({5, 48}, al::ObstacleDensity::Dense);
    ASSERT_TRUE(record.has_value());
    EXPECT_DOUBLE_EQ(eval.successRate, record->successRate);
}

// --------------------------------------------------------- optimizers ----

class OptimizerContract : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<dse::Optimizer>
    makeOptimizer() const
    {
        switch (GetParam()) {
          case 0: return std::make_unique<dse::RandomSearch>();
          case 1: return std::make_unique<dse::BayesOpt>();
          case 2: return std::make_unique<dse::GeneticAlgorithm>();
          case 3: return std::make_unique<dse::SimulatedAnnealing>();
        }
        return nullptr;
    }
};

TEST_P(OptimizerContract, RespectsBudgetAndArchivesDistinctPoints)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    auto optimizer = makeOptimizer();
    const auto config = smallBudget(30);
    const dse::OptimizerResult result =
        optimizer->optimize(evaluator, config);

    EXPECT_GT(result.archive.size(), 0u);
    EXPECT_LE(result.archive.size(), 30u);
    std::set<dse::Encoding> seen;
    for (const dse::Evaluation &eval : result.archive)
        seen.insert(eval.encoding);
    EXPECT_EQ(seen.size(), result.archive.size()); // All distinct.
}

TEST_P(OptimizerContract, HypervolumeHistoryNonDecreasing)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    auto optimizer = makeOptimizer();
    const auto config = smallBudget(25, 7);
    const dse::OptimizerResult result =
        optimizer->optimize(evaluator, config);
    ASSERT_EQ(result.hypervolumeHistory.size(), result.archive.size());
    for (std::size_t i = 1; i < result.hypervolumeHistory.size(); ++i) {
        EXPECT_GE(result.hypervolumeHistory[i],
                  result.hypervolumeHistory[i - 1] - 1e-9);
    }
}

TEST_P(OptimizerContract, FrontIsNonDominatedSubset)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    auto optimizer = makeOptimizer();
    const dse::OptimizerResult result =
        optimizer->optimize(evaluator, smallBudget(25, 99));
    const auto front = result.front();
    EXPECT_GT(front.size(), 0u);
    for (const dse::Evaluation &member : front) {
        for (const dse::Evaluation &other : result.archive) {
            EXPECT_FALSE(
                dse::dominates(other.objectives, member.objectives));
        }
    }
}

TEST_P(OptimizerContract, DeterministicForSameSeed)
{
    auto optimizer_a = makeOptimizer();
    auto optimizer_b = makeOptimizer();
    dse::DseEvaluator eval_a(sharedDatabase(),
                             al::ObstacleDensity::Dense);
    dse::DseEvaluator eval_b(sharedDatabase(),
                             al::ObstacleDensity::Dense);
    const auto result_a = optimizer_a->optimize(eval_a, smallBudget(20));
    const auto result_b = optimizer_b->optimize(eval_b, smallBudget(20));
    ASSERT_EQ(result_a.archive.size(), result_b.archive.size());
    for (std::size_t i = 0; i < result_a.archive.size(); ++i)
        EXPECT_EQ(result_a.archive[i].encoding,
                  result_b.archive[i].encoding);
}

namespace
{

std::string
optimizerCaseName(const ::testing::TestParamInfo<int> &info)
{
    static const char *const names[] = {"Random", "BO", "Nsga2", "SA"};
    return names[info.param];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(All, OptimizerContract,
                         ::testing::Values(0, 1, 2, 3),
                         optimizerCaseName);

TEST(BayesOpt, BeatsOrMatchesRandomOnAverage)
{
    // Model-guided search should not lose to uniform random sampling on
    // the same budget (averaged over seeds to absorb noise).
    double bo_sum = 0.0, random_sum = 0.0;
    const dse::Objectives reference = {1.0, 12.0, 120.0};
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        dse::DseEvaluator eval_bo(sharedDatabase(),
                                  al::ObstacleDensity::Dense);
        dse::DseEvaluator eval_rand(sharedDatabase(),
                                    al::ObstacleDensity::Dense);
        dse::BayesOpt bo;
        dse::RandomSearch random;
        bo_sum += bo.optimize(eval_bo, smallBudget(40, seed))
                      .finalHypervolume(reference);
        random_sum += random.optimize(eval_rand, smallBudget(40, seed))
                          .finalHypervolume(reference);
    }
    EXPECT_GE(bo_sum, random_sum * 0.97);
}

TEST(Optimizers, NamesAreStable)
{
    EXPECT_EQ(dse::BayesOpt().name(), "bo");
    EXPECT_EQ(dse::RandomSearch().name(), "random");
    EXPECT_EQ(dse::GeneticAlgorithm().name(), "nsga2");
    EXPECT_EQ(dse::SimulatedAnnealing().name(), "sa");
}

// ------------------------------------------------ BO trajectory pin ----

namespace
{

/** One archive entry of the pinned BO run. */
struct TrajectoryStep
{
    dse::Encoding encoding;
    double hypervolume; ///< hypervolumeHistory after this evaluation.
};

// BayesOpt with candidatePool 64, budget 40, seed 7 on the shared dense
// database; hypervolumes printed with %a. The first 16 rows are the
// random initial design, the rest are SMS-EGO suggestions, so any change
// to the GP or to the hypervolume-gain screen that moves a single bit of
// a score shows up here. Such a change must be justified on its own.
const TrajectoryStep kBoTrajectory[] = {
    {{3, 2, 6, 0, 0, 1, 4, 0}, 0x1.d2f91d2e06ab6p+8},
    {{7, 1, 3, 7, 0, 1, 7, 0}, 0x1.d2f91d2e06ab6p+8},
    {{3, 2, 7, 6, 3, 5, 1, 0}, 0x1.d2f91d2e06ab6p+8},
    {{4, 0, 2, 2, 0, 3, 7, 0}, 0x1.f57a96dd0fa2ep+9},
    {{0, 1, 4, 2, 0, 7, 6, 0}, 0x1.fe18c860bd088p+9},
    {{4, 0, 3, 6, 2, 4, 2, 0}, 0x1.ffdcbace284f2p+9},
    {{2, 2, 3, 3, 2, 5, 5, 0}, 0x1.004d38388a6a3p+10},
    {{3, 2, 2, 1, 6, 3, 1, 0}, 0x1.05d7145522c46p+10},
    {{3, 2, 6, 1, 4, 4, 6, 0}, 0x1.05d7145522c46p+10},
    {{4, 0, 3, 0, 3, 0, 5, 0}, 0x1.0a97c3ed3b3a4p+10},
    {{1, 1, 4, 3, 0, 5, 1, 0}, 0x1.0af83cf8b4e3p+10},
    {{4, 0, 2, 5, 7, 5, 0, 0}, 0x1.1119c5f4bbee7p+10},
    {{5, 2, 5, 4, 0, 1, 1, 0}, 0x1.1119c5f4bbee7p+10},
    {{5, 0, 0, 5, 6, 0, 4, 0}, 0x1.1f05d934d3d36p+10},
    {{2, 2, 5, 0, 2, 0, 2, 0}, 0x1.1f05d934d3d36p+10},
    {{4, 1, 1, 2, 5, 1, 3, 0}, 0x1.1f2eb8a86f3a4p+10},
    {{5, 0, 1, 3, 3, 1, 5, 0}, 0x1.20bfd531c0d0dp+10},
    {{5, 1, 0, 5, 6, 0, 4, 0}, 0x1.20bfd531c0d0dp+10},
    {{3, 0, 1, 6, 7, 2, 4, 0}, 0x1.20deeaeab908ep+10},
    {{7, 0, 0, 3, 4, 1, 4, 0}, 0x1.2144ceb53b7a1p+10},
    {{7, 0, 1, 5, 2, 0, 3, 0}, 0x1.21a301414062ap+10},
    {{4, 0, 2, 7, 5, 0, 3, 0}, 0x1.21a301414062ap+10},
    {{7, 0, 1, 1, 1, 3, 7, 0}, 0x1.21a301414062ap+10},
    {{7, 0, 2, 5, 2, 0, 6, 0}, 0x1.21ac12d4192p+10},
    {{5, 1, 1, 3, 3, 1, 5, 0}, 0x1.21ac12d4192p+10},
    {{4, 0, 3, 4, 6, 1, 5, 0}, 0x1.234b9740964e2p+10},
    {{4, 0, 2, 4, 6, 3, 0, 0}, 0x1.23bc21b42408ep+10},
    {{7, 0, 0, 4, 4, 0, 6, 0}, 0x1.23bc21b42408ep+10},
    {{4, 0, 3, 4, 6, 1, 2, 0}, 0x1.23bef95acae97p+10},
    {{5, 0, 3, 4, 4, 2, 5, 0}, 0x1.248db813e5a34p+10},
    {{6, 0, 4, 2, 4, 2, 1, 0}, 0x1.249fd44235292p+10},
    {{4, 0, 1, 2, 5, 1, 3, 0}, 0x1.24f937f6bc30ap+10},
    {{5, 0, 5, 4, 7, 3, 2, 0}, 0x1.24f937f6bc30ap+10},
    {{7, 0, 2, 3, 2, 2, 1, 0}, 0x1.2558a87b921ccp+10},
    {{8, 0, 3, 3, 4, 3, 0, 0}, 0x1.2562399facd82p+10},
    {{8, 0, 2, 5, 5, 2, 2, 0}, 0x1.25628b31f54d1p+10},
    {{6, 0, 3, 4, 3, 2, 0, 0}, 0x1.2562a65056e43p+10},
    {{5, 0, 1, 4, 6, 4, 2, 0}, 0x1.257fb94ca1665p+10},
    {{6, 0, 3, 6, 6, 1, 6, 0}, 0x1.257fb94ca1665p+10},
    {{6, 0, 2, 0, 3, 4, 4, 0}, 0x1.27487f6a6f64dp+10},
};

constexpr double kBoFinalHypervolume = 0x1.27487f6a6f64dp+10;

} // namespace

TEST(BayesOptTrajectory, PinnedAtOneAndFourThreads)
{
    dse::BayesOpt::Settings settings;
    settings.candidatePool = 64;
    const dse::OptimizerConfig config = smallBudget(40, 7);
    for (std::size_t threads : {1u, 4u}) {
        std::unique_ptr<autopilot::util::ThreadPool> pool;
        dse::DseEvaluator evaluator(sharedDatabase(),
                                    al::ObstacleDensity::Dense);
        if (threads > 1) {
            pool = std::make_unique<autopilot::util::ThreadPool>(threads);
            evaluator.setThreadPool(pool.get());
        }
        const dse::OptimizerResult result =
            dse::BayesOpt(settings).optimize(evaluator, config);

        constexpr std::size_t steps = std::size(kBoTrajectory);
        ASSERT_EQ(result.archive.size(), steps) << threads << " threads";
        ASSERT_EQ(result.hypervolumeHistory.size(), steps);
        for (std::size_t i = 0; i < steps; ++i) {
            EXPECT_EQ(result.archive[i].encoding, kBoTrajectory[i].encoding)
                << threads << " threads, archive position " << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          result.hypervolumeHistory[i]),
                      std::bit_cast<std::uint64_t>(
                          kBoTrajectory[i].hypervolume))
                << threads << " threads, history position " << i;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      result.finalHypervolume(config.referencePoint)),
                  std::bit_cast<std::uint64_t>(kBoFinalHypervolume))
            << threads << " threads";
    }
}
