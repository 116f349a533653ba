/**
 * @file
 * Tests for the campaign-runner subsystem: retry/deadline primitives,
 * the evaluation journal and policy checkpoint, warm-start resume
 * equivalence (kill after any batch == uninterrupted, per optimizer and
 * thread count), and fault-tolerant multi-task orchestration.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "airlearning/trainer.h"
#include "core/autopilot.h"
#include "dram/config.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "io/journal.h"
#include "io/persistence.h"
#include "runner/campaign.h"
#include "uav/uav_spec.h"
#include "util/retry.h"

#include "shared_fixtures.h"
#include "temp_tree.h"

namespace fs = std::filesystem;
namespace al = autopilot::airlearning;
namespace core = autopilot::core;
namespace dram = autopilot::dram;
namespace dse = autopilot::dse;
namespace io = autopilot::io;
namespace nn = autopilot::nn;
namespace runner = autopilot::runner;
namespace util = autopilot::util;

using autopilot::fixtures::RemoveTreeOnExit;
using autopilot::fixtures::sharedDatabase;

namespace
{

/** Fresh per-test scratch directory under the system temp dir. */
fs::path
testDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("autopilot_runner_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Small, fast task spec shared by the pipeline-level tests. */
core::TaskSpec
smallSpec(const std::string &optimizer = "bo",
          const std::string &backend = "analytical")
{
    core::TaskSpec spec;
    spec.density = al::ObstacleDensity::Dense;
    spec.validationEpisodes = 40;
    spec.dseBudget = 24;
    spec.optimizer = optimizer;
    spec.backend = backend;
    return spec;
}

/** Render an archive as its canonical CSV (byte-comparison helper). */
std::string
archiveCsv(const std::vector<dse::Evaluation> &archive)
{
    std::stringstream buffer;
    io::writeDseArchive(archive, buffer);
    return buffer.str();
}

std::string
fileBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * Keep only the first @p keepRows data rows of a journal - the on-disk
 * state after a kill that landed right after batch boundary keepRows.
 */
void
truncateJournal(const fs::path &path, std::size_t keepRows)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    in.close();
    ASSERT_GE(lines.size(), 2u) << path;
    std::ofstream out(path, std::ios::trunc);
    // Fingerprint + header, then the kept prefix.
    for (std::size_t i = 0; i < lines.size() && i < 2 + keepRows; ++i)
        out << lines[i] << '\n';
}

std::size_t
journalRows(const fs::path &path)
{
    std::ifstream in(path);
    std::size_t count = 0;
    std::string line;
    while (std::getline(in, line))
        ++count;
    return count >= 2 ? count - 2 : 0;
}

/** Two hand-made evaluations for journal round-trip tests. */
std::vector<dse::Evaluation>
madeBatch(int offset)
{
    const dse::DesignSpace space;
    std::vector<dse::Evaluation> batch;
    for (int k = 0; k < 2; ++k) {
        dse::Evaluation eval;
        // The default space pins the precision dim to one choice, so
        // only the seven classic dimensions can take index 1.
        for (std::size_t d = 0; d < dse::precisionDim; ++d)
            eval.encoding[d] = (offset + k) % 2;
        eval.point = space.decode(eval.encoding);
        eval.successRate = 0.25 * (k + 1);
        eval.npuPowerW = 1.5 + offset;
        eval.socPowerW = 3.0 + offset;
        eval.latencyMs = 7.0 + k;
        eval.fps = 30.0 + offset;
        eval.objectives = {1.0 - eval.successRate, eval.socPowerW,
                           eval.latencyMs};
        batch.push_back(eval);
    }
    return batch;
}

// ------------------------------------------------ injected backends ----

/// One-shot failure countdown: evaluate() throws exactly when this
/// counter steps from 1 to 0. Set very negative for "never".
std::atomic<int> flakyCountdown{std::numeric_limits<int>::min() / 2};

/** Analytical delegate that throws once when the countdown fires. */
class FlakyBackend : public dse::EvalBackend
{
  public:
    explicit FlakyBackend(const dse::BackendContext &context)
        : inner(context)
    {
    }

    std::string name() const override { return "flaky"; }
    dse::Fidelity fidelity() const override
    {
        return dse::Fidelity::Analytical;
    }

    dse::Evaluation
    evaluate(const dse::DesignPoint &point) override
    {
        if (flakyCountdown.fetch_sub(1) == 1)
            throw std::runtime_error("injected transient fault");
        dse::Evaluation eval = inner.evaluate(point);
        eval.backend = "flaky";
        return eval;
    }

  private:
    dse::AnalyticalBackend inner;
};

/** Backend whose every evaluation fails (permanent fault). */
class AlwaysFailBackend : public dse::EvalBackend
{
  public:
    explicit AlwaysFailBackend(const dse::BackendContext &) {}

    std::string name() const override { return "alwaysfail"; }
    dse::Fidelity fidelity() const override
    {
        return dse::Fidelity::Analytical;
    }

    dse::Evaluation
    evaluate(const dse::DesignPoint &) override
    {
        throw std::runtime_error("permanent injected fault");
    }
};

/** Each ctest invocation is a fresh process; register lazily. */
void
ensureTestBackends()
{
    static const bool registered = [] {
        dse::BackendRegistry::instance().registerFactory(
            "flaky", [](const dse::BackendContext &context) {
                return std::make_unique<FlakyBackend>(context);
            });
        dse::BackendRegistry::instance().registerFactory(
            "alwaysfail", [](const dse::BackendContext &context) {
                return std::make_unique<AlwaysFailBackend>(context);
            });
        return true;
    }();
    (void)registered;
}

/** Fast retry schedule so failure tests do not sleep for real. */
util::RetryPolicy
fastRetry(int maxAttempts = 3)
{
    util::RetryPolicy policy;
    policy.maxAttempts = maxAttempts;
    policy.initialBackoffSeconds = 1e-4;
    policy.maxBackoffSeconds = 1e-3;
    return policy;
}

std::string
reportString(const runner::CampaignReport &report)
{
    std::ostringstream os;
    runner::printCampaignReport(report, os);
    return os.str();
}

} // namespace

// ------------------------------------------------------ retry/deadline ----

TEST(Retry, BackoffScheduleIsExponentialAndClamped)
{
    util::RetryPolicy policy;
    policy.initialBackoffSeconds = 0.02;
    policy.backoffMultiplier = 2.0;
    policy.maxBackoffSeconds = 0.05;
    EXPECT_DOUBLE_EQ(util::retryBackoffSeconds(policy, 2), 0.02);
    EXPECT_DOUBLE_EQ(util::retryBackoffSeconds(policy, 3), 0.04);
    EXPECT_DOUBLE_EQ(util::retryBackoffSeconds(policy, 4), 0.05);
    EXPECT_DOUBLE_EQ(util::retryBackoffSeconds(policy, 9), 0.05);
}

TEST(Retry, SucceedsAfterTransientFailures)
{
    int calls = 0;
    int retries = 0;
    const int result = util::retryWithBackoff(
        fastRetry(5),
        [&](int attempt) {
            ++calls;
            EXPECT_EQ(attempt, calls);
            if (attempt < 3)
                throw std::runtime_error("transient");
            return 42;
        },
        [&](int, const std::exception &) { ++retries; });
    EXPECT_EQ(result, 42);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(retries, 2);
}

TEST(Retry, ExhaustsBudgetAndRethrowsLastError)
{
    int calls = 0;
    EXPECT_THROW(util::retryWithBackoff(fastRetry(3),
                                        [&](int) -> int {
                                            ++calls;
                                            throw std::runtime_error(
                                                "still broken");
                                        }),
                 std::runtime_error);
    EXPECT_EQ(calls, 3);
}

TEST(Retry, DeadlineExceededIsNeverRetried)
{
    int calls = 0;
    EXPECT_THROW(util::retryWithBackoff(fastRetry(5),
                                        [&](int) -> int {
                                            ++calls;
                                            throw util::DeadlineExceeded(
                                                "too slow");
                                        }),
                 util::DeadlineExceeded);
    EXPECT_EQ(calls, 1);
}

TEST(Retry, CustomPredicateStopsRetries)
{
    util::RetryPolicy policy = fastRetry(5);
    policy.retryable = [](const std::exception &error) {
        return std::string(error.what()) != "fatal-ish";
    };
    int calls = 0;
    EXPECT_THROW(util::retryWithBackoff(policy,
                                        [&](int) -> int {
                                            ++calls;
                                            throw std::runtime_error(
                                                "fatal-ish");
                                        }),
                 std::runtime_error);
    EXPECT_EQ(calls, 1);
}

TEST(Deadline, UnlimitedNeverExpires)
{
    const util::Deadline unlimited;
    EXPECT_TRUE(unlimited.unlimited());
    EXPECT_FALSE(unlimited.expired());
    EXPECT_NO_THROW(unlimited.check("anything"));
    EXPECT_TRUE(util::Deadline::after(0.0).unlimited());
    EXPECT_TRUE(util::Deadline::after(-1.0).unlimited());
}

TEST(Deadline, ExpiresAndThrowsWithContext)
{
    const util::Deadline deadline = util::Deadline::after(1e-9);
    EXPECT_FALSE(deadline.unlimited());
    // 1 ns is in the past by the time we get here.
    EXPECT_TRUE(deadline.expired());
    EXPECT_DOUBLE_EQ(deadline.remainingSeconds(), 0.0);
    try {
        deadline.check("phase2");
        FAIL() << "check() must throw on an expired deadline";
    } catch (const util::DeadlineExceeded &error) {
        EXPECT_NE(std::string(error.what()).find("phase2"),
                  std::string::npos);
    }
}

TEST(Deadline, HugeBudgetSaturatesInsteadOfWrapping)
{
    // Past ~9.2e9 s the expiry no longer fits the clock's int64 ticks;
    // it must saturate, not wrap into the past (or hit UB at 1e300).
    for (const double seconds :
         {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
        const util::Deadline deadline = util::Deadline::after(seconds);
        EXPECT_FALSE(deadline.unlimited()) << seconds;
        EXPECT_FALSE(deadline.expired()) << seconds;
        EXPECT_GT(deadline.remainingSeconds(), 0.0) << seconds;
        EXPECT_NO_THROW(deadline.check("phase1")) << seconds;
    }
    EXPECT_TRUE(
        util::Deadline::after(std::numeric_limits<double>::quiet_NaN())
            .unlimited());
}

// ------------------------------------------------------------- journal ----

TEST(Journal, RoundTripsBatchesWithFingerprint)
{
    const fs::path dir = testDir("journal_roundtrip");
    const fs::path path = dir / "journal.csv";
    const auto batchA = madeBatch(0);
    const auto batchB = madeBatch(1);
    {
        io::EvalJournalWriter writer(path.string(), 0xFEEDFACEu);
        writer.append(batchA);
        writer.append(batchB);
    }
    const io::JournalReplay replay = io::readEvalJournal(path.string());
    EXPECT_TRUE(replay.found);
    EXPECT_FALSE(replay.truncated);
    EXPECT_EQ(replay.fingerprint, 0xFEEDFACEu);
    ASSERT_EQ(replay.entries.size(), 4u);
    EXPECT_EQ(archiveCsv(replay.entries),
              archiveCsv({batchA[0], batchA[1], batchB[0], batchB[1]}));
    fs::remove_all(dir);
}

TEST(Journal, ReplayedRowsCarryOverOnRewrite)
{
    const fs::path dir = testDir("journal_carryover");
    const fs::path path = dir / "journal.csv";
    const auto replayed = madeBatch(0);
    {
        io::EvalJournalWriter writer(path.string(), 7u, replayed);
        writer.append(madeBatch(1));
    }
    const io::JournalReplay replay = io::readEvalJournal(path.string());
    ASSERT_EQ(replay.entries.size(), 4u);
    EXPECT_EQ(replay.entries[0].encoding, replayed[0].encoding);
    fs::remove_all(dir);
}

TEST(Journal, TornTailIsTruncatedOnReplay)
{
    const fs::path dir = testDir("journal_torn");
    const fs::path path = dir / "journal.csv";
    {
        io::EvalJournalWriter writer(path.string(), 3u);
        writer.append(madeBatch(0));
    }
    {
        // A kill mid-append leaves a partial final record.
        std::ofstream out(path, std::ios::app);
        out << "1,0,1,0,1,0,1,0.33,2."; // torn: no newline, too short
    }
    const io::JournalReplay replay = io::readEvalJournal(path.string());
    EXPECT_TRUE(replay.found);
    EXPECT_TRUE(replay.truncated);
    EXPECT_EQ(replay.entries.size(), 2u);
    EXPECT_EQ(replay.badLine, 5u); // fingerprint + header + 2 rows + torn.
    EXPECT_FALSE(replay.reason.empty());
    fs::remove_all(dir);
}

TEST(Journal, FingerprintOnlyFileIsCleanFreshStart)
{
    // A kill between the fingerprint flush and the header flush leaves
    // a fingerprint-only journal: zero batches committed, so replay
    // must report a clean (non-truncated) empty run, not a torn tail.
    const fs::path dir = testDir("journal_fingerprint_only");
    const fs::path path = dir / "journal.csv";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "fingerprint," << io::formatFingerprint(0xC0FFEEu)
            << '\n';
    }
    const io::JournalReplay replay = io::readEvalJournal(path.string());
    EXPECT_TRUE(replay.found);
    EXPECT_FALSE(replay.truncated);
    EXPECT_EQ(replay.fingerprint, 0xC0FFEEu);
    EXPECT_TRUE(replay.entries.empty());
    EXPECT_TRUE(replay.reason.empty());
    fs::remove_all(dir);
}

TEST(Journal, TornHeaderIsCleanFreshStart)
{
    // Killed mid-header-write: the archive header itself is the torn
    // line. No row was committed, so this is equivalent to a fresh run.
    const fs::path dir = testDir("journal_torn_header");
    const fs::path path = dir / "journal.csv";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "fingerprint," << io::formatFingerprint(0xC0FFEEu)
            << '\n';
        out << "layers_idx,filters_idx,pe_r"; // torn: no newline
    }
    const io::JournalReplay replay = io::readEvalJournal(path.string());
    EXPECT_TRUE(replay.found);
    EXPECT_FALSE(replay.truncated);
    EXPECT_TRUE(replay.entries.empty());
    fs::remove_all(dir);
}

TEST(Journal, MissingOrHeaderlessFileIsNotFound)
{
    EXPECT_FALSE(
        io::readEvalJournal("/nonexistent/journal.csv").found);
    std::istringstream noFingerprint("layers_idx,filters_idx\n");
    EXPECT_FALSE(io::readEvalJournal(noFingerprint).found);
    // Killed mid-fingerprint-write: the key itself is torn, so the
    // file reads as not-found and resume falls back to a fresh run.
    std::istringstream tornFingerprint("fingerpr");
    EXPECT_FALSE(io::readEvalJournal(tornFingerprint).found);
    // The writer emits 1-16 lowercase hex digits; any other spelling
    // (sign, overflow, blank, prefix, upper case) is not a fingerprint
    // line, so it can never match a task's fingerprint by accident.
    for (const char *field :
         {"-1", "1ffffffffffffffffff", " 1a", "0x1a", "1A"}) {
        std::istringstream journal(std::string("fingerprint,") + field +
                                   "\n");
        EXPECT_FALSE(io::readEvalJournal(journal).found) << field;
    }
    std::istringstream widest("fingerprint,ffffffffffffffff\n");
    const io::JournalReplay replay = io::readEvalJournal(widest);
    EXPECT_TRUE(replay.found);
    EXPECT_EQ(replay.fingerprint, ~std::uint64_t{0});
}

TEST(Journal, PolicyCheckpointRoundTrips)
{
    const fs::path dir = testDir("policy_checkpoint");
    const fs::path path = dir / "policies.chk";
    const al::PolicyDatabase &db = sharedDatabase();
    io::writePolicyCheckpoint(path.string(), 0xA11CEu, db);
    const io::PolicyCheckpoint checkpoint =
        io::readPolicyCheckpoint(path.string());
    EXPECT_TRUE(checkpoint.found);
    EXPECT_TRUE(checkpoint.ok);
    EXPECT_EQ(checkpoint.fingerprint, 0xA11CEu);
    ASSERT_EQ(checkpoint.db.size(), db.size());
    for (const al::PolicyRecord &record : db.all()) {
        const auto loaded =
            checkpoint.db.find(record.params, record.density);
        ASSERT_TRUE(loaded.has_value());
        EXPECT_DOUBLE_EQ(loaded->successRate, record.successRate);
    }
    EXPECT_FALSE(
        io::readPolicyCheckpoint((dir / "absent.chk").string()).found);
    fs::remove_all(dir);
}

// --------------------------------------------------------- fingerprint ----

TEST(Fingerprint, CoversResultFieldsAndIgnoresThreads)
{
    const core::TaskSpec base = smallSpec();
    core::TaskSpec changed = base;
    changed.seed ^= 1;
    EXPECT_NE(core::taskFingerprint(base),
              core::taskFingerprint(changed));
    changed = base;
    changed.optimizer = "sa";
    EXPECT_NE(core::taskFingerprint(base),
              core::taskFingerprint(changed));
    changed = base;
    changed.backend = "tiered";
    EXPECT_NE(core::taskFingerprint(base),
              core::taskFingerprint(changed));
    changed = base;
    changed.dseBudget += 1;
    EXPECT_NE(core::taskFingerprint(base),
              core::taskFingerprint(changed));
    // Threads/telemetry/checkpointing do not change results, so a
    // journal must resume across them.
    changed = base;
    changed.threads = 4;
    changed.checkpointDir = "/elsewhere";
    changed.resume = true;
    EXPECT_EQ(core::taskFingerprint(base),
              core::taskFingerprint(changed));
}

// ------------------------------------------------- evaluator warm-start ----

TEST(WarmStart, PreloadedPointsAreFreshExactlyOnceAndCountAsHits)
{
    dse::DseEvaluator source(sharedDatabase(),
                             al::ObstacleDensity::Dense);
    const dse::DesignSpace space;
    autopilot::util::Rng rng(0x5EED);
    std::vector<dse::Encoding> encodings;
    for (int i = 0; i < 6; ++i)
        encodings.push_back(space.randomEncoding(rng));
    source.evaluateBatch(encodings);
    const std::vector<dse::Evaluation> journal =
        source.allEvaluations();

    dse::DseEvaluator resumed(sharedDatabase(),
                              al::ObstacleDensity::Dense);
    resumed.preload(journal);
    EXPECT_EQ(resumed.allEvaluations().size(), journal.size());

    const auto first = resumed.evaluateBatch(encodings);
    for (const dse::BatchResult &entry : first)
        EXPECT_TRUE(entry.fresh) << "replay-fresh on first request";
    const auto second = resumed.evaluateBatch(encodings);
    for (const dse::BatchResult &entry : second)
        EXPECT_FALSE(entry.fresh) << "consumed after first request";

    const dse::CacheStats stats = resumed.cacheStats();
    EXPECT_EQ(stats.misses, 0u) << "replayed points never re-simulate";
    EXPECT_EQ(stats.hits, 2 * encodings.size());
}

TEST(WarmStart, TieredAdaptiveStateResumesByteIdentical)
{
    const dse::DesignSpace space;
    autopilot::util::Rng rng(0xBEEF);
    std::vector<dse::Encoding> encodings;
    std::set<dse::Encoding> seen;
    while (encodings.size() < 32) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            encodings.push_back(encoding);
    }

    auto freshEvaluator = [&] {
        auto backend = std::make_unique<dse::TieredBackend>(
            dse::BackendContext{&sharedDatabase(),
                                al::ObstacleDensity::Dense, {}});
        dse::TieredBackend *raw = backend.get();
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            sharedDatabase(), al::ObstacleDensity::Dense,
            std::move(backend));
        return std::pair(std::move(evaluator), raw);
    };

    // Uninterrupted: four batches of eight.
    auto [golden, goldenBackend] = freshEvaluator();
    for (std::size_t b = 0; b < 4; ++b) {
        golden->evaluateBatch(std::span<const dse::Encoding>(
            encodings.data() + 8 * b, 8));
    }
    const auto goldenAll = golden->allEvaluations();
    ASSERT_EQ(goldenAll.size(), 32u);

    // Killed after batch 2: replay the 16-row journal prefix, then run
    // the remaining batches.
    auto [resumed, resumedBackend] = freshEvaluator();
    const std::vector<dse::Evaluation> prefix(goldenAll.begin(),
                                              goldenAll.begin() + 16);
    resumed->preload(prefix);
    EXPECT_EQ(resumedBackend->screenedCount(), 16u);
    for (std::size_t b = 2; b < 4; ++b) {
        resumed->evaluateBatch(std::span<const dse::Encoding>(
            encodings.data() + 8 * b, 8));
    }

    EXPECT_EQ(archiveCsv(resumed->allEvaluations()),
              archiveCsv(goldenAll));
    EXPECT_EQ(resumedBackend->promotedCount(),
              goldenBackend->promotedCount());
}

// ------------------------------------------- pipeline resume equivalence ----

TEST(Resume, KillAfterAnyBatchReplaysByteIdenticalPerOptimizer)
{
    // For each optimizer: run uninterrupted with a journal, then
    // simulate a kill by truncating the journal to a prefix and
    // resuming at several thread counts. Archive AND final journal
    // must be byte-identical to the uninterrupted run.
    for (const std::string &optimizer :
         {std::string("bo"), std::string("nsga2"), std::string("sa"),
          std::string("random")}) {
        const fs::path goldenDir =
            testDir("resume_golden_" + optimizer);
        core::TaskSpec goldenSpec = smallSpec(optimizer);
        goldenSpec.checkpointDir = goldenDir.string();
        core::AutoPilot goldenPilot(goldenSpec);
        const std::string goldenArchive =
            archiveCsv(goldenPilot.phase2().archive);
        const std::string goldenJournal =
            fileBytes(goldenDir / "journal.csv");
        const std::size_t totalRows =
            journalRows(goldenDir / "journal.csv");
        ASSERT_GT(totalRows, 4u) << optimizer;

        for (const int threads : {1, 2, 4}) {
            const fs::path dir = testDir(
                "resume_" + optimizer + "_t" + std::to_string(threads));
            fs::copy(goldenDir, dir,
                     fs::copy_options::overwrite_existing |
                         fs::copy_options::recursive);
            truncateJournal(dir / "journal.csv", totalRows / 2);

            core::TaskSpec spec = goldenSpec;
            spec.checkpointDir = dir.string();
            spec.resume = true;
            spec.threads = threads;
            core::AutoPilot pilot(spec);
            EXPECT_EQ(archiveCsv(pilot.phase2().archive), goldenArchive)
                << optimizer << " @ " << threads << " threads";
            EXPECT_EQ(fileBytes(dir / "journal.csv"), goldenJournal)
                << optimizer << " @ " << threads << " threads";
            fs::remove_all(dir);
        }
        fs::remove_all(goldenDir);
    }
}

TEST(Resume, TieredBackendResumesByteIdentical)
{
    const fs::path goldenDir = testDir("resume_tiered_golden");
    core::TaskSpec goldenSpec = smallSpec("bo", "tiered");
    goldenSpec.checkpointDir = goldenDir.string();
    core::AutoPilot goldenPilot(goldenSpec);
    const std::string goldenArchive =
        archiveCsv(goldenPilot.phase2().archive);
    const std::size_t totalRows =
        journalRows(goldenDir / "journal.csv");
    ASSERT_GT(totalRows, 4u);

    const fs::path dir = testDir("resume_tiered");
    fs::copy(goldenDir, dir,
             fs::copy_options::overwrite_existing |
                 fs::copy_options::recursive);
    truncateJournal(dir / "journal.csv", totalRows / 3);

    core::TaskSpec spec = goldenSpec;
    spec.checkpointDir = dir.string();
    spec.resume = true;
    core::AutoPilot pilot(spec);
    EXPECT_EQ(archiveCsv(pilot.phase2().archive), goldenArchive);
    fs::remove_all(goldenDir);
    fs::remove_all(dir);
}

TEST(Resume, ContentionBackendResumesByteIdentical)
{
    // The contention profile is part of the fingerprint and its
    // aggregate traffic is journaled per row, so a killed contended
    // run must replay byte-identically at any thread count - and the
    // replayed rows must carry the profile back out of the journal.
    const double backgroundBps = 2.0e9;
    const fs::path goldenDir = testDir("resume_contention_golden");
    core::TaskSpec goldenSpec = smallSpec("bo", "contention");
    goldenSpec.contention.cameraBytesPerSec = backgroundBps;
    goldenSpec.checkpointDir = goldenDir.string();
    core::AutoPilot goldenPilot(goldenSpec);
    const std::string goldenArchive =
        archiveCsv(goldenPilot.phase2().archive);
    const std::string goldenJournal =
        fileBytes(goldenDir / "journal.csv");
    const std::size_t totalRows =
        journalRows(goldenDir / "journal.csv");
    ASSERT_GT(totalRows, 4u);
    for (const dse::Evaluation &eval : goldenPilot.phase2().archive)
        EXPECT_EQ(eval.contentionBytesPerSec, backgroundBps);

    for (const int threads : {1, 2, 4}) {
        const fs::path dir =
            testDir("resume_contention_t" + std::to_string(threads));
        fs::copy(goldenDir, dir,
                 fs::copy_options::overwrite_existing |
                     fs::copy_options::recursive);
        truncateJournal(dir / "journal.csv", totalRows / 2);

        // The truncated prefix must round-trip the profile's traffic.
        const io::JournalReplay replay =
            io::readEvalJournal((dir / "journal.csv").string());
        ASSERT_FALSE(replay.entries.empty());
        for (const dse::Evaluation &eval : replay.entries)
            EXPECT_EQ(eval.contentionBytesPerSec, backgroundBps);

        core::TaskSpec spec = goldenSpec;
        spec.checkpointDir = dir.string();
        spec.resume = true;
        spec.threads = threads;
        core::AutoPilot pilot(spec);
        EXPECT_EQ(archiveCsv(pilot.phase2().archive), goldenArchive)
            << threads << " threads";
        EXPECT_EQ(fileBytes(dir / "journal.csv"), goldenJournal)
            << threads << " threads";
        fs::remove_all(dir);
    }
    fs::remove_all(goldenDir);
}

TEST(Resume, DramBackendResumesByteIdentical)
{
    // The bank-level channel is folded into the fingerprint and its
    // tag is journaled per row, so a killed dram-backend run must
    // replay byte-identically at any thread count - and the replayed
    // rows must carry the channel tag back out of the journal.
    core::TaskSpec goldenSpec = smallSpec("bo", "dram");
    goldenSpec.dram =
        dram::uavDramSpec(dram::DramTiming{}, 1.0e9, 0.5e9);
    const std::string channelTag = goldenSpec.dram.tag();
    ASSERT_NE(channelTag, "-");

    const fs::path goldenDir = testDir("resume_dram_golden");
    goldenSpec.checkpointDir = goldenDir.string();
    core::AutoPilot goldenPilot(goldenSpec);
    const std::string goldenArchive =
        archiveCsv(goldenPilot.phase2().archive);
    const std::string goldenJournal =
        fileBytes(goldenDir / "journal.csv");
    const std::size_t totalRows =
        journalRows(goldenDir / "journal.csv");
    ASSERT_GT(totalRows, 4u);
    for (const dse::Evaluation &eval : goldenPilot.phase2().archive) {
        EXPECT_EQ(eval.dramKey, channelTag);
        EXPECT_EQ(eval.fidelity, dse::Fidelity::BankAccurate);
    }

    for (const int threads : {1, 2, 4}) {
        const fs::path dir =
            testDir("resume_dram_t" + std::to_string(threads));
        fs::copy(goldenDir, dir,
                 fs::copy_options::overwrite_existing |
                     fs::copy_options::recursive);
        truncateJournal(dir / "journal.csv", totalRows / 2);

        // The truncated prefix must round-trip the channel tag.
        const io::JournalReplay replay =
            io::readEvalJournal((dir / "journal.csv").string());
        ASSERT_FALSE(replay.entries.empty());
        for (const dse::Evaluation &eval : replay.entries)
            EXPECT_EQ(eval.dramKey, channelTag);

        core::TaskSpec spec = goldenSpec;
        spec.checkpointDir = dir.string();
        spec.resume = true;
        spec.threads = threads;
        core::AutoPilot pilot(spec);
        EXPECT_EQ(archiveCsv(pilot.phase2().archive), goldenArchive)
            << threads << " threads";
        EXPECT_EQ(fileBytes(dir / "journal.csv"), goldenJournal)
            << threads << " threads";
        fs::remove_all(dir);
    }
    fs::remove_all(goldenDir);
}

TEST(Fingerprint, DramChannelFoldsOnlyWhenEnabled)
{
    // A default (disabled) DramSpec must leave the fingerprint exactly
    // where the pre-dram layer put it: old journals resume unchanged.
    const core::TaskSpec base = smallSpec();
    core::TaskSpec with_disabled_dram = base;
    with_disabled_dram.dram.timing.banks = 16; // Timing alone is inert.
    EXPECT_EQ(core::taskFingerprint(base),
              core::taskFingerprint(with_disabled_dram));

    core::TaskSpec with_traffic = base;
    with_traffic.dram =
        dram::uavDramSpec(dram::DramTiming{}, 1.0e9, 0.0);
    EXPECT_NE(core::taskFingerprint(base),
              core::taskFingerprint(with_traffic));

    // Every result-affecting channel field moves the fingerprint.
    core::TaskSpec retimed = with_traffic;
    retimed.dram.timing.tCasCycles += 1;
    EXPECT_NE(core::taskFingerprint(with_traffic),
              core::taskFingerprint(retimed));
    core::TaskSpec repoliced = with_traffic;
    repoliced.dram.timing.rowPolicy = dram::RowPolicy::Closed;
    EXPECT_NE(core::taskFingerprint(with_traffic),
              core::taskFingerprint(repoliced));
}

TEST(Resume, TornHeaderJournalWarmStartsAsFresh)
{
    // End-to-end version of the zero-committed-rows cases: a journal
    // holding only the fingerprint line (or a torn header) must resume
    // into a run byte-identical to an uninterrupted fresh one.
    const fs::path goldenDir = testDir("resume_torn_golden");
    core::TaskSpec goldenSpec = smallSpec();
    goldenSpec.checkpointDir = goldenDir.string();
    core::AutoPilot goldenPilot(goldenSpec);
    const std::string goldenArchive =
        archiveCsv(goldenPilot.phase2().archive);
    const std::string goldenJournal =
        fileBytes(goldenDir / "journal.csv");

    const std::string fingerprintLine =
        "fingerprint," +
        io::formatFingerprint(core::taskFingerprint(goldenSpec)) + "\n";
    const std::vector<std::string> tornContents = {
        fingerprintLine,                       // header never flushed
        fingerprintLine + "layers_idx,filt"};  // torn header
    for (std::size_t i = 0; i < tornContents.size(); ++i) {
        const fs::path dir =
            testDir("resume_torn_" + std::to_string(i));
        {
            std::ofstream out(dir / "journal.csv", std::ios::trunc);
            out << tornContents[i];
        }
        core::TaskSpec spec = goldenSpec;
        spec.checkpointDir = dir.string();
        spec.resume = true;
        core::AutoPilot pilot(spec);
        EXPECT_EQ(archiveCsv(pilot.phase2().archive), goldenArchive)
            << "variant " << i;
        EXPECT_EQ(fileBytes(dir / "journal.csv"), goldenJournal)
            << "variant " << i;
        fs::remove_all(dir);
    }
    fs::remove_all(goldenDir);
}

TEST(Resume, MismatchedFingerprintStartsFresh)
{
    const fs::path dir = testDir("resume_mismatch");
    core::TaskSpec spec = smallSpec();
    spec.checkpointDir = dir.string();
    core::AutoPilot first(spec);
    const std::string firstArchive =
        archiveCsv(first.phase2().archive);

    // Same directory, different seed: the journal must be ignored and
    // rewritten, not replayed into the wrong problem.
    core::TaskSpec other = spec;
    other.seed ^= 0x5A5A;
    other.resume = true;
    core::AutoPilot second(other);
    const std::string secondArchive =
        archiveCsv(second.phase2().archive);
    EXPECT_NE(secondArchive, firstArchive);

    // And the journal now carries the new fingerprint.
    const io::JournalReplay replay =
        io::readEvalJournal((dir / "journal.csv").string());
    EXPECT_TRUE(replay.found);
    EXPECT_EQ(replay.fingerprint, core::taskFingerprint(other));
    fs::remove_all(dir);
}

// ------------------------------------------------------------ campaign ----

TEST(Campaign, RunsTasksAndReportsInOrder)
{
    runner::CampaignConfig config;
    config.concurrency = 2;
    config.retry = fastRetry();
    runner::CampaignRunner campaign(config);

    std::vector<runner::CampaignTask> tasks;
    for (const std::string &name : {"alpha", "beta"}) {
        runner::CampaignTask task;
        task.name = name;
        task.spec = smallSpec();
        task.spec.dseBudget = 12;
        task.uav = autopilot::uav::zhangNano();
        tasks.push_back(task);
    }
    const runner::CampaignReport report = campaign.run(tasks);
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.succeededCount(), 2u);
    EXPECT_EQ(report.outcomes[0].name, "alpha");
    EXPECT_EQ(report.outcomes[1].name, "beta");
    for (const runner::TaskOutcome &outcome : report.outcomes) {
        EXPECT_EQ(outcome.status, runner::TaskStatus::Succeeded);
        EXPECT_EQ(outcome.attempts, 1);
        EXPECT_TRUE(outcome.diagnosis.empty());
        EXPECT_FALSE(outcome.run.candidates.empty());
    }
    // Identical specs, identical results: the campaign layer must not
    // perturb determinism.
    EXPECT_EQ(archiveCsv(report.outcomes[0].run.dseResult.archive),
              archiveCsv(report.outcomes[1].run.dseResult.archive));
}

TEST(Campaign, RetriesTransientFaultAndResumesFromJournal)
{
    ensureTestBackends();
    const fs::path root = testDir("campaign_flaky");

    runner::CampaignConfig config;
    config.rootDir = root.string();
    config.retry = fastRetry();
    runner::CampaignRunner campaign(config);

    runner::CampaignTask task;
    task.name = "flaky-task";
    task.spec = smallSpec("bo", "flaky");
    task.uav = autopilot::uav::zhangNano();

    // Golden: same backend, no injected failure.
    flakyCountdown.store(std::numeric_limits<int>::min() / 2);
    const runner::CampaignReport golden =
        campaign.run(std::vector<runner::CampaignTask>{task});
    ASSERT_EQ(golden.outcomes[0].status,
              runner::TaskStatus::Succeeded);
    const std::string goldenArchive =
        archiveCsv(golden.outcomes[0].run.dseResult.archive);

    // Fault at the 10th simulation: attempt 1 journals the committed
    // batches, fails, and attempt 2 warm-starts from that journal.
    fs::remove_all(root);
    flakyCountdown.store(10);
    const runner::CampaignReport report =
        campaign.run(std::vector<runner::CampaignTask>{task});
    flakyCountdown.store(std::numeric_limits<int>::min() / 2);

    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].status,
              runner::TaskStatus::Succeeded);
    EXPECT_EQ(report.outcomes[0].attempts, 2);
    EXPECT_EQ(archiveCsv(report.outcomes[0].run.dseResult.archive),
              goldenArchive)
        << "retry must resume, not diverge";
    fs::remove_all(root);
}

TEST(Campaign, PermanentFaultDegradesToDiagnosedSkip)
{
    ensureTestBackends();
    runner::CampaignConfig config;
    config.retry = fastRetry(2);
    runner::CampaignRunner campaign(config);

    runner::CampaignTask broken;
    broken.name = "broken";
    broken.spec = smallSpec("bo", "alwaysfail");
    broken.uav = autopilot::uav::zhangNano();
    runner::CampaignTask healthy;
    healthy.name = "healthy";
    healthy.spec = smallSpec();
    healthy.spec.dseBudget = 12;
    healthy.uav = autopilot::uav::zhangNano();

    const runner::CampaignReport report = campaign.run(
        std::vector<runner::CampaignTask>{broken, healthy});
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, runner::TaskStatus::Failed);
    EXPECT_EQ(report.outcomes[0].attempts, 2);
    EXPECT_NE(report.outcomes[0].diagnosis.find("permanent"),
              std::string::npos);
    EXPECT_EQ(report.outcomes[1].status,
              runner::TaskStatus::Succeeded);
    EXPECT_EQ(report.succeededCount(), 1u);
    EXPECT_EQ(report.failedCount(), 1u);
    // The summary renders both rows.
    const std::string rendered = reportString(report);
    EXPECT_NE(rendered.find("failed"), std::string::npos);
    EXPECT_NE(rendered.find("1/2"), std::string::npos);
}

TEST(Campaign, DeadlineExpiryIsTerminal)
{
    runner::CampaignConfig config;
    config.retry = fastRetry(5);
    runner::CampaignRunner campaign(config);

    runner::CampaignTask task;
    task.name = "late";
    task.spec = smallSpec();
    task.spec.dseBudget = 12;
    task.uav = autopilot::uav::zhangNano();
    task.deadlineSeconds = 1e-9; // Expired before Phase 1 finishes.

    const runner::CampaignReport report =
        campaign.run(std::vector<runner::CampaignTask>{task});
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].status,
              runner::TaskStatus::DeadlineExpired);
    EXPECT_EQ(report.outcomes[0].attempts, 1)
        << "deadline expiry must not burn retry budget";
    EXPECT_NE(report.outcomes[0].diagnosis.find("deadline"),
              std::string::npos);
}

TEST(Campaign, ResumedCampaignReproducesUninterruptedReport)
{
    const fs::path root = testDir("campaign_resume");

    auto makeTasks = [] {
        std::vector<runner::CampaignTask> tasks;
        for (const al::ObstacleDensity density :
             {al::ObstacleDensity::Low, al::ObstacleDensity::Dense}) {
            runner::CampaignTask task;
            task.name = al::densityName(density);
            task.spec = smallSpec();
            task.spec.density = density;
            task.uav = autopilot::uav::zhangNano();
            tasks.push_back(task);
        }
        return tasks;
    };

    runner::CampaignConfig config;
    config.rootDir = root.string();
    config.retry = fastRetry();
    const std::string goldenReport = reportString(
        runner::CampaignRunner(config).run(makeTasks()));
    const std::string goldenJournal =
        fileBytes(root / "dense" / "journal.csv");

    // Simulate a campaign killed mid-flight: both journals lose their
    // tails, then the whole campaign re-runs with --resume.
    for (const char *name : {"low", "dense"}) {
        const fs::path journal = root / name / "journal.csv";
        truncateJournal(journal, journalRows(journal) / 2);
    }
    config.resume = true;
    const std::string resumedReport = reportString(
        runner::CampaignRunner(config).run(makeTasks()));

    EXPECT_EQ(resumedReport, goldenReport);
    EXPECT_EQ(fileBytes(root / "dense" / "journal.csv"),
              goldenJournal);
    fs::remove_all(root);
}

TEST(CampaignDeath, RejectsThreadCountsAboveTheMaximum)
{
    // Both are checked before any pool starts.
    runner::CampaignConfig config;
    config.concurrency = runner::maxThreads + 1;
    EXPECT_EXIT(runner::CampaignRunner{config},
                ::testing::ExitedWithCode(1), "concurrency");
    runner::CampaignTask task;
    task.name = "wide";
    task.spec = smallSpec();
    task.spec.threads = runner::maxThreads + 1;
    runner::CampaignRunner campaign;
    EXPECT_EXIT(campaign.run(std::vector<runner::CampaignTask>{task}),
                ::testing::ExitedWithCode(1), "threads on task 'wide'");
}

TEST(CampaignDeath, RejectsNonFiniteDeadline)
{
    runner::CampaignTask task;
    task.name = "nan";
    task.spec = smallSpec();
    task.deadlineSeconds = std::numeric_limits<double>::quiet_NaN();
    runner::CampaignRunner campaign;
    EXPECT_EXIT(campaign.run(std::vector<runner::CampaignTask>{task}),
                ::testing::ExitedWithCode(1), "deadline");
    task.deadlineSeconds = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(campaign.run(std::vector<runner::CampaignTask>{task}),
                ::testing::ExitedWithCode(1), "deadline");
}

TEST(CampaignDeath, RejectsDuplicateOrUnnamedTasks)
{
    runner::CampaignTask a;
    a.name = "same";
    a.spec = smallSpec();
    runner::CampaignTask b = a;
    runner::CampaignRunner campaign;
    EXPECT_EXIT(campaign.run(std::vector<runner::CampaignTask>{a, b}),
                ::testing::ExitedWithCode(1), "duplicate");
    runner::CampaignTask unnamed;
    unnamed.spec = smallSpec();
    EXPECT_EXIT(
        campaign.run(std::vector<runner::CampaignTask>{unnamed}),
        ::testing::ExitedWithCode(1), "name");
}

// --------------------------------------- backoff + cancellation model ----

TEST(Retry, BackoffStaysFiniteAtExtremeAttemptCounts)
{
    // A long-lived daemon reaches attempt counts where the naive
    // pow(multiplier, attempt) product overflows to inf; the schedule
    // must clamp early instead of propagating inf (or, with a zero
    // initial backoff, 0 * inf == NaN) into sleep_for.
    util::RetryPolicy policy;
    policy.maxAttempts = std::numeric_limits<int>::max();
    policy.initialBackoffSeconds = 0.5;
    policy.backoffMultiplier = 10.0;
    policy.maxBackoffSeconds = 30.0;
    const double extreme = util::retryBackoffSeconds(
        policy, std::numeric_limits<int>::max());
    EXPECT_TRUE(std::isfinite(extreme));
    EXPECT_DOUBLE_EQ(extreme, 30.0);

    // Zero initial backoff: the fixed point must short-circuit the
    // loop, and the result must be exactly 0, never NaN.
    policy.initialBackoffSeconds = 0.0;
    policy.backoffMultiplier = 1e308;
    const double zero = util::retryBackoffSeconds(policy, 100000);
    EXPECT_DOUBLE_EQ(zero, 0.0);

    // Multiplier 1 (constant backoff) is legal and must not spin
    // attempt-many iterations to conclude the obvious.
    policy.initialBackoffSeconds = 5.0;
    policy.backoffMultiplier = 1.0;
    policy.maxBackoffSeconds = 60.0;
    EXPECT_DOUBLE_EQ(util::retryBackoffSeconds(
                         policy, std::numeric_limits<int>::max()),
                     5.0);
}

TEST(Retry, BackoffPropertyMonotoneClampedFinite)
{
    // Property sweep: for a grid of schedules, backoff as a function of
    // the attempt number is non-decreasing, clamped to the ceiling and
    // always finite.
    for (const double initial : {0.0, 1e-3, 0.25, 7.0}) {
        for (const double multiplier : {1.0, 1.5, 2.0, 64.0, 1e12}) {
            for (const double ceiling : {1e-3, 1.0, 1e6}) {
                util::RetryPolicy policy;
                policy.initialBackoffSeconds = initial;
                policy.backoffMultiplier = multiplier;
                policy.maxBackoffSeconds = ceiling;
                double previous = 0.0;
                for (int attempt = 2; attempt <= 40; ++attempt) {
                    const double backoff =
                        util::retryBackoffSeconds(policy, attempt);
                    ASSERT_TRUE(std::isfinite(backoff))
                        << initial << "*" << multiplier << "^" << attempt;
                    ASSERT_LE(backoff, ceiling);
                    ASSERT_GE(backoff, 0.0);
                    ASSERT_GE(backoff, previous)
                        << "backoff must be monotone in the attempt";
                    previous = backoff;
                }
            }
        }
    }
}

TEST(RetryDeath, RejectsNonFinitePolicies)
{
    util::RetryPolicy policy;
    policy.initialBackoffSeconds =
        std::numeric_limits<double>::infinity();
    EXPECT_DEATH(util::validateRetryPolicy(policy), "backoff");
    policy = {};
    policy.backoffMultiplier = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(util::validateRetryPolicy(policy), "backoff");
}

TEST(Retry, CancelledErrorIsNeverRetried)
{
    int calls = 0;
    EXPECT_THROW(util::retryWithBackoff(fastRetry(5),
                                        [&](int) -> int {
                                            ++calls;
                                            throw util::CancelledError(
                                                "draining");
                                        }),
                 util::CancelledError);
    EXPECT_EQ(calls, 1) << "a drain must not be fought with retries";
}

TEST(Cancel, DefaultTokenIsInert)
{
    const util::CancelToken token;
    EXPECT_FALSE(token.cancellable());
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.check("inert"));
}

TEST(Cancel, SourceCancelFlipsTokensAndChainsToChildren)
{
    util::CancelSource parent;
    const util::CancelSource child({}, parent.token());
    const util::CancelToken token = child.token();
    EXPECT_TRUE(token.cancellable());
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.check("before"));

    parent.cancel(); // Cancel the PARENT; the child token must see it.
    EXPECT_TRUE(token.cancelled());
    try {
        token.check("campaign 'x'");
        FAIL() << "check() must throw after cancel";
    } catch (const util::CancelledError &error) {
        EXPECT_NE(std::string(error.what()).find("campaign 'x'"),
                  std::string::npos);
    }
}

TEST(Cancel, ExpiredDeadlineThrowsDeadlineExceededNotCancelled)
{
    const util::CancelSource source(util::Deadline::after(1e-9));
    const util::CancelToken token = source.token();
    // DeadlineExceeded is terminal for the task while CancelledError is
    // resumable; conflating them would make a drained campaign look
    // permanently out of time.
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.check("late"), util::DeadlineExceeded);
}

TEST(Cancel, PhaseOneChecksTokenBeforeAnyWork)
{
    core::TaskSpec spec = smallSpec();
    util::CancelSource cancel;
    cancel.cancel();
    spec.cancel = cancel.token();
    core::AutoPilot pilot(spec);
    EXPECT_THROW(pilot.phase1(), util::CancelledError);
}

TEST(Cancel, EvaluatorChecksAtBatchEntry)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    util::CancelSource cancel;
    evaluator.setCancelToken(cancel.token());
    // Before cancel: a batch goes through.
    EXPECT_NO_THROW(
        evaluator.evaluateBatch(std::span<const dse::Encoding>{}));
    cancel.cancel();
    EXPECT_THROW(
        evaluator.evaluateBatch(std::span<const dse::Encoding>{}),
        util::CancelledError);
}

TEST(Campaign, StopTokenCancelsWithoutRetryAndStaysResumable)
{
    const fs::path dir = testDir("campaign_stop");
    const RemoveTreeOnExit removeDir(dir);

    runner::CampaignTask task;
    task.name = "drained";
    task.spec = smallSpec();
    task.uav = autopilot::uav::zhangNano();

    // Drained run: the stop token is already cancelled, so the task
    // must end Cancelled on its first attempt without burning retries.
    {
        util::CancelSource stop;
        stop.cancel();
        runner::CampaignConfig config;
        config.rootDir = dir.string();
        config.retry = fastRetry(5);
        config.stop = stop.token();
        runner::CampaignRunner campaign(config);
        const runner::CampaignReport report =
            campaign.run(std::vector<runner::CampaignTask>{task});
        ASSERT_EQ(report.outcomes.size(), 1u);
        EXPECT_EQ(report.outcomes[0].status,
                  runner::TaskStatus::Cancelled);
        EXPECT_EQ(report.outcomes[0].attempts, 1)
            << "a drain must not be fought with retries";
        EXPECT_EQ(report.cancelledCount(), 1u);
        EXPECT_GT(report.failedCount(), 0u)
            << "cancelled counts as not-succeeded in the report";
    }

    // Restart without the stop token: the same campaign directory
    // resumes and completes; the report must equal a never-cancelled
    // run's byte for byte.
    runner::CampaignConfig config;
    config.rootDir = dir.string();
    config.resume = true;
    config.retry = fastRetry(3);
    runner::CampaignRunner campaign(config);
    const runner::CampaignReport resumed =
        campaign.run(std::vector<runner::CampaignTask>{task});
    ASSERT_EQ(resumed.succeededCount(), 1u);

    const fs::path goldenDir = testDir("campaign_stop_golden");
    const RemoveTreeOnExit removeGolden(goldenDir);
    runner::CampaignConfig goldenConfig;
    goldenConfig.rootDir = goldenDir.string();
    goldenConfig.retry = fastRetry(3);
    runner::CampaignRunner golden(goldenConfig);
    const runner::CampaignReport uninterrupted =
        golden.run(std::vector<runner::CampaignTask>{task});
    EXPECT_EQ(reportString(resumed), reportString(uninterrupted));
}
