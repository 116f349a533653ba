/**
 * @file
 * Tests for the CSV persistence layer: round-trips of the policy
 * database and the DSE archive, plus strict-parser failure modes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "airlearning/trainer.h"
#include "dse/evaluator.h"
#include "dse/random_search.h"
#include "io/csv.h"
#include "io/journal.h"
#include "io/json.h"
#include "io/persistence.h"

namespace io = autopilot::io;
namespace al = autopilot::airlearning;
namespace dse = autopilot::dse;
namespace nn = autopilot::nn;

namespace
{

/** tryReadDseArchive on input that must parse cleanly. */
std::vector<dse::Evaluation>
readCleanArchive(std::istream &is)
{
    io::ParseDiag diag;
    std::vector<dse::Evaluation> archive = io::tryReadDseArchive(is, diag);
    EXPECT_TRUE(diag.ok) << diag.reason << " at line " << diag.line;
    return archive;
}

/** tryReadPolicyDatabase on input that must parse cleanly. */
al::PolicyDatabase
readCleanDatabase(std::istream &is)
{
    io::ParseDiag diag;
    al::PolicyDatabase db = io::tryReadPolicyDatabase(is, diag);
    EXPECT_TRUE(diag.ok) << diag.reason << " at line " << diag.line;
    return db;
}

/** The policy database header line. */
const char *const databaseHeaderLine =
    "policy_id,layers,filters,density,success_rate,model_params,"
    "model_macs,training_steps,converged\n";

} // namespace

// ---------------------------------------------------------------- csv ----

TEST(Csv, SplitBasics)
{
    EXPECT_EQ(io::splitCsvLine("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(io::splitCsvLine("x"), (std::vector<std::string>{"x"}));
    EXPECT_EQ(io::splitCsvLine("a,,c"),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(io::splitCsvLine("a,"),
              (std::vector<std::string>{"a", ""}));
}

TEST(Csv, ReadWithHeaderValidation)
{
    std::istringstream is(std::string(databaseHeaderLine) +
                          "p1,5,32,low,0.9,100,200,1000,1\n"
                          "p2,5,48,low,0.8,100,200,1000,0\n");
    const al::PolicyDatabase db = readCleanDatabase(is);
    ASSERT_EQ(db.size(), 2u);
    EXPECT_EQ(db.all()[1].policyId, "p2");
    EXPECT_FALSE(db.all()[1].converged);
}

// The *Death suites keep their names from when these inputs aborted;
// each now asserts the reader's named diagnosis.

TEST(CsvDeath, RejectsWrongHeader)
{
    std::istringstream is("a,b\n1,2\n");
    io::ParseDiag diag;
    EXPECT_EQ(io::tryReadPolicyDatabase(is, diag).size(), 0u);
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 1u);
    EXPECT_NE(diag.reason.find("header"), std::string::npos)
        << diag.reason;
}

TEST(CsvDeath, RejectsRaggedRow)
{
    std::istringstream is(std::string(databaseHeaderLine) +
                          "p1,5,32,low,0.9,100,200,1000,1,extra\n");
    io::ParseDiag diag;
    EXPECT_EQ(io::tryReadPolicyDatabase(is, diag).size(), 0u);
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 2u);
    EXPECT_NE(diag.reason.find("ragged"), std::string::npos)
        << diag.reason;
}

TEST(Csv, ParseNumbers)
{
    double number = 0.0;
    int integer = 0;
    long long wide = 0;
    EXPECT_EQ(io::tryParseDouble("2.5e-3", number), "");
    EXPECT_EQ(io::tryParseInt("-42", integer), "");
    EXPECT_EQ(io::tryParseInt64("123456789012", wide), "");
    EXPECT_DOUBLE_EQ(number, 2.5e-3);
    EXPECT_EQ(integer, -42);
    EXPECT_EQ(wide, 123456789012LL);
}

namespace
{

/** Success when @p reason contains @p needle. */
::testing::AssertionResult
mentions(const std::string &reason, const std::string &needle)
{
    if (reason.find(needle) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "'" << reason << "' does not mention '" << needle << "'";
}

/** The reason tryParseDouble gives for @p text ("" when it parses). */
std::string
doubleReason(const std::string &text)
{
    double value = 7.0;
    const std::string reason = io::tryParseDouble(text, value);
    if (!reason.empty()) {
        EXPECT_EQ(value, 7.0) << "failed parse wrote its value";
    }
    return reason;
}

/** The reason tryParseInt gives for @p text ("" when it parses). */
std::string
intReason(const std::string &text)
{
    int value = 7;
    const std::string reason = io::tryParseInt(text, value);
    if (!reason.empty()) {
        EXPECT_EQ(value, 7) << "failed parse wrote its value";
    }
    return reason;
}

/** The reason tryParseInt64 gives for @p text ("" when it parses). */
std::string
int64Reason(const std::string &text)
{
    long long value = 7;
    const std::string reason = io::tryParseInt64(text, value);
    if (!reason.empty()) {
        EXPECT_EQ(value, 7) << "failed parse wrote its value";
    }
    return reason;
}

} // namespace

TEST(CsvDeath, ParseRejectsGarbage)
{
    EXPECT_TRUE(mentions(doubleReason("12x"), "bad number"));
    EXPECT_TRUE(mentions(intReason(""), "bad integer"));
}

TEST(CsvDeath, ParseRejectsWhitespaceAndEmpty)
{
    // strtod/strtol silently skip leading whitespace; the CSV parsers
    // must not, since whitespace in a machine-written numeric field
    // means the file is corrupt.
    EXPECT_TRUE(mentions(doubleReason(" 2.5"), "bad number"));
    EXPECT_TRUE(mentions(doubleReason("2.5 "), "bad number"));
    EXPECT_TRUE(mentions(doubleReason(""), "bad number '' (empty"));
    EXPECT_TRUE(mentions(intReason(" 42"), "bad integer ' 42' (leading"));
    EXPECT_TRUE(mentions(intReason("42\t"), "bad integer"));
    EXPECT_TRUE(mentions(int64Reason(""), "bad integer '' (empty"));
    EXPECT_TRUE(mentions(int64Reason(" 7"), "bad integer"));
}

TEST(Csv, TryParseIntRejectsValuesOutsideTheIntRange)
{
    // strtol reads these as longs; narrowing them to int used to wrap
    // silently ("4294967296" -> 0), turning a corrupt field into a
    // plausible value.
    for (const char *text : {"4294967296", "2147483648", "-2147483649",
                             "99999999999999999999"}) {
        int value = 7;
        const std::string reason = io::tryParseInt(text, value);
        EXPECT_NE(reason.find("outside"), std::string::npos)
            << text << ": " << reason;
        EXPECT_EQ(value, 7) << text;
    }
    int value = 0;
    EXPECT_EQ(io::tryParseInt("2147483647", value), "");
    EXPECT_EQ(value, 2147483647);
    EXPECT_EQ(io::tryParseInt("-2147483648", value), "");
    EXPECT_EQ(value, -2147483647 - 1);
}

TEST(Csv, TryParseInt64RejectsOverflow)
{
    long long value = 7;
    for (const char *text :
         {"99999999999999999999", "-99999999999999999999"}) {
        const std::string reason = io::tryParseInt64(text, value);
        EXPECT_NE(reason.find("outside"), std::string::npos)
            << text << ": " << reason;
        EXPECT_EQ(value, 7) << text;
    }
    EXPECT_EQ(io::tryParseInt64("9223372036854775807", value), "");
    EXPECT_EQ(value, 9223372036854775807LL);
}

TEST(Csv, SplitToleratesTrailingCarriageReturn)
{
    EXPECT_EQ(io::splitCsvLine("a,b,c\r"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(io::splitCsvLine("x\r"), (std::vector<std::string>{"x"}));
    // A lone '\r' field (from "a,\r\n" minus the '\n') is the empty
    // last field of a trailing comma, not data.
    EXPECT_EQ(io::splitCsvLine("a,\r"),
              (std::vector<std::string>{"a", ""}));
}

TEST(Csv, CrlfRoundTripsIdenticallyToLf)
{
    const std::string rows[] = {
        "policy_id,layers,filters,density,success_rate,model_params,"
        "model_macs,training_steps,converged",
        "p1,5,32,low,0.5,100,200,1000,1", "p2,5,48,low,0.25,100,200,1000,0"};
    std::string lf;
    std::string crlf;
    for (const std::string &row : rows) {
        lf += row + "\n";
        crlf += row + "\r\n";
    }
    std::istringstream lf_is(lf);
    std::istringstream crlf_is(crlf);
    std::ostringstream from_lf;
    std::ostringstream from_crlf;
    io::writePolicyDatabase(readCleanDatabase(lf_is), from_lf);
    io::writePolicyDatabase(readCleanDatabase(crlf_is), from_crlf);
    EXPECT_EQ(from_crlf.str(), from_lf.str());
    EXPECT_EQ(from_lf.str(), lf); // Exactly representable rates.
}

TEST(Csv, CrlfPolicyDatabaseLoads)
{
    // A database exported on a CRLF platform must load exactly like the
    // LF original; the '\r' must not leak into the last column.
    al::TrainerConfig config;
    config.validationEpisodes = 30;
    const al::Trainer trainer(config);
    al::PolicyDatabase db;
    trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Low, db);

    std::stringstream buffer;
    io::writePolicyDatabase(db, buffer);
    std::string crlf;
    for (const char c : buffer.str()) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    std::istringstream crlf_is(crlf);
    const al::PolicyDatabase restored = readCleanDatabase(crlf_is);
    ASSERT_EQ(restored.size(), db.size());
    for (const al::PolicyRecord &record : db.all()) {
        const auto loaded = restored.find(record.params, record.density);
        ASSERT_TRUE(loaded.has_value()) << record.policyId;
        EXPECT_EQ(loaded->converged, record.converged);
        EXPECT_EQ(loaded->trainingSteps, record.trainingSteps);
    }
}

// ------------------------------------------------- database round-trip ---

TEST(Persistence, PolicyDatabaseRoundTrip)
{
    al::TrainerConfig config;
    config.validationEpisodes = 30;
    const al::Trainer trainer(config);
    al::PolicyDatabase db;
    trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Medium, db);

    std::stringstream buffer;
    io::writePolicyDatabase(db, buffer);
    const al::PolicyDatabase restored = readCleanDatabase(buffer);

    ASSERT_EQ(restored.size(), db.size());
    for (const al::PolicyRecord &record : db.all()) {
        const auto loaded =
            restored.find(record.params, record.density);
        ASSERT_TRUE(loaded.has_value()) << record.policyId;
        EXPECT_EQ(loaded->policyId, record.policyId);
        EXPECT_DOUBLE_EQ(loaded->successRate, record.successRate);
        EXPECT_EQ(loaded->modelParams, record.modelParams);
        EXPECT_EQ(loaded->modelMacs, record.modelMacs);
        EXPECT_EQ(loaded->trainingSteps, record.trainingSteps);
        EXPECT_EQ(loaded->converged, record.converged);
    }
}

TEST(PersistenceDeath, PolicyDatabaseRejectsBadSuccessRate)
{
    std::istringstream is(std::string(databaseHeaderLine) +
                          "p,5,32,low,1.7,100,100,1000,1\n");
    io::ParseDiag diag;
    EXPECT_EQ(io::tryReadPolicyDatabase(is, diag).size(), 0u);
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 2u);
    EXPECT_NE(diag.reason.find("success rate"), std::string::npos)
        << diag.reason;
}

// -------------------------------------------------- archive round-trip ---

TEST(Persistence, DseArchiveRoundTrip)
{
    al::TrainerConfig trainer_config;
    trainer_config.validationEpisodes = 30;
    const al::Trainer trainer(trainer_config);
    al::PolicyDatabase db;
    trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Dense, db);

    dse::DseEvaluator evaluator(db, al::ObstacleDensity::Dense);
    dse::RandomSearch search;
    dse::OptimizerConfig config;
    config.evaluationBudget = 15;
    const auto result = search.optimize(evaluator, config);

    std::stringstream buffer;
    io::writeDseArchive(result.archive, buffer);
    const auto restored = readCleanArchive(buffer);

    ASSERT_EQ(restored.size(), result.archive.size());
    for (std::size_t i = 0; i < restored.size(); ++i) {
        EXPECT_EQ(restored[i].encoding, result.archive[i].encoding);
        EXPECT_EQ(restored[i].point, result.archive[i].point);
        EXPECT_DOUBLE_EQ(restored[i].successRate,
                         result.archive[i].successRate);
        EXPECT_DOUBLE_EQ(restored[i].latencyMs,
                         result.archive[i].latencyMs);
        EXPECT_EQ(restored[i].objectives, result.archive[i].objectives);
        EXPECT_EQ(restored[i].backend, result.archive[i].backend);
        EXPECT_EQ(restored[i].fidelity, result.archive[i].fidelity);
    }
}

TEST(Persistence, MixedFidelityArchiveRoundTrips)
{
    // A tiered-backend archive carries per-row fidelity tags; both tag
    // values must survive the trip.
    al::TrainerConfig trainer_config;
    trainer_config.validationEpisodes = 30;
    const al::Trainer trainer(trainer_config);
    al::PolicyDatabase db;
    trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Dense, db);

    dse::DseEvaluator evaluator(db, al::ObstacleDensity::Dense,
                                "tiered");
    dse::RandomSearch search;
    dse::OptimizerConfig config;
    config.evaluationBudget = 20;
    const auto result = search.optimize(evaluator, config);

    std::stringstream buffer;
    io::writeDseArchive(result.archive, buffer);
    const auto restored = readCleanArchive(buffer);

    ASSERT_EQ(restored.size(), result.archive.size());
    bool sawAnalytical = false;
    bool sawCycle = false;
    for (std::size_t i = 0; i < restored.size(); ++i) {
        EXPECT_EQ(restored[i].backend, "tiered");
        EXPECT_EQ(restored[i].fidelity, result.archive[i].fidelity);
        sawAnalytical |=
            restored[i].fidelity == dse::Fidelity::Analytical;
        sawCycle |=
            restored[i].fidelity == dse::Fidelity::CycleAccurate;
    }
    EXPECT_TRUE(sawAnalytical);
    EXPECT_TRUE(sawCycle);
}

TEST(Persistence, LegacyArchiveHeaderStillReads)
{
    // Pre-backend-layer archives have no backend/fidelity columns; they
    // must load with the analytical defaults.
    std::istringstream is(
        "layers_idx,filters_idx,pe_rows_idx,pe_cols_idx,ifmap_idx,"
        "filter_idx,ofmap_idx,success_rate,npu_power_w,soc_power_w,"
        "latency_ms,fps\n"
        "0,1,1,1,0,1,0,0.75,1.5,3.25,12.5,80\n");
    const auto restored = readCleanArchive(is);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].backend, "analytical");
    EXPECT_EQ(restored[0].fidelity, dse::Fidelity::Analytical);
    EXPECT_DOUBLE_EQ(restored[0].successRate, 0.75);
    EXPECT_DOUBLE_EQ(restored[0].latencyMs, 12.5);
}

TEST(Persistence, EmptyArchiveRoundTrips)
{
    std::stringstream buffer;
    io::writeDseArchive({}, buffer);
    EXPECT_TRUE(readCleanArchive(buffer).empty());
}

namespace
{

/** Hand-build one archive evaluation with a chosen fidelity tag. */
dse::Evaluation
madeEvaluation(int seedIndex, dse::Fidelity fidelity,
               const std::string &backend)
{
    const dse::DesignSpace space;
    dse::Evaluation eval;
    // Vary only the seven classic dimensions: the precision dim has a
    // single choice in the default space, so any non-zero index there
    // would be out of range.
    for (std::size_t d = 0; d < dse::precisionDim; ++d)
        eval.encoding[d] = seedIndex % 2;
    eval.point = space.decode(eval.encoding);
    eval.successRate = 0.5 + 0.1 * seedIndex;
    eval.npuPowerW = 1.0 + seedIndex;
    eval.socPowerW = 2.0 + seedIndex;
    eval.latencyMs = 10.0 + seedIndex;
    eval.fps = 100.0 - seedIndex;
    eval.objectives = {1.0 - eval.successRate, eval.socPowerW,
                       eval.latencyMs};
    eval.fidelity = fidelity;
    eval.backend = backend;
    return eval;
}

/**
 * Read a one-row archive (operand precision @p precision, "-" for the
 * 17-column layout) followed by @p badRow: the good row must survive
 * and line 3 be diagnosed with a reason mentioning @p needle.
 */
void
expectAppendedRowDiagnosed(const std::string &badRow,
                           const std::string &needle,
                           const std::string &precision = "-")
{
    dse::Evaluation good =
        madeEvaluation(0, dse::Fidelity::Analytical, "analytical");
    good.precision = precision;
    std::stringstream buffer;
    io::writeDseArchive({good}, buffer);
    std::istringstream is(buffer.str() + badRow);
    io::ParseDiag diag;
    EXPECT_EQ(io::tryReadDseArchive(is, diag).size(), 1u);
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 3u);
    EXPECT_TRUE(mentions(diag.reason, needle));
}

/** Re-terminate every line of @p text with CRLF. */
std::string
crlfEncode(const std::string &text)
{
    std::string crlf;
    for (const char c : text) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    return crlf;
}

} // namespace

TEST(Csv, CrlfDseArchiveRoundTripsBackendAndFidelity)
{
    // An archive exported on a CRLF platform must restore the
    // backend/fidelity columns exactly; the '\r' lands on the fidelity
    // field (last column) and must not corrupt the tag.
    const std::vector<dse::Evaluation> archive = {
        madeEvaluation(0, dse::Fidelity::Analytical, "tiered"),
        madeEvaluation(1, dse::Fidelity::CycleAccurate, "tiered"),
    };
    std::stringstream buffer;
    io::writeDseArchive(archive, buffer);
    std::istringstream crlf_is(crlfEncode(buffer.str()));
    const auto restored = readCleanArchive(crlf_is);
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored[0].fidelity, dse::Fidelity::Analytical);
    EXPECT_EQ(restored[1].fidelity, dse::Fidelity::CycleAccurate);
    EXPECT_EQ(restored[0].backend, "tiered");
    EXPECT_EQ(restored[1].backend, "tiered");
    EXPECT_DOUBLE_EQ(restored[1].latencyMs, 11.0);
}

TEST(Csv, CrlfLegacyArchiveStillReads)
{
    std::istringstream is(
        "layers_idx,filters_idx,pe_rows_idx,pe_cols_idx,ifmap_idx,"
        "filter_idx,ofmap_idx,success_rate,npu_power_w,soc_power_w,"
        "latency_ms,fps\r\n"
        "0,1,1,1,0,1,0,0.75,1.5,3.25,12.5,80\r\n");
    const auto restored = readCleanArchive(is);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].backend, "analytical");
    EXPECT_DOUBLE_EQ(restored[0].fps, 80.0);
}

// --------------------------------------------------- tolerant readers ---

TEST(Persistence, TryReadDseArchiveDiagnosesTornTail)
{
    const std::vector<dse::Evaluation> archive = {
        madeEvaluation(0, dse::Fidelity::Analytical, "analytical"),
        madeEvaluation(1, dse::Fidelity::Analytical, "analytical"),
    };
    std::stringstream buffer;
    io::writeDseArchive(archive, buffer);
    // Simulate a kill mid-append: the final record is cut short.
    std::string torn = buffer.str();
    torn += "0,1,0,1,0,1,0,0.6";
    std::istringstream is(torn);
    io::ParseDiag diag;
    const auto restored = io::tryReadDseArchive(is, diag);
    EXPECT_EQ(restored.size(), 2u); // Intact prefix survives.
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 4u); // Header + 2 rows + the torn one.
    EXPECT_NE(diag.reason.find("ragged"), std::string::npos)
        << diag.reason;
}

TEST(Persistence, TryReadDseArchiveDiagnosesBadNumber)
{
    expectAppendedRowDiagnosed(
        "0,1,0,1,0,1,0,NOT_A_NUMBER,1,2,3,4,analytical,cycle,0,-,-\n",
        "bad number");
}

TEST(Persistence, TryReadDseArchiveDiagnosesUnknownFidelity)
{
    expectAppendedRowDiagnosed(
        "0,1,0,1,0,1,0,0.5,1,2,3,4,analytical,quantum,0,-,-\n",
        "unknown fidelity");
}

TEST(Persistence, TryReadPolicyDatabaseDiagnosesBadLine)
{
    std::istringstream is(
        "policy_id,layers,filters,density,success_rate,model_params,"
        "model_macs,training_steps,converged\n"
        "p1,5,32,low,0.9,100,200,1000,1\n"
        "p2,5,48,low,oops,100,200,1000,1\n");
    io::ParseDiag diag;
    const al::PolicyDatabase db = io::tryReadPolicyDatabase(is, diag);
    EXPECT_EQ(db.size(), 1u); // The good row before the bad one.
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 3u);
    EXPECT_NE(diag.reason.find("bad number"), std::string::npos)
        << diag.reason;
}

TEST(Persistence, TryReadPolicyDatabaseRejectsNanSuccessRate)
{
    // NaN compares false against both bounds, so a plain range check
    // let it through as a valid record.
    std::istringstream is(
        "policy_id,layers,filters,density,success_rate,model_params,"
        "model_macs,training_steps,converged\n"
        "p1,5,32,low,0.9,100,200,1000,1\n"
        "p2,5,48,low,nan,100,200,1000,1\n");
    io::ParseDiag diag;
    const al::PolicyDatabase db = io::tryReadPolicyDatabase(is, diag);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_FALSE(diag.ok);
    EXPECT_EQ(diag.line, 3u);
    EXPECT_NE(diag.reason.find("success rate"), std::string::npos)
        << diag.reason;
}

TEST(Persistence, TryReadDseArchiveDiagnosesOutOfRangeIndex)
{
    // A corrupt choice index used to reach DesignSpace::decode and exit
    // the process, losing every row before it.
    const std::vector<dse::Evaluation> archive = {
        madeEvaluation(0, dse::Fidelity::Analytical, "analytical"),
        madeEvaluation(1, dse::Fidelity::Analytical, "analytical"),
    };
    std::stringstream buffer;
    io::writeDseArchive(archive, buffer);
    const std::string good = buffer.str();
    const struct
    {
        const char *row;
        const char *column;
    } cases[] = {
        {"9,1,0,1,0,1,0,0.5,1,2,3,4,analytical,analytical,0,-,-\n",
         "layers_idx"},
        {"0,1,0,-1,0,1,0,0.5,1,2,3,4,analytical,analytical,0,-,-\n",
         "pe_cols_idx"},
        {"0,1,0,1,0,1,4294967296,0.5,1,2,3,4,analytical,analytical,0,-,"
         "-\n",
         "ofmap_idx"},
    };
    for (const auto &bad : cases) {
        std::istringstream is(good + bad.row);
        io::ParseDiag diag;
        const auto restored = io::tryReadDseArchive(is, diag);
        EXPECT_EQ(restored.size(), 2u) << bad.row;
        EXPECT_FALSE(diag.ok);
        EXPECT_EQ(diag.line, 4u);
        EXPECT_NE(diag.reason.find(bad.column), std::string::npos)
            << diag.reason;
    }
}

TEST(Persistence, JournalWithOutOfRangeIndexTruncatesAtTheBadRow)
{
    // The same corruption inside an evaluation journal: replay keeps
    // the committed rows and reports the bad line instead of exiting.
    std::stringstream buffer;
    buffer << "fingerprint,abc123\n";
    io::writeDseArchive(
        {madeEvaluation(0, dse::Fidelity::Analytical, "analytical"),
         madeEvaluation(1, dse::Fidelity::Analytical, "analytical")},
        buffer);
    buffer << "9,1,0,1,0,1,0,0.5,1,2,3,4,analytical,analytical,0,-,-\n";
    const io::JournalReplay replay = io::readEvalJournal(buffer);
    EXPECT_TRUE(replay.found);
    EXPECT_EQ(replay.entries.size(), 2u);
    EXPECT_TRUE(replay.truncated);
    EXPECT_EQ(replay.badLine, 5u);
    EXPECT_NE(replay.reason.find("layers_idx"), std::string::npos)
        << replay.reason;
}

TEST(Persistence, TryReadersAcceptCleanInput)
{
    std::stringstream buffer;
    io::writeDseArchive(
        {madeEvaluation(0, dse::Fidelity::CycleAccurate, "cycle")},
        buffer);
    io::ParseDiag diag;
    const auto restored = io::tryReadDseArchive(buffer, diag);
    EXPECT_TRUE(diag.ok);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].fidelity, dse::Fidelity::CycleAccurate);
}

TEST(Persistence, LegacyBackendArchiveHeaderStillReads)
{
    // Pre-contention-backend archives have backend/fidelity but no
    // contention column; they must load with zero background traffic.
    std::istringstream is(
        "layers_idx,filters_idx,pe_rows_idx,pe_cols_idx,ifmap_idx,"
        "filter_idx,ofmap_idx,success_rate,npu_power_w,soc_power_w,"
        "latency_ms,fps,backend,fidelity\n"
        "0,1,1,1,0,1,0,0.75,1.5,3.25,12.5,80,tiered,cycle\n");
    const auto restored = readCleanArchive(is);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].backend, "tiered");
    EXPECT_EQ(restored[0].fidelity, dse::Fidelity::CycleAccurate);
    EXPECT_DOUBLE_EQ(restored[0].contentionBytesPerSec, 0.0);
}

TEST(Persistence, ContentionColumnRoundTrips)
{
    dse::Evaluation eval =
        madeEvaluation(1, dse::Fidelity::CycleAccurate, "contention");
    eval.contentionBytesPerSec = 3.2e9;
    std::stringstream buffer;
    io::writeDseArchive({eval}, buffer);
    const auto restored = readCleanArchive(buffer);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].backend, "contention");
    EXPECT_DOUBLE_EQ(restored[0].contentionBytesPerSec, 3.2e9);
}

TEST(Persistence, TryReadDseArchiveDiagnosesBadContention)
{
    expectAppendedRowDiagnosed(
        "0,1,0,1,0,1,0,0.5,1,2,3,4,analytical,cycle,-5,-,-\n",
        "contention");
}

TEST(Persistence, ScenarioColumnRoundTrips)
{
    dse::Evaluation eval =
        madeEvaluation(1, dse::Fidelity::Analytical, "analytical");
    eval.scenario = "nav+survey";
    std::stringstream buffer;
    io::writeDseArchive({eval}, buffer);
    const auto restored = readCleanArchive(buffer);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].scenario, "nav+survey");
    EXPECT_DOUBLE_EQ(restored[0].latencyMs, 11.0);
}

TEST(Persistence, LegacyContentionArchiveHeaderStillReads)
{
    // Pre-airframe archives end at the contention column; they must
    // load with the default "-" scenario tag, so a journal written
    // before the mission-mix layer resumes unchanged.
    std::istringstream is(
        "layers_idx,filters_idx,pe_rows_idx,pe_cols_idx,ifmap_idx,"
        "filter_idx,ofmap_idx,success_rate,npu_power_w,soc_power_w,"
        "latency_ms,fps,backend,fidelity,contention_bps\n"
        "0,1,1,1,0,1,0,0.75,1.5,3.25,12.5,80,contention,cycle,2.5e9\n");
    const auto restored = readCleanArchive(is);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].scenario, "-");
    EXPECT_EQ(restored[0].backend, "contention");
    EXPECT_DOUBLE_EQ(restored[0].contentionBytesPerSec, 2.5e9);
}

TEST(Persistence, TryReadDseArchiveDiagnosesEmptyScenario)
{
    expectAppendedRowDiagnosed(
        "0,1,0,1,0,1,0,0.5,1,2,3,4,analytical,cycle,0,,-\n",
        "scenario");
}

TEST(Persistence, DramColumnRoundTrips)
{
    dse::Evaluation eval =
        madeEvaluation(1, dse::Fidelity::BankAccurate, "dram");
    eval.dramKey = "b8o-1a2b3c4d";
    std::stringstream buffer;
    io::writeDseArchive({eval}, buffer);
    const auto restored = readCleanArchive(buffer);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].dramKey, "b8o-1a2b3c4d");
    EXPECT_EQ(restored[0].fidelity, dse::Fidelity::BankAccurate);
    EXPECT_EQ(restored[0].backend, "dram");
}

TEST(Persistence, LegacyScenarioArchiveHeaderStillReads)
{
    // Pre-dram archives end at the scenario column; they must load
    // with the default "-" dram tag, so a journal written before the
    // bank-level layer resumes unchanged.
    std::istringstream is(
        "layers_idx,filters_idx,pe_rows_idx,pe_cols_idx,ifmap_idx,"
        "filter_idx,ofmap_idx,success_rate,npu_power_w,soc_power_w,"
        "latency_ms,fps,backend,fidelity,contention_bps,scenario\n"
        "0,1,1,1,0,1,0,0.75,1.5,3.25,12.5,80,tiered,cycle,0,nav\n");
    const auto restored = readCleanArchive(is);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].dramKey, "-");
    EXPECT_EQ(restored[0].scenario, "nav");
    EXPECT_EQ(restored[0].backend, "tiered");
}

TEST(Persistence, TryReadDseArchiveDiagnosesEmptyDramTag)
{
    expectAppendedRowDiagnosed(
        "0,1,0,1,0,1,0,0.5,1,2,3,4,analytical,cycle,0,-,\n",
        "dram");
}

TEST(Persistence, PrecisionColumnRoundTrips)
{
    // An archive whose first row carries a precision label is written
    // in the precision layout; the label restores the operand width on
    // read (the seven encoding columns stay precision-agnostic).
    dse::Evaluation eval =
        madeEvaluation(1, dse::Fidelity::Analytical, "quantized");
    eval.precision = "fp16";
    eval.point.accel.bytesPerElement = 2;
    std::stringstream buffer;
    io::writeDseArchive({eval}, buffer);
    EXPECT_NE(buffer.str().find(",precision\n"), std::string::npos);
    const auto restored = readCleanArchive(buffer);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].precision, "fp16");
    EXPECT_EQ(restored[0].point.accel.bytesPerElement, 2);
    EXPECT_EQ(restored[0].backend, "quantized");
}

TEST(Persistence, DefaultArchiveOmitsPrecisionColumn)
{
    // Single-precision rows (precision "-") must keep writing the
    // legacy layout so pre-precision archives stay byte-identical.
    std::stringstream buffer;
    io::writeDseArchive(
        {madeEvaluation(0, dse::Fidelity::Analytical, "analytical")},
        buffer);
    EXPECT_EQ(buffer.str().find("precision"), std::string::npos);
    const auto restored = readCleanArchive(buffer);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].precision, "-");
    EXPECT_EQ(restored[0].point.accel.bytesPerElement, 1);
}

TEST(Persistence, TryReadDseArchiveDiagnosesUnknownPrecision)
{
    expectAppendedRowDiagnosed(
        "0,1,0,1,0,1,0,0.5,1,2,3,4,quantized,analytical,0,-,-,int9\n",
        "precision", "int8");
}

TEST(Persistence, AcceptedHeadersCoverCurrentAndLegacyLayouts)
{
    // The precision layout extends the default one by one column, and
    // every older layout is a prefix of them: each dropped exactly the
    // trailing columns newer ones appended (precision, then dram, then
    // scenario, then contention, then backend/fidelity).
    const std::vector<std::string> &widest = io::dsePrecisionArchiveHeader();
    ASSERT_EQ(widest.size(), 18u);
    EXPECT_EQ(widest.back(), "precision");
    EXPECT_EQ(io::dseArchiveHeader(),
              std::vector<std::string>(widest.begin(), widest.end() - 1));
    const struct
    {
        std::size_t width;
        const char *last;
    } layouts[] = {{18, "precision"}, {17, "dram"},   {16, "scenario"},
                   {15, "contention_bps"}, {14, "fidelity"}, {12, "fps"}};
    for (const auto &layout : layouts) {
        std::string header;
        for (std::size_t c = 0; c < layout.width; ++c)
            header += (c == 0 ? "" : ",") + widest[c];
        EXPECT_EQ(widest[layout.width - 1], layout.last);
        std::istringstream is(header + "\n");
        io::ParseDiag diag;
        EXPECT_TRUE(io::tryReadDseArchive(is, diag).empty());
        EXPECT_TRUE(diag.ok) << layout.width << ": " << diag.reason;
    }
}

TEST(Persistence, HeaderOutsideTheColumnTableIsRejected)
{
    // Only the column table's prefixes at the six historical widths are
    // layouts; a 13-column header (backend without fidelity) and a
    // reordered header are not, even though they name known columns.
    std::vector<std::string> thirteen = io::dseArchiveHeader();
    thirteen.resize(13);
    std::vector<std::string> reordered = io::dseArchiveHeader();
    std::swap(reordered[15], reordered[16]); // scenario <-> dram.
    for (const std::vector<std::string> &header : {thirteen, reordered}) {
        std::string line;
        for (const std::string &column : header)
            line += (line.empty() ? "" : ",") + column;
        std::istringstream is(line + "\n");
        io::ParseDiag diag;
        const auto restored = io::tryReadDseArchive(is, diag);
        EXPECT_TRUE(restored.empty());
        EXPECT_FALSE(diag.ok);
        EXPECT_EQ(diag.line, 1u);
        EXPECT_NE(diag.reason.find("unexpected header"), std::string::npos)
            << diag.reason;
    }
}

// --------------------------------------------------------------- json ----

TEST(Json, UnicodeEscapeBasicMultilingualPlane)
{
    const io::JsonValue v = io::parseJson("\"\\u0041\\u00e9\\u20ac\"");
    EXPECT_EQ(v.asString(), "A\xc3\xa9\xe2\x82\xac"); // A, e-acute, euro.
}

TEST(Json, UnicodeEscapeSurrogatePairDecodes)
{
    // U+1F680 (rocket) = \uD83D\uDE80 -> 4-byte UTF-8 F0 9F 9A 80.
    const io::JsonValue v = io::parseJson("\"\\ud83d\\ude80\"");
    EXPECT_EQ(v.asString(), "\xf0\x9f\x9a\x80");
    // Pair in the middle of a string, mixed case hex.
    const io::JsonValue mixed =
        io::parseJson("\"x\\uD83D\\uDE80y\"");
    EXPECT_EQ(mixed.asString(), "x\xf0\x9f\x9a\x80y");
}

namespace
{

/** @p depth arrays nested inside each other: "[[...]]". */
std::string
nestedArrays(std::size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

/** @p depth objects nested inside each other: {"k":{"k":{}}}. */
std::string
nestedObjects(std::size_t depth)
{
    std::string doc;
    for (std::size_t i = 1; i < depth; ++i)
        doc += "{\"k\":";
    return doc + "{}" + std::string(depth - 1, '}');
}

} // namespace

TEST(Json, NestingAtTheDepthLimitParses)
{
    io::JsonValue value;
    std::string error;
    ASSERT_TRUE(io::tryParseJson(nestedArrays(io::maxJsonDepth), value,
                                 error))
        << error;
    std::size_t depth = 1;
    for (const io::JsonValue *v = &value; v->size() != 0;
         v = &v->asArray().front())
        ++depth;
    EXPECT_EQ(depth, io::maxJsonDepth);
    EXPECT_TRUE(io::tryParseJson(nestedObjects(io::maxJsonDepth), value,
                                 error))
        << error;
}

TEST(Json, OneLevelPastTheLimitIsRejectedWithDepthAndOffset)
{
    io::JsonValue value;
    std::string error;
    EXPECT_FALSE(io::tryParseJson(nestedArrays(io::maxJsonDepth + 1),
                                  value, error));
    EXPECT_EQ(error, "nesting deeper than 64 levels at offset 64");
    error.clear();
    EXPECT_FALSE(io::tryParseJson(nestedObjects(io::maxJsonDepth + 1),
                                  value, error));
    EXPECT_NE(error.find("nesting deeper than 64 levels"),
              std::string::npos)
        << error;
}

TEST(Json, MillionLevelNestingIsRejectedWithoutCrashing)
{
    io::JsonValue value;
    std::string error;
    EXPECT_FALSE(io::tryParseJson(nestedArrays(1000000), value, error));
    EXPECT_EQ(error, "nesting deeper than 64 levels at offset 64");
}

TEST(JsonDeath, RejectsLoneHighSurrogate)
{
    EXPECT_EXIT(io::parseJson("\"\\ud83d\""),
                ::testing::ExitedWithCode(1), "surrogate");
    EXPECT_EXIT(io::parseJson("\"\\ud83d rest\""),
                ::testing::ExitedWithCode(1), "surrogate");
    // High surrogate followed by a non-surrogate escape.
    EXPECT_EXIT(io::parseJson("\"\\ud83d\\u0041\""),
                ::testing::ExitedWithCode(1), "surrogate");
}

TEST(JsonDeath, RejectsLoneLowSurrogate)
{
    EXPECT_EXIT(io::parseJson("\"\\ude80\""),
                ::testing::ExitedWithCode(1), "lone low surrogate");
}
