/**
 * @file
 * Seeded mutation tests for every reader of untrusted files: DSE
 * archives (17- and 18-column layouts), the policy database, the
 * evaluation journal and the policy checkpoint.
 *
 * The corpus is written by the in-tree writers. Each clean file must
 * round-trip write -> read -> write byte for byte. Each mutated file
 * (byte flips, truncations, splices from the rest of the corpus) must
 * yield a value or a diagnosis - a ParseDiag, !found, or a torn-tail
 * truncation - and never abort or throw; whatever a reader accepts
 * must re-read to itself once written back. Deterministic: one fixed
 * seed, so a failure names the mutation that produced it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "io/journal.h"
#include "io/persistence.h"
#include "util/rng.h"

namespace io = autopilot::io;
namespace al = autopilot::airlearning;
namespace dse = autopilot::dse;
namespace fs = std::filesystem;

namespace
{

/// Mutated inputs per corpus file; small enough for every test run,
/// including the sanitizer builds.
constexpr int mutationsPerFile = 300;

constexpr std::uint64_t fingerprint = 0xC0FFEE1234ull;

/** Four rows over every fidelity and the optional columns. */
std::vector<dse::Evaluation>
corpusArchive(bool precisionLabels)
{
    const dse::Fidelity fidelities[] = {
        dse::Fidelity::Analytical, dse::Fidelity::CycleAccurate,
        dse::Fidelity::BankAccurate, dse::Fidelity::Analytical};
    std::vector<dse::Evaluation> rows(4);
    for (int i = 0; i < 4; ++i) {
        dse::Evaluation &eval = rows[i];
        for (std::size_t d = 0; d < dse::precisionDim; ++d)
            eval.encoding[d] = (i + static_cast<int>(d)) % 2;
        eval.successRate = 0.5 + 0.0625 * i;
        eval.npuPowerW = 1.0 / (3.0 + i);
        eval.socPowerW = 2.25 + i;
        eval.latencyMs = 10.0 / 7.0 + i;
        eval.fps = 1e3 / eval.latencyMs;
        eval.fidelity = fidelities[i];
        eval.backend = i % 2 == 0 ? "tiered" : "dram";
        eval.contentionBytesPerSec = i % 2 == 0 ? 0.0 : 1.5e9;
        eval.scenario = i % 3 == 0 ? "-" : "nav+survey";
        eval.dramKey = i == 2 ? "b8o-1a2b3c4d" : "-";
        if (precisionLabels)
            eval.precision = i % 2 == 0 ? "int8" : "fp16";
    }
    return rows;
}

al::PolicyDatabase
corpusDatabase()
{
    al::PolicyDatabase db;
    for (int i = 0; i < 3; ++i) {
        al::PolicyRecord record;
        record.policyId = "l" + std::to_string(3 + i) + "_f48";
        record.params = {3 + i, 48};
        record.density = static_cast<al::ObstacleDensity>(i);
        record.successRate = 0.3 + 0.2 * i;
        record.modelParams = 123456 + i;
        record.modelMacs = 9876543210LL * (i + 1);
        record.trainingSteps = 20000;
        record.converged = i != 1;
        db.upsert(record);
    }
    return db;
}

template <typename Value, typename Write>
std::string
written(const Value &value, Write write)
{
    std::ostringstream os;
    write(value, os);
    return os.str();
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * Read @p bytes with @p read and write the value back with @p write.
 * A failed read must name a line and a reason; @p ok says whether the
 * read was clean.
 */
template <typename Read, typename Write>
std::string
reread(const std::string &bytes, Read read, Write write, bool &ok)
{
    std::istringstream is(bytes);
    io::ParseDiag diag;
    const auto value = read(is, diag);
    ok = diag.ok;
    if (!ok) {
        EXPECT_GE(diag.line, 1u);
        EXPECT_FALSE(diag.reason.empty());
    }
    return written(value, write);
}

/** Whatever @p read accepts from @p bytes, written back, re-reads
 * cleanly to the same bytes. */
template <typename Read, typename Write>
void
expectFixedPoint(const std::string &bytes, Read read, Write write)
{
    bool ok = false;
    const std::string once = reread(bytes, read, write, ok);
    EXPECT_EQ(reread(once, read, write, ok), once);
    EXPECT_TRUE(ok) << "a written value must re-read cleanly";
}

/** Every accepted row lies in the archive's value domains: finite,
 * non-negative metrics and a success rate in [0, 1]. */
void
expectInDomain(const std::vector<dse::Evaluation> &rows)
{
    for (const dse::Evaluation &eval : rows) {
        EXPECT_TRUE(eval.successRate >= 0.0 && eval.successRate <= 1.0)
            << eval.successRate;
        for (const double value : {eval.npuPowerW, eval.socPowerW,
                                   eval.latencyMs, eval.fps,
                                   eval.contentionBytesPerSec})
            EXPECT_TRUE(std::isfinite(value) && value >= 0.0) << value;
    }
}

/** A journal of two committed batches, as a run writes it. */
std::string
corpusJournal(const fs::path &path, bool precisionLabels)
{
    const std::vector<dse::Evaluation> rows = corpusArchive(precisionLabels);
    {
        io::EvalJournalWriter writer(path.string(), fingerprint, {},
                                     precisionLabels);
        writer.append(std::span(rows).first(2));
        writer.append(std::span(rows).subspan(2));
    }
    return readFile(path);
}

/**
 * One random mutation of @p out: a byte overwrite (from bytes the
 * grammar cares about, or any byte), a truncation, a splice of a slice
 * of @p donor over a slice of the input, or a boundary token spliced
 * over one whole comma-separated field.
 */
std::string
mutate(std::string out, const std::string &donor,
       autopilot::util::Rng &rng)
{
    static const char interesting[] = ",\n\r-.e+0179 \t\0nax";
    static const char *const tokens[] = {
        "",      "-",      "-1",    "9",      "99",   "4294967296", "nan",
        "-nan",  "inf",    "1e400", "1e-320", "0x1f", " 1",         "1 ",
        "int9",  "fp16",   "bank",  "quantum", "dense", "2147483648",
        "99999999999999999999", "1.5"};
    const auto position = [&rng](std::size_t size) {
        return size == 0 ? std::size_t{0}
                         : static_cast<std::size_t>(rng.uniformInt(
                               0, static_cast<int>(size) - 1));
    };
    const int kind = out.empty() ? 3 : rng.uniformInt(0, 4);
    if (kind == 0) {
        out[position(out.size())] =
            interesting[position(sizeof interesting - 1)];
    } else if (kind == 1) {
        out[position(out.size())] =
            static_cast<char>(rng.uniformInt(0, 255));
    } else if (kind == 2) {
        out.resize(position(out.size()));
    } else if (kind == 3) {
        const std::size_t at = position(out.size() + 1);
        const std::size_t cut = std::min<std::size_t>(
            out.size() - at, rng.uniformInt(0, 40));
        const std::size_t from = position(donor.size());
        out.replace(at, cut, donor.substr(from, rng.uniformInt(1, 60)));
    } else {
        const std::size_t sep = out.find_last_of(",\n", position(out.size()));
        const std::size_t begin = sep == std::string::npos ? 0 : sep + 1;
        const std::size_t end =
            std::min(out.find_first_of(",\r\n", begin), out.size());
        out.replace(begin, end - begin, tokens[position(std::size(tokens))]);
    }
    return out;
}

/** A fresh per-process scratch directory under the system temp dir. */
class ReaderMutation : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    const fs::path dir =
        fs::temp_directory_path() /
        ("autopilot_mutation_" + std::to_string(::getpid()));
};

} // namespace

TEST_F(ReaderMutation, CleanCorpusRoundTripsByteForByte)
{
    bool ok = false;
    for (const bool precision : {false, true}) {
        const std::string text =
            written(corpusArchive(precision), io::writeDseArchive);
        EXPECT_EQ(text.find(",precision\n") != std::string::npos, precision);
        EXPECT_EQ(reread(text, io::tryReadDseArchive, io::writeDseArchive,
                         ok),
                  text);
        EXPECT_TRUE(ok);
    }
    const std::string dbText =
        written(corpusDatabase(), io::writePolicyDatabase);
    EXPECT_EQ(reread(dbText, io::tryReadPolicyDatabase,
                     io::writePolicyDatabase, ok),
              dbText);
    EXPECT_TRUE(ok);

    // A resumed run rewrites the replayed rows: the same bytes.
    for (const bool precision : {false, true}) {
        const std::string bytes = corpusJournal(dir / "a.csv", precision);
        const io::JournalReplay replay =
            io::readEvalJournal((dir / "a.csv").string());
        ASSERT_TRUE(replay.found);
        EXPECT_FALSE(replay.truncated) << replay.reason;
        ASSERT_EQ(replay.entries.size(), 4u);
        io::EvalJournalWriter((dir / "b.csv").string(), replay.fingerprint,
                              replay.entries, precision);
        EXPECT_EQ(readFile(dir / "b.csv"), bytes);
    }

    io::writePolicyCheckpoint((dir / "a.chk").string(), fingerprint,
                              corpusDatabase());
    const io::PolicyCheckpoint loaded =
        io::readPolicyCheckpoint((dir / "a.chk").string());
    ASSERT_TRUE(loaded.found);
    EXPECT_TRUE(loaded.ok) << loaded.reason;
    io::writePolicyCheckpoint((dir / "b.chk").string(), loaded.fingerprint,
                              loaded.db);
    EXPECT_EQ(readFile(dir / "b.chk"), readFile(dir / "a.chk"));
}

TEST_F(ReaderMutation, MutatedInputsYieldValueOrDiagnosis)
{
    io::writePolicyCheckpoint((dir / "a.chk").string(), fingerprint,
                              corpusDatabase());
    const std::vector<std::string> corpus = {
        written(corpusArchive(false), io::writeDseArchive),
        written(corpusArchive(true), io::writeDseArchive),
        written(corpusDatabase(), io::writePolicyDatabase),
        corpusJournal(dir / "a.csv", false),
        corpusJournal(dir / "a.csv", true),
        readFile(dir / "a.chk"),
    };
    std::string donor;
    for (const std::string &file : corpus)
        donor += file;

    autopilot::util::Rng rng(0x5EED0F17);
    const fs::path mutant = dir / "mutant";
    for (std::size_t f = 0; f < corpus.size(); ++f) {
        for (int i = 0; i < mutationsPerFile; ++i) {
            std::string bytes = corpus[f];
            for (int n = rng.uniformInt(1, 3); n > 0; --n)
                bytes = mutate(std::move(bytes), donor, rng);
            SCOPED_TRACE("corpus file " + std::to_string(f) +
                         ", mutant " + std::to_string(i));
            try {
                expectFixedPoint(bytes, io::tryReadDseArchive,
                                 io::writeDseArchive);
                {
                    std::istringstream archive(bytes);
                    io::ParseDiag diag;
                    expectInDomain(io::tryReadDseArchive(archive, diag));
                }
                expectFixedPoint(bytes, io::tryReadPolicyDatabase,
                                 io::writePolicyDatabase);
                std::ofstream(mutant, std::ios::binary) << bytes;
                const io::JournalReplay replay =
                    io::readEvalJournal(mutant.string());
                EXPECT_TRUE(replay.found || replay.entries.empty());
                expectInDomain(replay.entries);
                if (replay.truncated) {
                    EXPECT_GE(replay.badLine, 2u); // Past the fingerprint.
                    EXPECT_FALSE(replay.reason.empty());
                }
                const io::PolicyCheckpoint checkpoint =
                    io::readPolicyCheckpoint(mutant.string());
                EXPECT_TRUE(checkpoint.found || checkpoint.db.size() == 0);
                EXPECT_TRUE(checkpoint.ok || !checkpoint.reason.empty() ||
                            !checkpoint.found);
            } catch (const std::exception &error) {
                ADD_FAILURE() << "reader threw: " << error.what();
            }
            if (HasFailure())
                return; // One reproducer is enough.
        }
    }
}

TEST_F(ReaderMutation, OutOfDomainMetricsAreDiagnosed)
{
    const std::string header =
        "layers_idx,filters_idx,pe_rows_idx,pe_cols_idx,ifmap_idx,"
        "filter_idx,ofmap_idx,success_rate,npu_power_w,soc_power_w,"
        "latency_ms,fps\n";
    const auto read = [&](const std::string &row, io::ParseDiag &diag) {
        std::istringstream is(header + row + "\n");
        return io::tryReadDseArchive(is, diag);
    };
    io::ParseDiag diag;
    ASSERT_EQ(read("0,1,1,1,0,1,0,1,0,0,0,0", diag).size(), 1u);
    ASSERT_TRUE(diag.ok) << diag.reason;

    // Every bad metric fails the row at its own column, with the value.
    const char *const columns[] = {"success_rate", "npu_power_w",
                                   "soc_power_w", "latency_ms", "fps"};
    for (std::size_t m = 0; m < std::size(columns); ++m) {
        for (const char *bad : {"nan", "-nan", "inf", "-inf", "-1.5",
                                "1e400", m == 0 ? "1.5" : "-1e-300"}) {
            std::string row = "0,1,1,1,0,1,0";
            for (std::size_t k = 0; k < std::size(columns); ++k)
                row += std::string(",") + (k == m ? bad : "0.5");
            io::ParseDiag badDiag;
            EXPECT_TRUE(read(row, badDiag).empty()) << row;
            EXPECT_FALSE(badDiag.ok) << row;
            EXPECT_EQ(badDiag.line, 2u) << row;
            EXPECT_EQ(badDiag.reason.rfind(columns[m], 0), 0u)
                << row << ": " << badDiag.reason;
        }
    }

    // The row that used to replay NaN, inf and negative objectives.
    io::ParseDiag replayed;
    EXPECT_TRUE(read("0,1,1,1,0,1,0,nan,-1.5,inf,-12.5,nan", replayed)
                    .empty());
    EXPECT_FALSE(replayed.ok);
    EXPECT_EQ(replayed.reason.rfind("success_rate: value nan outside", 0),
              0u)
        << replayed.reason;
}
