#include "io/persistence.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "io/csv.h"
#include "util/logging.h"

namespace autopilot::io
{

void
syncFileToDisk(const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(path.c_str(), O_RDONLY);
    util::fatalIf(fd < 0,
                  "syncFileToDisk: cannot open '" + path + "'");
    const int rc = ::fsync(fd);
    ::close(fd);
    util::fatalIf(rc != 0, "syncFileToDisk: fsync failed on '" + path +
                               "'");
#else
    (void)path;
#endif
}

void
syncParentDir(const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
    util::fatalIf(fd < 0, "syncParentDir: cannot open directory '" +
                              parent.string() + "'");
    const int rc = ::fsync(fd);
    ::close(fd);
    util::fatalIf(rc != 0, "syncParentDir: fsync failed on '" +
                               parent.string() + "'");
#else
    (void)path;
#endif
}

void
writeFileAtomic(const std::string &path, const std::string &contents)
{
    const std::string tmpPath = path + ".tmp";
    {
        std::ofstream out(tmpPath, std::ios::trunc | std::ios::binary);
        util::fatalIf(!out, "writeFileAtomic: cannot open '" + tmpPath +
                                "' for writing");
        out << contents;
        out.flush();
        util::fatalIf(!out, "writeFileAtomic: write failed on '" +
                                tmpPath + "'");
    }
    // fsync BEFORE the rename: renaming an unsynced file can commit
    // the name change while the data is still only in the page cache,
    // so a power loss yields a duly-named empty/torn file.
    syncFileToDisk(tmpPath);
    util::fatalIf(std::rename(tmpPath.c_str(), path.c_str()) != 0,
                  "writeFileAtomic: cannot rename '" + tmpPath +
                      "' to '" + path + "'");
    syncParentDir(path);
}

namespace
{

const std::vector<std::string> databaseHeader = {
    "policy_id",    "layers",       "filters",
    "density",      "success_rate", "model_params",
    "model_macs",   "training_steps", "converged"};

/// One DSE archive CSV column: its name, and the value a row written
/// before the column existed reads as (empty for the original twelve,
/// which every layout carries).
struct ArchiveColumn
{
    const char *name;
    const char *fallback;
};

/**
 * The archive column table. Every layout ever written is a prefix of it
 * (see archiveWidths); columns were only ever appended, so a short row
 * decodes as the full row with the missing tail set to its defaults.
 */
constexpr ArchiveColumn archiveColumns[] = {
    {"layers_idx", ""},  {"filters_idx", ""}, {"pe_rows_idx", ""},
    {"pe_cols_idx", ""}, {"ifmap_idx", ""},   {"filter_idx", ""},
    {"ofmap_idx", ""},   {"success_rate", ""}, {"npu_power_w", ""},
    {"soc_power_w", ""}, {"latency_ms", ""},  {"fps", ""},
    // Backend layer: older rows are analytical evaluations.
    {"backend", "analytical"}, {"fidelity", "analytical"},
    // Contention backend: older rows saw no background traffic.
    {"contention_bps", "0"},
    // Mission mix: older rows are the legacy single-scenario workload.
    {"scenario", "-"},
    // Bank-level DRAM: older rows had no bank simulation.
    {"dram", "-"},
    // Operand precision label; written only when the precision axis is
    // searchable, so single-precision archives keep the 17-column
    // layout byte for byte.
    {"precision", "-"},
};

/// Column counts of the layouts written so far, oldest first: the only
/// header widths a reader accepts.
constexpr std::size_t archiveWidths[] = {12, 14, 15, 16, 17, 18};

/// The trailing precision label: the only column a written row omits.
constexpr std::size_t precisionColumn = std::size(archiveColumns) - 1;

/// Encoding columns of every archive layout: the seven legacy choice
/// indices. The 8th design dimension (precision) is archived as the
/// trailing LABEL column instead of an index - an index would be
/// ambiguous across precision sets ({1,2} and {1,2,4} number fp16
/// differently), and keeping the encoding columns fixed at seven is
/// what lets pre-precision journals replay byte-identically.
constexpr std::size_t encodedColumns = 7;

/** The first @p width column names of the table. */
std::vector<std::string>
archiveHeaderOfWidth(std::size_t width)
{
    std::vector<std::string> header;
    for (std::size_t c = 0; c < width; ++c)
        header.emplace_back(archiveColumns[c].name);
    return header;
}

bool
densityFromName(const std::string &name,
                airlearning::ObstacleDensity &density)
{
    for (airlearning::ObstacleDensity candidate :
         airlearning::allDensities()) {
        if (airlearning::densityName(candidate) == name) {
            density = candidate;
            return true;
        }
    }
    return false;
}

std::string
formatDouble(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/**
 * Stream lines with CRLF tolerance and 1-based line accounting - the
 * shared front end of every tolerant reader, so parse diagnostics can
 * name the exact line a record was torn on.
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &is) : in(is) {}

    bool
    next(std::string &line)
    {
        if (!std::getline(in, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        ++lineNumber;
        return true;
    }

    std::size_t line() const { return lineNumber; }

  private:
    std::istream &in;
    std::size_t lineNumber = 0;
};

/** Fail @p diag at the reader's current line with @p reason. */
void
failAt(ParseDiag &diag, const LineReader &reader,
       const std::string &reason)
{
    diag.ok = false;
    diag.line = reader.line();
    diag.reason = reason;
}

/**
 * Decode one archive row (already width-checked against its header),
 * padding the columns its layout lacks with their defaults. Returns the
 * reason, naming the column, on a malformed field; empty on success.
 */
std::string
tryDecodeArchiveRow(std::vector<std::string> row,
                    const dse::DesignSpace &space, dse::Evaluation &eval)
{
    const std::size_t present = row.size();
    for (std::size_t c = present; c < std::size(archiveColumns); ++c)
        row.emplace_back(archiveColumns[c].fallback);
    const auto fail = [](std::size_t column, const std::string &reason) {
        return std::string(archiveColumns[column].name) + ": " + reason;
    };

    // Seven index columns in every layout, range-checked here so a
    // corrupt index is a diagnosis rather than a fatal decode; the
    // precision dimension arrives (if at all) as the trailing label.
    eval.encoding.fill(0);
    for (std::size_t d = 0; d < encodedColumns; ++d) {
        std::string reason = tryParseInt(row[d], eval.encoding[d]);
        const int size = space.dimensionSizes()[d];
        if (reason.empty() &&
            (eval.encoding[d] < 0 || eval.encoding[d] >= size))
            reason = "index " + row[d] + " outside [0, " +
                     std::to_string(size) + ")";
        if (!reason.empty())
            return fail(d, reason);
    }
    double *const metrics[] = {&eval.successRate, &eval.npuPowerW,
                               &eval.socPowerW, &eval.latencyMs,
                               &eval.fps};
    for (std::size_t m = 0; m < std::size(metrics); ++m) {
        const std::size_t column = encodedColumns + m;
        const std::string reason = tryParseDouble(row[column], *metrics[m]);
        if (!reason.empty())
            return fail(column, reason);
    }
    eval.backend = row[12];
    if (!dse::tryFidelityFromName(row[13], eval.fidelity))
        return fail(13, "unknown fidelity '" + row[13] + "'");
    std::string reason = tryParseDouble(row[14], eval.contentionBytesPerSec);
    if (reason.empty() && (!(eval.contentionBytesPerSec >= 0.0) ||
                           !std::isfinite(eval.contentionBytesPerSec)))
        reason = "contention bytes/s must be finite and >= 0";
    if (!reason.empty())
        return fail(14, reason);
    if (row[15].empty())
        return fail(15, "empty scenario tag");
    eval.scenario = row[15];
    if (row[16].empty())
        return fail(16, "empty dram channel tag");
    eval.dramKey = row[16];

    eval.point = space.decode(eval.encoding);
    if (present > precisionColumn) {
        // Precision label column: decode through the default space
        // first (index 0 = int8), then override the operand width from
        // the archived label - the label, not an index, is what stays
        // unambiguous across precision sets.
        int width = 0;
        const std::string &label = row[precisionColumn];
        if (!systolic::precisionFromName(label, width))
            return fail(precisionColumn,
                        "unknown precision '" + label + "'");
        eval.precision = label;
        eval.point.accel.bytesPerElement = width;
    }
    eval.objectives = {1.0 - eval.successRate, eval.socPowerW,
                       eval.latencyMs};
    return {};
}

} // namespace

void
writePolicyDatabase(const airlearning::PolicyDatabase &db,
                    std::ostream &os)
{
    for (std::size_t i = 0; i < databaseHeader.size(); ++i)
        os << databaseHeader[i]
           << (i + 1 == databaseHeader.size() ? "\n" : ",");
    for (const airlearning::PolicyRecord &record : db.all()) {
        os << record.policyId << ',' << record.params.numConvLayers
           << ',' << record.params.numFilters << ','
           << airlearning::densityName(record.density) << ','
           << formatDouble(record.successRate) << ','
           << record.modelParams << ',' << record.modelMacs << ','
           << record.trainingSteps << ','
           << (record.converged ? 1 : 0) << '\n';
    }
}

airlearning::PolicyDatabase
tryReadPolicyDatabase(std::istream &is, ParseDiag &diag)
{
    airlearning::PolicyDatabase db;
    LineReader reader(is);
    std::string line;
    if (!reader.next(line)) {
        diag = {false, 1, "empty stream"};
        return db;
    }
    if (splitCsvLine(line) != databaseHeader) {
        failAt(diag, reader, "unexpected header '" + line + "'");
        return db;
    }
    while (reader.next(line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> row = splitCsvLine(line);
        if (row.size() != databaseHeader.size()) {
            failAt(diag, reader, "ragged row '" + line + "'");
            return db;
        }
        airlearning::PolicyRecord record;
        record.policyId = row[0];
        std::string reason =
            tryParseInt(row[1], record.params.numConvLayers);
        if (reason.empty())
            reason = tryParseInt(row[2], record.params.numFilters);
        if (reason.empty() && !densityFromName(row[3], record.density))
            reason = "unknown density '" + row[3] + "'";
        if (reason.empty())
            reason = tryParseDouble(row[4], record.successRate);
        // !(0 <= x <= 1) instead of x < 0 || x > 1: NaN must not slip
        // through.
        if (reason.empty() && !(record.successRate >= 0.0 &&
                                record.successRate <= 1.0))
            reason = "success rate outside [0, 1]";
        long long parsed64 = 0;
        if (reason.empty() &&
            (reason = tryParseInt64(row[5], parsed64)).empty())
            record.modelParams = parsed64;
        if (reason.empty() &&
            (reason = tryParseInt64(row[6], parsed64)).empty())
            record.modelMacs = parsed64;
        if (reason.empty() &&
            (reason = tryParseInt64(row[7], parsed64)).empty())
            record.trainingSteps = parsed64;
        int converged = 0;
        if (reason.empty())
            reason = tryParseInt(row[8], converged);
        if (!reason.empty()) {
            failAt(diag, reader, reason);
            return db;
        }
        record.converged = converged != 0;
        db.upsert(record);
    }
    return db;
}

airlearning::PolicyDatabase
readPolicyDatabase(std::istream &is)
{
    ParseDiag diag;
    airlearning::PolicyDatabase db = tryReadPolicyDatabase(is, diag);
    util::fatalIf(!diag.ok, "readPolicyDatabase: " + diag.reason +
                                " at line " +
                                std::to_string(diag.line));
    return db;
}

const std::vector<std::string> &
dseArchiveHeader()
{
    static const std::vector<std::string> header =
        archiveHeaderOfWidth(precisionColumn);
    return header;
}

const std::vector<std::string> &
dsePrecisionArchiveHeader()
{
    static const std::vector<std::string> header =
        archiveHeaderOfWidth(std::size(archiveColumns));
    return header;
}

const std::vector<std::vector<std::string>> &
dseArchiveAcceptedHeaders()
{
    static const std::vector<std::vector<std::string>> accepted = [] {
        std::vector<std::vector<std::string>> headers;
        for (auto width = std::rbegin(archiveWidths);
             width != std::rend(archiveWidths); ++width)
            headers.push_back(archiveHeaderOfWidth(*width));
        return headers;
    }();
    return accepted;
}

void
writeDseArchiveHeader(bool precisionLabels, std::ostream &os)
{
    const std::vector<std::string> &header =
        precisionLabels ? dsePrecisionArchiveHeader() : dseArchiveHeader();
    for (std::size_t i = 0; i < header.size(); ++i)
        os << header[i] << (i + 1 == header.size() ? "\n" : ",");
}

void
writeDseArchiveRow(const dse::Evaluation &eval, std::ostream &os)
{
    // Seven index columns in every layout (see encodedColumns); the
    // precision dimension is the trailing label column, present only on
    // precision-labelled rows so single-precision archives stay
    // byte-identical to the pre-precision format.
    for (std::size_t d = 0; d < encodedColumns; ++d)
        os << eval.encoding[d] << ',';
    os << formatDouble(eval.successRate) << ','
       << formatDouble(eval.npuPowerW) << ','
       << formatDouble(eval.socPowerW) << ','
       << formatDouble(eval.latencyMs) << ','
       << formatDouble(eval.fps) << ',' << eval.backend << ','
       << dse::fidelityName(eval.fidelity) << ','
       << formatDouble(eval.contentionBytesPerSec) << ','
       << eval.scenario << ',' << eval.dramKey;
    if (eval.precision != "-")
        os << ',' << eval.precision;
    os << '\n';
}

void
writeDseArchive(const std::vector<dse::Evaluation> &archive,
                std::ostream &os)
{
    // Precision-labelled rows select the wider layout; a run labels
    // either every row or none (the evaluator stamps labels only when
    // the axis is searchable), so checking the first row suffices.
    writeDseArchiveHeader(
        !archive.empty() && archive.front().precision != "-", os);
    for (const dse::Evaluation &eval : archive)
        writeDseArchiveRow(eval, os);
}

std::vector<dse::Evaluation>
tryReadDseArchive(std::istream &is, ParseDiag &diag)
{
    const dse::DesignSpace space;
    std::vector<dse::Evaluation> archive;
    LineReader reader(is);
    std::string line;
    if (!reader.next(line)) {
        diag = {false, 1, "empty stream"};
        return archive;
    }
    const auto &accepted = dseArchiveAcceptedHeaders();
    const std::vector<std::string> header = splitCsvLine(line);
    if (std::find(accepted.begin(), accepted.end(), header) ==
        accepted.end()) {
        failAt(diag, reader, "unexpected header '" + line + "'");
        return archive;
    }
    const std::size_t width = header.size();
    while (reader.next(line)) {
        if (line.empty())
            continue;
        std::vector<std::string> row = splitCsvLine(line);
        if (row.size() != width) {
            failAt(diag, reader, "ragged row '" + line + "'");
            return archive;
        }
        dse::Evaluation eval;
        const std::string reason =
            tryDecodeArchiveRow(std::move(row), space, eval);
        if (!reason.empty()) {
            failAt(diag, reader, reason);
            return archive;
        }
        archive.push_back(std::move(eval));
    }
    return archive;
}

std::vector<dse::Evaluation>
readDseArchive(std::istream &is)
{
    ParseDiag diag;
    std::vector<dse::Evaluation> archive = tryReadDseArchive(is, diag);
    util::fatalIf(!diag.ok, "readDseArchive: " + diag.reason +
                                " at line " + std::to_string(diag.line));
    return archive;
}

} // namespace autopilot::io
