#include "io/journal.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "io/csv.h"
#include "io/persistence.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::io
{

namespace
{

constexpr const char *fingerprintKey = "fingerprint";

/** Parse a `fingerprint,<hex>` line; false when it is anything else. */
bool
tryParseFingerprintLine(const std::string &line,
                        std::uint64_t &fingerprint)
{
    const std::vector<std::string> fields = splitCsvLine(line);
    if (fields.size() != 2 || fields[0] != fingerprintKey ||
        fields[1].empty())
        return false;
    // Only the writer's own spelling (formatFingerprint: 1-16
    // lowercase hex digits). strtoull alone would also take "-1",
    // "0x1a", " 1a" or "1A" and saturate on overflow.
    const std::uint64_t parsed = static_cast<std::uint64_t>(
        std::strtoull(fields[1].c_str(), nullptr, 16));
    if (formatFingerprint(parsed) != fields[1])
        return false;
    fingerprint = parsed;
    return true;
}

void
writeFingerprintLine(std::ostream &os, std::uint64_t fingerprint)
{
    os << fingerprintKey << ',' << formatFingerprint(fingerprint)
       << '\n';
}

/** Read the first line with CRLF tolerance; false on an empty stream. */
bool
readFirstLine(std::istream &is, std::string &line)
{
    if (!std::getline(is, line))
        return false;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return true;
}

} // namespace

std::string
formatFingerprint(std::uint64_t fingerprint)
{
    std::ostringstream os;
    os << std::hex << fingerprint;
    return os.str();
}

JournalReplay
readEvalJournal(std::istream &is)
{
    JournalReplay replay;
    std::string line;
    if (!readFirstLine(is, line))
        return replay;
    if (!tryParseFingerprintLine(line, replay.fingerprint))
        return replay;
    replay.found = true;

    ParseDiag diag;
    replay.entries = tryReadDseArchive(is, diag);
    if (!diag.ok) {
        // A failure on the archive's first line means the header never
        // made it to disk intact (the writer was killed between the
        // fingerprint line and the header flush): zero batches were
        // committed, so this is a clean fresh start - not a torn tail
        // worth diagnosing. The header is rewritten on resume.
        if (replay.entries.empty() && diag.line <= 1)
            return replay;
        replay.truncated = true;
        // The fingerprint line precedes the archive section, so shift
        // its 1-based line numbers to whole-file coordinates.
        replay.badLine = diag.line + 1;
        replay.reason = diag.reason;
    }
    return replay;
}

JournalReplay
readEvalJournal(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    return readEvalJournal(in);
}

EvalJournalWriter::EvalJournalWriter(
    const std::string &path, std::uint64_t fingerprint,
    std::span<const dse::Evaluation> replayed, bool precisionColumn)
    : filePath(path), out(path, std::ios::trunc)
{
    util::fatalIf(!out, "EvalJournalWriter: cannot open '" + path +
                            "' for writing");
    writeFingerprintLine(out, fingerprint);
    writeDseArchiveHeader(precisionColumn, out);
    for (const dse::Evaluation &eval : replayed)
        writeDseArchiveRow(eval, out);
    out.flush();
    util::fatalIf(!out, "EvalJournalWriter: write failed on '" + path +
                            "'");
    // Make the header (and any replayed prefix) durable before batches
    // start landing: a power loss must never leave a journal whose
    // very existence the directory has forgotten while a checkpoint
    // written after it survived. Appends themselves stay flush-only -
    // a lost tail batch is exactly what replay truncation absorbs.
    syncFileToDisk(filePath);
    syncParentDir(filePath);
}

void
EvalJournalWriter::append(std::span<const dse::Evaluation> batch)
{
    if (batch.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex);
    for (const dse::Evaluation &eval : batch)
        writeDseArchiveRow(eval, out);
    out.flush();
    util::fatalIf(!out, "EvalJournalWriter: write failed on '" +
                            filePath + "'");
    util::Telemetry &telemetry = util::Telemetry::instance();
    if (telemetry.enabled()) {
        telemetry.metrics().counter("io.journal.batches").add(1);
        telemetry.metrics()
            .counter("io.journal.rows")
            .add(batch.size());
    }
}

void
writePolicyCheckpoint(const std::string &path,
                      std::uint64_t fingerprint,
                      const airlearning::PolicyDatabase &db)
{
    const std::string tmpPath = path + ".tmp";
    {
        std::ofstream out(tmpPath, std::ios::trunc);
        util::fatalIf(!out, "writePolicyCheckpoint: cannot open '" +
                                tmpPath + "' for writing");
        writeFingerprintLine(out, fingerprint);
        writePolicyDatabase(db, out);
        out.flush();
        util::fatalIf(!out, "writePolicyCheckpoint: write failed on '" +
                                tmpPath + "'");
    }
    // fsync the temp file BEFORE the rename and the directory after
    // it: without the first, the rename can land with the data still
    // in the page cache (torn checkpoint after power loss); without
    // the second, the rename itself can be forgotten and a STALE
    // checkpoint resurrected - one that disagrees with the journal
    // written after it.
    syncFileToDisk(tmpPath);
    util::fatalIf(std::rename(tmpPath.c_str(), path.c_str()) != 0,
                  "writePolicyCheckpoint: cannot rename '" + tmpPath +
                      "' to '" + path + "'");
    syncParentDir(path);
}

PolicyCheckpoint
readPolicyCheckpoint(const std::string &path)
{
    PolicyCheckpoint checkpoint;
    std::ifstream in(path);
    if (!in)
        return checkpoint;
    std::string line;
    if (!readFirstLine(in, line) ||
        !tryParseFingerprintLine(line, checkpoint.fingerprint))
        return checkpoint;
    checkpoint.found = true;

    ParseDiag diag;
    checkpoint.db = tryReadPolicyDatabase(in, diag);
    checkpoint.ok = diag.ok;
    if (!diag.ok)
        checkpoint.reason = diag.reason + " at line " +
                            std::to_string(diag.line + 1);
    return checkpoint;
}

} // namespace autopilot::io
