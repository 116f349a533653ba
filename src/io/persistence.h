/**
 * @file
 * CSV persistence for the two expensive artifacts of an AutoPilot run:
 * the Phase 1 policy database and the Phase 2 DSE archive. The paper's
 * three-phase split exists precisely so these can be computed once and
 * reused ("Phase 1 and 2 take the most time; Phase 3 is negligible");
 * persistence makes the reuse survive process boundaries.
 *
 * Two reader families share one decoder: the classic read*() calls are
 * fatal on any malformed input (a corrupt archive handed to a bench is
 * a usage error), while the tryRead*() variants return a ParseDiag
 * naming the first bad line and keep every row before it - exactly what
 * journal replay needs to truncate at a torn final record after a kill.
 */

#ifndef AUTOPILOT_IO_PERSISTENCE_H
#define AUTOPILOT_IO_PERSISTENCE_H

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "airlearning/database.h"
#include "dse/evaluator.h"

namespace autopilot::io
{

/**
 * Flush a file's written data to stable storage (POSIX fsync). A
 * stream flush only hands bytes to the page cache; durability across
 * power loss needs this. Fatal when the file cannot be opened or
 * synced. No-op on platforms without fsync.
 */
void syncFileToDisk(const std::string &path);

/**
 * fsync the directory containing @p path, making a rename into that
 * directory durable: without it, a power loss after an atomic
 * temp+rename can resurrect the OLD file - a stale checkpoint that
 * disagrees with the journal written after it. No-op without fsync.
 */
void syncParentDir(const std::string &path);

/**
 * Durable atomic file write: write @p contents to "<path>.tmp", flush,
 * fsync, rename over @p path, fsync the parent directory. Readers of
 * @p path see either the old bytes or the new bytes, never a torn
 * file - even across power loss. Fatal on any I/O failure.
 */
void writeFileAtomic(const std::string &path,
                     const std::string &contents);

/**
 * Outcome of a tolerant parse. When ok is false, @p line is the
 * 1-based line number of the first malformed line (the header is line
 * 1) and @p reason says what was wrong with it; all rows before that
 * line were parsed and returned.
 */
struct ParseDiag
{
    bool ok = true;
    std::size_t line = 0;
    std::string reason;
};

/** Write the policy database as CSV. */
void writePolicyDatabase(const airlearning::PolicyDatabase &db,
                         std::ostream &os);

/** Read a policy database written by writePolicyDatabase (fatal on
 * malformed input). */
airlearning::PolicyDatabase readPolicyDatabase(std::istream &is);

/**
 * Non-fatal readPolicyDatabase: parse until the first malformed line,
 * reporting it in @p diag and returning the records before it.
 */
airlearning::PolicyDatabase tryReadPolicyDatabase(std::istream &is,
                                                  ParseDiag &diag);

/*
 * DSE archive layout. One ordered column table defines every layout:
 * the twelve original columns (seven choice indices, success rate,
 * NPU/SoC power, latency, fps), then, in the order they were added,
 * backend, fidelity, contention_bps, scenario, dram and precision. Each
 * appended column has a default that rows written before it existed
 * read as (analytical backend and fidelity, zero contention, scenario
 * "-", dram "-", no precision label). A header is accepted only when it
 * is the table's prefix at one of the widths ever written - 12, 14, 15,
 * 16, 17 or 18 columns - so every older archive and journal still loads
 * while anything else (a reordered or partial header) is rejected.
 */

/** The 17-column layout every single-precision run writes. */
const std::vector<std::string> &dseArchiveHeader();

/** The 18-column precision-axis layout: dseArchiveHeader() plus the
 * trailing operand-precision label ("int8"/"fp16"/"fp32"), written
 * whenever the Phase 2 precision axis is searchable. */
const std::vector<std::string> &dsePrecisionArchiveHeader();

/**
 * Every archive header this reader family accepts, widest first, back
 * to the pre-backend 12-column one. Suitable as the accepted_headers
 * argument of io::readCsvAny, so external tooling reads older
 * archives/journals exactly as tryReadDseArchive does.
 */
const std::vector<std::vector<std::string>> &dseArchiveAcceptedHeaders();

/** Write the archive header line: the precision layout when
 * @p precisionLabels (rows carry precision labels), else the 17-column
 * one. The layout decision of every archive and journal writer. */
void writeDseArchiveHeader(bool precisionLabels, std::ostream &os);

/** Write a Phase 2 evaluation archive as CSV. */
void writeDseArchive(const std::vector<dse::Evaluation> &archive,
                     std::ostream &os);

/** Write one archive row (no header); the row format of both
 * writeDseArchive and the evaluation journal. */
void writeDseArchiveRow(const dse::Evaluation &eval, std::ostream &os);

/**
 * Read an archive written by writeDseArchive. Design points are decoded
 * through the default DesignSpace; objective vectors are rebuilt from
 * the stored metrics.
 */
std::vector<dse::Evaluation> readDseArchive(std::istream &is);

/**
 * Non-fatal readDseArchive: parse until the first malformed line
 * (torn final record, ragged row, bad number, out-of-range choice
 * index, unknown fidelity), reporting it in @p diag - the reason names
 * the column - and returning the evaluations before it.
 */
std::vector<dse::Evaluation> tryReadDseArchive(std::istream &is,
                                               ParseDiag &diag);

} // namespace autopilot::io

#endif // AUTOPILOT_IO_PERSISTENCE_H
