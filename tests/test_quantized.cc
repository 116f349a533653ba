/**
 * @file
 * Quantized-inference suite: the precision axis of the Phase 2 design
 * space and the cost-accounting bugfixes that make it honest.
 *
 *  - DesignSpace: the 8th (precision) dimension defaults to a single
 *    int8 choice; neighbor() never proposes a self-move through a
 *    size-1 dimension (the annealer-budget bug); encode()/contains()
 *    reject operand widths outside the configured choice set.
 *  - Power: PeModel scales MAC energy with the squared element width
 *    (exactly 1.0 at int8 - the legacy numbers are reproduced bit for
 *    bit), and every cost path the element width touches (DRAM bytes,
 *    SRAM energy, MAC energy, fold occupancy) responds to it.
 *  - Air Learning surrogate: the quantization penalty is recovered
 *    monotonically by wider operands and int8 returns the Phase 1
 *    success rate verbatim.
 *  - QuantizedBackend: registered in the BackendRegistry, numerically
 *    identical to the analytical stack, batch path bit-identical to
 *    the scalar path at every precision.
 *  - Fingerprint/journal: the default precision set contributes
 *    nothing to the task fingerprint, and a pre-precision (7-dim)
 *    journal resumes into a default-precision run byte-identically at
 *    1/2/4 worker threads.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "airlearning/quantization.h"
#include "airlearning/trainer.h"
#include "core/autopilot.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "io/journal.h"
#include "io/persistence.h"
#include "nn/e2e_template.h"
#include "power/npu_power.h"
#include "power/pe_model.h"
#include "systolic/engine.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

#include "shared_fixtures.h"

namespace al = autopilot::airlearning;
namespace core = autopilot::core;
namespace dse = autopilot::dse;
namespace io = autopilot::io;
namespace nn = autopilot::nn;
namespace pw = autopilot::power;
namespace sys = autopilot::systolic;
namespace util = autopilot::util;
namespace util = autopilot::util;
namespace fs = std::filesystem;

using autopilot::fixtures::sharedDatabase;

namespace
{

dse::BackendContext
sharedContext()
{
    return {&sharedDatabase(), al::ObstacleDensity::Dense, {}};
}

std::string
fileBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

// -------------------------------------------------- design space ----

TEST(QuantizedSpace, DefaultSpacePinsPrecisionToInt8)
{
    const dse::DesignSpace space;
    EXPECT_EQ(dse::designDims, 8u);
    EXPECT_EQ(space.dimensionSizes()[dse::precisionDim], 1);
    EXPECT_FALSE(space.precisionAxisEnabled());
    EXPECT_EQ(space.precisionChoices(), std::vector<int>({1}));
}

TEST(QuantizedSpace, WidenedAxisMultipliesCardinality)
{
    const dse::DesignSpace pinned;
    const dse::DesignSpace widened({1, 2, 4});
    EXPECT_TRUE(widened.precisionAxisEnabled());
    EXPECT_EQ(widened.cardinality(), 3 * pinned.cardinality());
}

TEST(QuantizedSpace, DecodeEncodeRoundTripsEveryPrecision)
{
    const dse::DesignSpace space({1, 2, 4});
    util::Rng rng(0x11);
    for (int i = 0; i < 100; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::DesignPoint point = space.decode(encoding);
        EXPECT_EQ(point.accel.bytesPerElement,
                  space.precisionChoices()[encoding[dse::precisionDim]]);
        EXPECT_EQ(space.encode(point), encoding);
    }
}

TEST(QuantizedSpaceDeath, EncodeRejectsForeignPrecision)
{
    const dse::DesignSpace space; // int8 only.
    dse::DesignPoint point = space.decode(dse::Encoding{});
    point.accel.bytesPerElement = 2;
    EXPECT_DEATH(space.encode(point), "bytesPerElement");
}

TEST(QuantizedSpaceDeath, ConstructorRejectsBadPrecisionLists)
{
    EXPECT_DEATH(dse::DesignSpace(std::vector<int>{}), "empty");
    EXPECT_DEATH(dse::DesignSpace({3}), "unsupported precision");
    EXPECT_DEATH(dse::DesignSpace({2, 1}), "ascending");
}

TEST(QuantizedSpace, HardwareSpaceContainsChecksPrecision)
{
    sys::HardwareSpace hw; // bytesPerElementChoices = {1}.
    sys::AcceleratorConfig config;
    config.bytesPerElement = 1;
    EXPECT_TRUE(hw.contains(config));
    config.bytesPerElement = 2;
    EXPECT_FALSE(hw.contains(config));
    hw.bytesPerElementChoices = {1, 2, 4};
    EXPECT_TRUE(hw.contains(config));
}

TEST(QuantizedSpace, PrecisionNamesRoundTrip)
{
    for (const int width : {1, 2, 4}) {
        int restored = 0;
        EXPECT_TRUE(sys::precisionFromName(sys::precisionName(width),
                                           restored));
        EXPECT_EQ(restored, width);
    }
    int unused = 0;
    EXPECT_FALSE(sys::precisionFromName("int4", unused));

    std::vector<int> widths;
    std::string error;
    EXPECT_TRUE(sys::parsePrecisionList("fp32, int8", widths, error));
    EXPECT_EQ(widths, std::vector<int>({1, 4})); // Sorted ascending.
    EXPECT_EQ(sys::formatPrecisionList(widths), "int8+fp32");
    EXPECT_FALSE(sys::parsePrecisionList("int8,int8", widths, error));
    EXPECT_FALSE(sys::parsePrecisionList("", widths, error));
    EXPECT_FALSE(sys::parsePrecisionList("int9", widths, error));
}

// The satellite bugfix: neighbor() used to sample ANY dimension and
// step it, so a size-1 dimension produced a self-move - a wasted
// annealer proposal. Size-1 dimensions must now never be picked, and
// the proposal must always differ from the input.
TEST(QuantizedSpace, NeighborNeverSelfMovesThroughSizeOneDims)
{
    const dse::DesignSpace space; // Precision dim has exactly 1 choice.
    util::Rng rng(0x5EED);
    for (int i = 0; i < 500; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::Encoding next = space.neighbor(encoding, rng);
        EXPECT_NE(next, encoding); // Never a self-move.
        EXPECT_EQ(next[dse::precisionDim], 0); // Pinned dim untouched.
        int changed = 0;
        for (std::size_t d = 0; d < dse::designDims; ++d)
            changed += next[d] != encoding[d];
        EXPECT_EQ(changed, 1); // Exactly one dimension stepped.
    }
}

TEST(QuantizedSpace, NeighborReachesTheWidenedPrecisionDim)
{
    const dse::DesignSpace space({1, 2, 4});
    util::Rng rng(0x5EED);
    int precision_moves = 0;
    for (int i = 0; i < 500; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::Encoding next = space.neighbor(encoding, rng);
        EXPECT_NE(next, encoding);
        precision_moves +=
            next[dse::precisionDim] != encoding[dse::precisionDim];
    }
    EXPECT_GT(precision_moves, 0); // ~1/8 of proposals on average.
}

TEST(QuantizedSpace, SizeOneDimsContributeZeroGpFeature)
{
    const dse::DesignSpace space;
    util::Rng rng(0xF0);
    const auto features = space.features(space.randomEncoding(rng));
    ASSERT_EQ(features.size(), dse::designDims);
    EXPECT_EQ(features[dse::precisionDim], 0.0);
}

// --------------------------------------------------------- power ----

TEST(QuantizedPower, PrecisionEnergyScaleIsExactlySquaredWidth)
{
    EXPECT_EQ(pw::PeModel::precisionEnergyScale(1), 1.0);
    EXPECT_EQ(pw::PeModel::precisionEnergyScale(2), 4.0);
    EXPECT_EQ(pw::PeModel::precisionEnergyScale(4), 16.0);
}

TEST(QuantizedPower, Int8MacEnergyIsBitIdenticalToLegacy)
{
    const pw::PeModel model;
    // The pre-precision macEnergyPj() took no width argument; the
    // int8 path must reproduce it exactly (x1.0, not merely close).
    EXPECT_EQ(model.macEnergyPj(1), model.macEnergyPj());
    EXPECT_EQ(model.macEnergyPj(2), 4.0 * model.macEnergyPj());
    EXPECT_EQ(model.macEnergyPj(4), 16.0 * model.macEnergyPj());
}

// The cross-layer property the cost-accounting bugfix exists for:
// every cost path the element width touches must respond to it. Before
// the fix, bytesPerElement scaled DRAM traffic but the MAC and SRAM
// energies silently kept their int8 values.
TEST(QuantizedPower, EveryCostPathRespondsToPrecision)
{
    nn::PolicyHyperParams params;
    params.numConvLayers = 4;
    params.numFilters = 32;
    const nn::Model model = nn::buildE2EModel(params);

    util::Rng rng(0xC057);
    const sys::HardwareSpace hw;
    for (int trial = 0; trial < 10; ++trial) {
        sys::AcceleratorConfig config;
        config.peRows = hw.peRowChoices[rng.index(hw.peRowChoices.size())];
        config.peCols = hw.peColChoices[rng.index(hw.peColChoices.size())];
        config.ifmapSramKb =
            hw.sramKbChoices[rng.index(hw.sramKbChoices.size())];
        config.filterSramKb =
            hw.sramKbChoices[rng.index(hw.sramKbChoices.size())];
        config.ofmapSramKb =
            hw.sramKbChoices[rng.index(hw.sramKbChoices.size())];

        double prev_dram = -1.0, prev_mac = -1.0, prev_sram = -1.0;
        std::int64_t prev_cycles = -1;
        for (const int width : {1, 2, 4}) {
            config.bytesPerElement = width;
            const sys::AnalyticalEngine engine(config);
            const sys::RunResult run = engine.run(model);
            const pw::NpuPowerModel power(config);
            const pw::NpuPowerBreakdown breakdown =
                power.estimate(run);
            const double seconds = run.runtimeSeconds(config.clockGhz);
            const double mac_j = breakdown.peDynamicW * seconds;
            const double sram_j = breakdown.sramDynamicW * seconds;
            const double dram_bytes =
                double(run.traffic.totalDramBytes());

            EXPECT_GT(dram_bytes, prev_dram) << config.name();
            EXPECT_GT(mac_j, prev_mac) << config.name();
            EXPECT_GT(sram_j, prev_sram) << config.name();
            // Fold occupancy: wider elements shrink the per-tile
            // element budget, so the schedule can only get longer.
            EXPECT_GE(run.totalCycles, prev_cycles) << config.name();

            prev_dram = dram_bytes;
            prev_mac = mac_j;
            prev_sram = sram_j;
            prev_cycles = run.totalCycles;
        }
    }
}

// ----------------------------------------------------- surrogate ----

TEST(QuantizedSurrogate, Int8ReturnsPhase1SuccessVerbatim)
{
    nn::PolicyHyperParams params;
    params.numConvLayers = 3;
    params.numFilters = 24;
    const double base = 0.7351234567891234;
    EXPECT_EQ(al::quantizedSuccessRate(base, params, 1), base);
}

TEST(QuantizedSurrogate, WiderOperandsRecoverThePenaltyMonotonically)
{
    nn::PolicyHyperParams params;
    params.numConvLayers = 4;
    params.numFilters = 32;
    const double base = 0.6;
    const double fp16 = al::quantizedSuccessRate(base, params, 2);
    const double fp32 = al::quantizedSuccessRate(base, params, 4);
    EXPECT_GT(fp16, base);
    EXPECT_GT(fp32, fp16);
    EXPECT_NEAR(fp32 - base, al::quantizationPenalty(params), 1e-12);
    EXPECT_NEAR(fp16 - base, 0.75 * al::quantizationPenalty(params),
                1e-12);
}

TEST(QuantizedSurrogate, SuccessRateClampsAtOne)
{
    nn::PolicyHyperParams params;
    params.numConvLayers = 2;
    params.numFilters = 16;
    EXPECT_LE(al::quantizedSuccessRate(0.999, params, 4), 1.0);
    EXPECT_EQ(al::quantizedSuccessRate(1.0, params, 4), 1.0);
}

TEST(QuantizedSurrogate, PenaltyShrinksWithModelCapacity)
{
    nn::PolicyHyperParams small;
    small.numConvLayers = 2;
    small.numFilters = 16;
    nn::PolicyHyperParams large;
    large.numConvLayers = 10;
    large.numFilters = 64;
    EXPECT_GT(al::quantizationPenalty(small),
              al::quantizationPenalty(large));
}

// ------------------------------------------------------- backend ----

TEST(QuantizedBackend, RegisteredInTheBackendRegistry)
{
    auto &registry = dse::BackendRegistry::instance();
    EXPECT_TRUE(registry.knows("quantized"));
    auto backend = registry.create("quantized", sharedContext());
    EXPECT_EQ(backend->name(), "quantized");
    EXPECT_EQ(backend->fidelity(), dse::Fidelity::Analytical);
}

TEST(QuantizedBackend, NumbersMatchAnalyticalBitForBit)
{
    dse::AnalyticalBackend analytical(sharedContext());
    dse::QuantizedBackend quantized(sharedContext());
    const dse::DesignSpace space({1, 2, 4});
    util::Rng rng(0xAB);
    for (int i = 0; i < 30; ++i) {
        const dse::DesignPoint point =
            space.decode(space.randomEncoding(rng));
        const dse::Evaluation a = analytical.evaluate(point);
        const dse::Evaluation q = quantized.evaluate(point);
        EXPECT_EQ(a.successRate, q.successRate);
        EXPECT_EQ(a.npuPowerW, q.npuPowerW);
        EXPECT_EQ(a.socPowerW, q.socPowerW);
        EXPECT_EQ(a.latencyMs, q.latencyMs);
        EXPECT_EQ(a.fps, q.fps);
        EXPECT_EQ(a.objectives, q.objectives);
    }
}

TEST(QuantizedBackend, BatchPathBitIdenticalToScalarAtEveryPrecision)
{
    dse::QuantizedBackend backend(sharedContext());
    const dse::DesignSpace space({1, 2, 4});
    util::Rng rng(0xBA7C);
    std::vector<dse::DesignPoint> points;
    bool saw_wide = false;
    while (points.size() < 48) {
        const dse::DesignPoint point =
            space.decode(space.randomEncoding(rng));
        saw_wide = saw_wide || point.accel.bytesPerElement > 1;
        points.push_back(point);
    }
    ASSERT_TRUE(saw_wide); // The batch must exercise fp16/fp32 rows.

    std::vector<dse::Evaluation> batched(points.size());
    util::ThreadPool pool(4);
    backend.evaluateBatch(points, &pool,
                          [&](std::size_t i, dse::Evaluation &&eval) {
                              batched[i] = std::move(eval);
                          });
    for (std::size_t i = 0; i < points.size(); ++i) {
        const dse::Evaluation scalar = backend.evaluate(points[i]);
        EXPECT_EQ(scalar.successRate, batched[i].successRate) << i;
        EXPECT_EQ(scalar.npuPowerW, batched[i].npuPowerW) << i;
        EXPECT_EQ(scalar.socPowerW, batched[i].socPowerW) << i;
        EXPECT_EQ(scalar.latencyMs, batched[i].latencyMs) << i;
        EXPECT_EQ(scalar.fps, batched[i].fps) << i;
        EXPECT_EQ(scalar.objectives, batched[i].objectives) << i;
        EXPECT_EQ(batched[i].backend, "quantized");
    }
}

TEST(QuantizedBackend, WiderPrecisionRaisesSuccessAndEnergy)
{
    dse::QuantizedBackend backend(sharedContext());
    const dse::DesignSpace space({1, 2, 4});
    dse::Encoding encoding{};
    encoding[0] = 1;
    encoding[1] = 1;
    double prev_success = -1.0, prev_energy = -1.0;
    for (int idx = 0; idx < 3; ++idx) {
        encoding[dse::precisionDim] = idx;
        const dse::Evaluation eval =
            backend.evaluate(space.decode(encoding));
        EXPECT_GE(eval.successRate, prev_success);
        EXPECT_GT(eval.npuPowerW * eval.latencyMs, prev_energy);
        prev_success = eval.successRate;
        prev_energy = eval.npuPowerW * eval.latencyMs;
    }
}

// ----------------------------------------------------- evaluator ----

TEST(QuantizedEvaluator, StampsPrecisionLabelsOnlyWhenAxisEnabled)
{
    dse::DseEvaluator pinned(sharedDatabase(),
                             al::ObstacleDensity::Dense, "quantized");
    const dse::Evaluation &legacy =
        pinned.evaluate(dse::Encoding{1, 1, 1, 1, 1, 1, 1, 0});
    EXPECT_EQ(legacy.precision, "-");

    dse::DseEvaluator widened(sharedDatabase(),
                              al::ObstacleDensity::Dense, "quantized",
                              {}, {}, {1, 2, 4});
    const char *expected[] = {"int8", "fp16", "fp32"};
    for (int idx = 0; idx < 3; ++idx) {
        const dse::Evaluation &eval = widened.evaluate(
            dse::Encoding{1, 1, 1, 1, 1, 1, 1, idx});
        EXPECT_EQ(eval.precision, expected[idx]);
        EXPECT_EQ(eval.point.accel.bytesPerElement,
                  widened.space().precisionChoices()[idx]);
    }
}

TEST(QuantizedEvaluator, CountsSimulatedPointsPerPrecision)
{
    // The per-width counters cover the points a "quantized" evaluator
    // sends to its backend: cache hits and other backends add nothing.
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);
    dse::DseEvaluator widened(sharedDatabase(),
                              al::ObstacleDensity::Dense, "quantized",
                              {}, {}, {1, 2, 4});
    const std::vector<dse::Encoding> batch = {
        {1, 1, 1, 1, 1, 1, 1, 0}, {1, 1, 1, 1, 1, 1, 1, 1},
        {1, 1, 1, 1, 1, 1, 1, 1}, {2, 1, 1, 1, 1, 1, 1, 1},
        {1, 1, 1, 1, 1, 1, 1, 2}, {1, 1, 1, 1, 1, 1, 1, 0}};
    widened.evaluateBatch(batch);
    widened.evaluateBatch(batch); // All hits.
    dse::DseEvaluator analytical(sharedDatabase(),
                                 al::ObstacleDensity::Dense, "analytical",
                                 {}, {}, {1, 2, 4});
    analytical.evaluateBatch(batch);

    util::MetricsRegistry &metrics = telemetry.metrics();
    EXPECT_EQ(metrics.counter("dse.quantized.int8.points").value(), 1u);
    EXPECT_EQ(metrics.counter("dse.quantized.fp16.points").value(), 2u);
    EXPECT_EQ(metrics.counter("dse.quantized.fp32.points").value(), 1u);
    telemetry.reset();
    telemetry.setEnabled(false);
}

// --------------------------------------------------- fingerprint ----

TEST(QuantizedFingerprint, DefaultPrecisionSetLeavesFingerprintAlone)
{
    core::TaskSpec legacy;
    core::TaskSpec explicit_default;
    explicit_default.precisions = {1};
    EXPECT_EQ(core::taskFingerprint(legacy),
              core::taskFingerprint(explicit_default));

    core::TaskSpec widened;
    widened.precisions = {1, 2, 4};
    EXPECT_NE(core::taskFingerprint(legacy),
              core::taskFingerprint(widened));

    core::TaskSpec fp16_only;
    fp16_only.precisions = {1, 2};
    EXPECT_NE(core::taskFingerprint(widened),
              core::taskFingerprint(fp16_only));
}

// ------------------------------------------------------- journal ----

// The resume-identity satellite: a pre-precision journal (legacy
// 17-column layout, written before the precision axis existed) must
// replay into a default-precision evaluator and produce byte-identical
// journal bytes at 1, 2 and 4 worker threads.
TEST(QuantizedJournal, LegacyJournalResumesByteIdenticallyAcrossThreads)
{
    const fs::path dir =
        fs::temp_directory_path() / "autopilot_quantized_journal";
    fs::remove_all(dir);
    fs::create_directories(dir);

    util::Rng rng(0x10AD);
    const dse::DesignSpace space;
    std::vector<dse::Encoding> encodings;
    std::set<dse::Encoding> seen;
    while (encodings.size() < 24) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            encodings.push_back(encoding);
    }

    // Reference run: no journal, single thread. Its archive rows are
    // what every resumed variant must reproduce.
    std::string golden;
    {
        dse::DseEvaluator evaluator(sharedDatabase(),
                                    al::ObstacleDensity::Dense);
        evaluator.evaluateBatch(encodings);
        std::stringstream buffer;
        io::writeDseArchive(evaluator.allEvaluations(), buffer);
        golden = buffer.str();
    }

    // A "pre-precision" journal: the default layout writer emits
    // exactly the legacy 17-column rows (no precision column), so a
    // journal written today with the default precision set IS the
    // legacy file format.
    const fs::path legacyJournal = dir / "journal.csv";
    {
        dse::DseEvaluator evaluator(sharedDatabase(),
                                    al::ObstacleDensity::Dense);
        io::EvalJournalWriter writer(legacyJournal.string(), 0xABCDu);
        evaluator.setJournalSink(
            [&](std::span<const dse::Evaluation> batch) {
                writer.append(batch);
            });
        evaluator.evaluateBatch(
            std::span<const dse::Encoding>(encodings.data(), 12));
    }
    const std::string legacyBytes = fileBytes(legacyJournal);
    EXPECT_EQ(legacyBytes.find("precision"), std::string::npos);

    // Resume from the legacy prefix at several thread counts; the
    // rewritten journal must carry the replayed rows byte-identically
    // and the final archive must equal the uninterrupted single-thread
    // run.
    for (const int threads : {1, 2, 4}) {
        const io::JournalReplay replay =
            io::readEvalJournal(legacyJournal.string());
        ASSERT_TRUE(replay.found);
        EXPECT_FALSE(replay.truncated);
        ASSERT_EQ(replay.entries.size(), 12u);

        const fs::path resumed =
            dir / ("resumed_" + std::to_string(threads) + ".csv");
        dse::DseEvaluator evaluator(sharedDatabase(),
                                    al::ObstacleDensity::Dense);
        util::ThreadPool pool(threads);
        evaluator.setThreadPool(&pool);
        evaluator.preload(replay.entries);
        io::EvalJournalWriter writer(resumed.string(), 0xABCDu,
                                     replay.entries);
        evaluator.setJournalSink(
            [&](std::span<const dse::Evaluation> batch) {
                writer.append(batch);
            });
        evaluator.evaluateBatch(encodings);

        // Replayed prefix rewritten byte-identically...
        EXPECT_EQ(fileBytes(resumed).substr(0, legacyBytes.size()),
                  legacyBytes)
            << "threads=" << threads;
        // ...and the completed archive matches the uninterrupted run.
        std::stringstream buffer;
        io::writeDseArchive(evaluator.allEvaluations(), buffer);
        EXPECT_EQ(buffer.str(), golden) << "threads=" << threads;
    }
    fs::remove_all(dir);
}

TEST(QuantizedJournal, PrecisionJournalRoundTripsAndResumes)
{
    const fs::path dir =
        fs::temp_directory_path() / "autopilot_precision_journal";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path path = dir / "journal.csv";

    const std::vector<int> widths = {1, 2, 4};
    util::Rng rng(0xFEED);
    const dse::DesignSpace space(widths);
    std::vector<dse::Encoding> encodings;
    std::set<dse::Encoding> seen;
    while (encodings.size() < 18) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            encodings.push_back(encoding);
    }

    std::string firstBytes;
    {
        dse::DseEvaluator evaluator(sharedDatabase(),
                                    al::ObstacleDensity::Dense,
                                    "quantized", {}, {}, widths);
        io::EvalJournalWriter writer(path.string(), 0x9u, {}, true);
        evaluator.setJournalSink(
            [&](std::span<const dse::Evaluation> batch) {
                writer.append(batch);
            });
        evaluator.evaluateBatch(encodings);
        firstBytes = fileBytes(path);
    }
    // The precision layout announces itself in the header and labels
    // every row.
    EXPECT_NE(firstBytes.find(",precision\n"), std::string::npos);

    const io::JournalReplay replay = io::readEvalJournal(path.string());
    ASSERT_TRUE(replay.found);
    EXPECT_FALSE(replay.truncated);
    ASSERT_EQ(replay.entries.size(), encodings.size());
    for (const dse::Evaluation &eval : replay.entries) {
        int width = 0;
        ASSERT_TRUE(sys::precisionFromName(eval.precision, width));
        EXPECT_EQ(eval.point.accel.bytesPerElement, width);
    }

    // Resume: preload re-encodes the labelled rows through the widened
    // space, and the rewritten journal reproduces the original bytes.
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense, "quantized",
                                {}, {}, widths);
    evaluator.preload(replay.entries);
    const fs::path resumed = dir / "resumed.csv";
    io::EvalJournalWriter writer(resumed.string(), 0x9u, replay.entries,
                                 true);
    EXPECT_EQ(fileBytes(resumed), firstBytes);
    // Every replayed point is a cache hit that still counts as fresh
    // exactly once (optimizer budget parity on resume).
    const auto results = evaluator.evaluateBatch(encodings);
    for (const dse::BatchResult &result : results)
        EXPECT_TRUE(result.fresh);
    fs::remove_all(dir);
}

TEST(QuantizedJournal, TornPrecisionTailTruncatesCleanly)
{
    const fs::path dir =
        fs::temp_directory_path() / "autopilot_precision_torn";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path path = dir / "journal.csv";

    const dse::DesignSpace space({1, 2, 4});
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense, "quantized",
                                {}, {}, {1, 2, 4});
    {
        io::EvalJournalWriter writer(path.string(), 0x70A7u, {}, true);
        evaluator.setJournalSink(
            [&](std::span<const dse::Evaluation> batch) {
                writer.append(batch);
            });
        evaluator.evaluateBatch(std::vector<dse::Encoding>{
            dse::Encoding{0, 0, 0, 0, 0, 0, 0, 0},
            dse::Encoding{1, 1, 1, 1, 1, 1, 1, 1},
            dse::Encoding{0, 1, 0, 1, 0, 1, 0, 2}});
    }
    // Tear the final row mid-field, as a kill mid-write would.
    std::string bytes = fileBytes(path);
    bytes.resize(bytes.size() - 9);
    std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;

    const io::JournalReplay replay = io::readEvalJournal(path.string());
    ASSERT_TRUE(replay.found);
    EXPECT_TRUE(replay.truncated);
    EXPECT_EQ(replay.entries.size(), 2u);
    EXPECT_EQ(replay.entries[1].precision, "fp16");
    fs::remove_all(dir);
}
