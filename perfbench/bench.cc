/**
 * @file
 * End-to-end benchmark program.
 *
 * Runs one workload through the public entry points (core::AutoPilot
 * for the pipeline workloads, runner::CampaignService for service-mix),
 * checks the outputs, and prints every metric by name as the last line
 * of stdout:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * Usage:
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --workdir <dir> [--source <id>]
 *   perfbench --selftest decorator --workdir <dir>
 *
 * --trace 0 measures the end-to-end metrics with telemetry off. --trace
 * 1 runs every unit twice, untraced and then traced (telemetry on plus
 * a timing decorator around each cost-model backend), checks that both
 * produce the same results, and prints the per-layer split. The layer
 * split is taken from outside the program: timed calls into each
 * layer's public functions, plus the counters, histograms and spans the
 * program already emits when telemetry is on.
 *
 * A run is a fixed number of units derived from --seconds (never from
 * the measured speed), so two builds of the program see exactly the same
 * inputs and the same simulated work for a given seed.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/autopilot.h"
#include "dram/config.h"
#include "dse/eval_backend.h"
#include "dse/hypervolume.h"
#include "io/journal.h"
#include "runner/service.h"
#include "uav/uav_spec.h"
#include "util/telemetry.h"

namespace
{

using namespace autopilot;
namespace fs = std::filesystem;

// Reference point of front_hv: {1 - success, SoC W, latency ms}.
const dse::Objectives kReference = {1.0, 12.0, 120.0};

// Service-mix knobs. Two active campaigns (each on its own thread,
// which also runs parallel_for work) plus one pool worker keep at most
// three busy threads. The poll interval is small against a campaign's
// length (~0.3-1 s), so admission after a finish is not delayed by a
// poll tick.
constexpr int kServiceActive = 2;
constexpr int kServicePoolThreads = 1;
constexpr double kServicePollS = 0.005;
constexpr int kServiceEpisodes = 40;

/* ------------------------------------------------------------------ */
/* Clocks and seeds                                                    */
/* ------------------------------------------------------------------ */

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
realtimeS()
{
    timespec ts{};
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
cpuS()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Restart the kernel's peak-RSS mark (VmHWM) from the current RSS, so
/// the next unit's peak is its own and not the largest of the run. Free
/// heap pages that earlier units left in malloc arenas are returned
/// first; otherwise that retained memory, which depends on how earlier
/// threads fragmented the arenas, sets the baseline.
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS since the last resetPeakRss(); the process-lifetime
/// ru_maxrss where /proc is unavailable.
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // KiB -> MiB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// splitmix64 over (seed, salt): every campaign seed derives from the
/// benchmark seed.
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total;
}

bool
positiveFinite(double value)
{
    return std::isfinite(value) && value > 0.0;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/* ------------------------------------------------------------------ */
/* Timing decorator for EvalBackend (traced runs only)                 */
/* ------------------------------------------------------------------ */

/// Totals of every decorated evaluateBatch call in the process.
struct BackendTally
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> points{0};
    std::atomic<std::uint64_t> batches{0};

    void reset()
    {
        ns = 0;
        points = 0;
        batches = 0;
    }
};

BackendTally gTally;
/// Backends created while this is set come wrapped in TimedBackend.
std::atomic<bool> gDecorate{false};

/**
 * Result-inert wrapper: forwards every call to the concrete backend and
 * times evaluateBatch. name() is the inner name, so archives and task
 * fingerprints are unchanged.
 */
class TimedBackend : public dse::EvalBackend
{
  public:
    explicit TimedBackend(std::unique_ptr<dse::EvalBackend> inner)
        : inner(std::move(inner))
    {
    }

    std::string name() const override { return inner->name(); }
    dse::Fidelity fidelity() const override { return inner->fidelity(); }

    dse::Evaluation evaluate(const dse::DesignPoint &point) override
    {
        return inner->evaluate(point);
    }

    void evaluateBatch(std::span<const dse::DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override
    {
        const auto start = std::chrono::steady_clock::now();
        inner->evaluateBatch(points, pool, commit);
        const auto elapsed = std::chrono::steady_clock::now() - start;
        gTally.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count());
        gTally.points += points.size();
        gTally.batches += 1;
    }

    void warmStart(std::span<const dse::Evaluation> replayed) override
    {
        inner->warmStart(replayed);
    }

  private:
    std::unique_ptr<dse::EvalBackend> inner;
};

/// Register @p name to build the concrete @p Backend, wrapped in a
/// TimedBackend while gDecorate is set.
template <typename Backend>
void
decorate(const std::string &name)
{
    dse::BackendRegistry::instance().registerFactory(
        name,
        [](const dse::BackendContext &context)
            -> std::unique_ptr<dse::EvalBackend> {
            auto backend = std::make_unique<Backend>(context);
            if (!gDecorate)
                return backend;
            return std::make_unique<TimedBackend>(std::move(backend));
        });
}

/// Install the decorator over every in-tree backend name.
void
installTimingDecorator()
{
    decorate<dse::AnalyticalBackend>("analytical");
    decorate<dse::QuantizedBackend>("quantized");
    decorate<dse::CycleBackend>("cycle");
    decorate<dse::TieredBackend>("tiered");
    decorate<dse::ContentionBackend>("contention");
    decorate<dse::DramBackend>("dram");
}

/// Switch telemetry and the timing decorator on or off; a traced pass
/// turns both on, starting from zeroed counters.
void
setTracing(bool telemetryOn, bool decorate)
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    if (telemetryOn)
        telemetry.reset();
    if (decorate)
        gTally.reset();
    telemetry.setEnabled(telemetryOn);
    gDecorate = decorate;
}

/* ------------------------------------------------------------------ */
/* Per-layer samples                                                   */
/* ------------------------------------------------------------------ */

using Layers = std::map<std::string, double>;

double
spanTotalS(const std::vector<util::TraceEvent> &events,
           const std::string &name)
{
    std::int64_t us = 0;
    for (const util::TraceEvent &event : events)
        if (event.name == name)
            us += event.durationUs;
    return static_cast<double>(us) * 1e-6;
}

std::size_t
spanCount(const std::vector<util::TraceEvent> &events,
          const std::string &name)
{
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [&](const util::TraceEvent &event) {
                          return event.name == name;
                      }));
}

/// Layer figures read from the decorator tally and the program's own
/// telemetry after a traced unit.
void
collectTelemetry(Layers &layers)
{
    const util::MetricsRegistry &metrics =
        util::Telemetry::instance().metrics();
    auto count = [&](const std::string &name) {
        return static_cast<double>(metrics.find(name).count);
    };
    auto histSum = [&](const std::string &name) {
        return metrics.find(name).sum;
    };

    layers["dse.backend_s"] = static_cast<double>(gTally.ns.load()) * 1e-9;
    layers["dse.backend_points"] = static_cast<double>(gTally.points);
    layers["dse.backend_batches"] = static_cast<double>(gTally.batches);

    layers["bo.screen_s"] = histSum("bo.screen_s");
    layers["bo.fit_gp_s"] = histSum("bo.fit_gp_s");
    layers["dse.hv_update_s"] = histSum("dse.hv_update_s");
    layers["bo.iterations"] = count("bo.iterations");
    layers["dse.cache.hit"] = count("dse.cache.hit");
    layers["dse.cache.miss"] = count("dse.cache.miss");
    layers["dse.tiered.screened"] = count("dse.tiered.screened");
    layers["dse.tiered.promoted"] = count("dse.tiered.promoted");

    layers["systolic.cycle.layers"] = count("systolic.cycle.layers");
    layers["systolic.cycle.cycles"] = count("systolic.cycle.cycles");

    layers["dse.dram.row_hits"] = count("dse.dram.row_hits");
    layers["dse.dram.row_misses"] = count("dse.dram.row_misses");
    layers["dse.dram.row_conflicts"] = count("dse.dram.row_conflicts");
    layers["dram.layers"] = count("dram.layers");
    layers["dram.layer_sim_s"] = histSum("dram.layer_sim_s");

    layers["io.journal.rows"] = count("io.journal.rows");
    layers["io.journal.batches"] = count("io.journal.batches");

    layers["pool.tasks"] = count("pool.tasks");
    layers["pool.steals"] = count("pool.steals");
    const util::MetricSample wait = metrics.find("pool.queue_wait_s");
    layers["pool.queue_wait_s"] = wait.sum;
    layers["pool.queue_waits"] = static_cast<double>(wait.count);
    layers["pool.task_run_s"] = histSum("pool.task_run_s");
}

/* ------------------------------------------------------------------ */
/* Units                                                               */
/* ------------------------------------------------------------------ */

/// What one unit (a pipeline, or a service round) measured.
struct Unit
{
    double setupS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double freshEvals = 0.0;
    double peakRssMb = 0.0;
    std::vector<double> turnaroundsS; ///< One per campaign.
    std::vector<double> frontHv;      ///< One per campaign.
    std::vector<double> missions;     ///< One per campaign.
    std::size_t campaigns = 0;
    std::size_t failedCampaigns = 0;
    std::vector<std::string> problems;
    /// Result fingerprint compared across the untraced/traced pair:
    /// archive objectives or result-file bytes.
    std::string results;
    Layers layers;
};

struct PipelineShape
{
    std::string optimizer;
    std::string backend;
    int budget = 0;
    int episodes = 0;
    double nominalUnitS = 0.0; ///< Sizes a run from --seconds.
};

std::string
objectivesBytes(const dse::OptimizerResult &result)
{
    std::string bytes;
    for (const dse::Evaluation &evaluation : result.archive)
        for (const double value : evaluation.objectives)
            bytes.append(reinterpret_cast<const char *>(&value),
                         sizeof value);
    return bytes;
}

core::TaskSpec
pipelineTask(const PipelineShape &shape, std::uint64_t seed)
{
    core::TaskSpec task;
    task.density = airlearning::ObstacleDensity::Dense;
    task.validationEpisodes = shape.episodes;
    task.dseBudget = shape.budget;
    task.optimizer = shape.optimizer;
    task.backend = shape.backend;
    task.threads = 1;
    task.seed = seed;
    if (shape.backend == "dram")
        task.dram = dram::uavDramSpec(dram::DramTiming{}, 400e6, 200e6);
    return task;
}

/// One quickstart-shaped pipeline: Phase 1 is set-up, Phases 2 and 3
/// are the timed section.
Unit
runPipeline(const PipelineShape &shape, std::uint64_t seed, bool traced,
            bool decorate)
{
    Unit unit;
    unit.campaigns = 1;
    setTracing(traced, decorate);
    resetPeakRss();

    const double t0 = nowS();
    core::AutoPilot pilot(pipelineTask(shape, seed));
    const airlearning::PolicyDatabase &database = pilot.phase1();
    const double t1 = nowS();
    const double cpu1 = cpuS();
    const dse::OptimizerResult &result = pilot.phase2();
    const double t2 = nowS();
    const core::AutoPilotRun run = pilot.designFor(uav::zhangNano());
    const double t3 = nowS();
    const double cpu3 = cpuS();

    if (traced) {
        collectTelemetry(unit.layers);
        Layers &layers = unit.layers;
        layers["airlearning.phase1_s"] = t1 - t0;
        layers["airlearning.rollouts"] =
            static_cast<double>(database.size()) * shape.episodes;
        layers["dse.phase2_s"] = t2 - t1;
        layers["core.phase3_s"] = t3 - t2;
        layers["core.candidates"] =
            static_cast<double>(run.candidates.size());
        layers["runner.campaigns"] = 1.0;
        layers["runner.turnaround_max_s"] = t3 - t0;
    }
    setTracing(false, false);

    unit.setupS = t1 - t0;
    unit.wallS = t3 - t1;
    unit.cpuS = cpu3 - cpu1;
    unit.peakRssMb = peakRssMb();
    unit.freshEvals = static_cast<double>(result.archive.size());
    unit.turnaroundsS = {t3 - t0};
    unit.frontHv = {result.finalHypervolume(kReference)};
    unit.missions = {run.selected.missionScore()};
    unit.results = objectivesBytes(result);

    if (result.archive.size() != static_cast<std::size_t>(shape.budget))
        unit.problems.push_back(
            "archive size " + std::to_string(result.archive.size()) +
            " != budget " + std::to_string(shape.budget));
    if (!unit.problems.empty())
        unit.failedCampaigns = 1;
    return unit;
}

/* ------------------------------------------------------------------ */
/* service-mix                                                         */
/* ------------------------------------------------------------------ */

struct Submission
{
    std::string id;
    std::string tenant;
    std::string optimizer;
    std::string backend;
    std::string density;
    int budget = 0;
    std::string extra; ///< Additional JSON members, with leading comma.
};

/// The closed batch: two tenants, the optimizers {bo, nsga2, sa, random}
/// across the backends {analytical, tiered, cycle, dram}, one fixed-wing
/// airframe. The costly cycle and dram tiers go to random search, whose
/// cost per campaign varies least with the seed. The first entry is the
/// campaign the service must recover from a journal prefix.
std::vector<Submission>
serviceBatch()
{
    const std::string dramKeys =
        ", \"camera_mbps\": 400, \"host_mbps\": 200";
    return {
        {"bravo-nsga2-tiered", "bravo", "nsga2", "tiered", "dense", 48, ""},
        {"alpha-bo-analytical", "alpha", "bo", "analytical", "dense", 40,
         ""},
        {"alpha-sa-tiered", "alpha", "sa", "tiered", "medium", 48, ""},
        {"alpha-random-dram", "alpha", "random", "dram", "dense", 32,
         dramKeys},
        {"alpha-nsga2-analytical-fw", "alpha", "nsga2", "analytical",
         "medium", 48, ", \"airframe\": \"fixed-wing\""},
        {"bravo-bo-tiered", "bravo", "bo", "tiered", "medium", 32, ""},
        {"bravo-random-cycle", "bravo", "random", "cycle", "dense", 64, ""},
        {"bravo-sa-analytical", "bravo", "sa", "analytical", "medium", 48,
         ""},
    };
}

std::string
submissionJson(const Submission &sub, std::uint64_t seed)
{
    std::ostringstream os;
    os << "{\"tenant\": \"" << sub.tenant << "\", \"optimizer\": \""
       << sub.optimizer << "\", \"backend\": \"" << sub.backend
       << "\", \"density\": \"" << sub.density
       << "\", \"budget\": " << sub.budget
       << ", \"episodes\": " << kServiceEpisodes
       << ", \"seed\": " << seed % 1000000000ULL << sub.extra << "}\n";
    return os.str();
}

runner::ServiceConfig
serviceConfig(const fs::path &root, int activeCampaigns, int poolThreads,
              int maxCampaigns)
{
    runner::ServiceConfig config;
    config.rootDir = root.string();
    config.maxActiveCampaigns = activeCampaigns;
    config.poolThreads = poolThreads;
    config.pollSeconds = kServicePollS;
    config.maxCampaigns = maxCampaigns;
    return config;
}

fs::path
journalPath(const fs::path &root, const std::string &id)
{
    return root / "work" / id / id / "journal.csv";
}

/// Missions column of a campaign result file (printCampaignReport); NaN
/// when the file has no succeeded row for @p id.
double
resultMissions(const std::string &text, const std::string &id)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::vector<std::string> cells;
        std::string cell;
        while (fields >> cell)
            cells.push_back(cell);
        if (cells.size() >= 7 && cells[0] == id && cells[1] == "ok")
            return std::atof(cells[6].c_str());
    }
    return std::nan("");
}

/**
 * One service round. Set-up: a fresh root tree, a reference run of the
 * recovered campaign on a side service, the main service (pool start),
 * the submission files and the recovered campaign's journal prefix.
 * Timed section: serve() over the closed batch.
 */
Unit
runServiceRound(const fs::path &root, std::uint64_t seed, bool traced)
{
    Unit unit;
    const std::vector<Submission> batch = serviceBatch();
    const Submission &recovered = batch.front();
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < batch.size(); ++i)
        seeds.push_back(deriveSeed(seed, i));

    fs::remove_all(root);
    setTracing(false, false); // The reference run is set-up: untraced.
    resetPeakRss();

    const double t0 = nowS();
    fs::create_directories(root);
    const fs::path refRoot = root / "reference";
    {
        runner::CampaignService reference(serviceConfig(refRoot, 1, 1, 1));
        writeFile(refRoot / "inbox" / (recovered.id + ".json"),
                  submissionJson(recovered, seeds[0]));
        reference.serve();
    }
    const std::string referenceResult =
        readFile(refRoot / "results" / (recovered.id + ".result"));
    // The state a SIGKILL mid-Phase 2 leaves behind: the policy
    // checkpoint plus the first half of the journal's rows.
    std::vector<std::string> journalLines;
    {
        std::istringstream in(readFile(journalPath(refRoot, recovered.id)));
        std::string line;
        while (std::getline(in, line))
            journalLines.push_back(line);
    }
    const std::size_t totalRows =
        journalLines.size() >= 2 ? journalLines.size() - 2 : 0;
    const std::size_t replayedRows = totalRows / 2;

    const fs::path svcRoot = root / "service";
    runner::CampaignService service(serviceConfig(
        svcRoot, kServiceActive, kServicePoolThreads,
        static_cast<int>(batch.size())));
    for (std::size_t i = 1; i < batch.size(); ++i)
        writeFile(svcRoot / "inbox" / (batch[i].id + ".json"),
                  submissionJson(batch[i], seeds[i]));
    writeFile(svcRoot / "active" / (recovered.id + ".json"),
              submissionJson(recovered, seeds[0]));
    const fs::path recoveredWork = svcRoot / "work" / recovered.id /
                                   recovered.id;
    fs::create_directories(recoveredWork);
    fs::copy_file(refRoot / "work" / recovered.id / recovered.id /
                      "policies.chk",
                  recoveredWork / "policies.chk");
    const auto checkpointStamp =
        fs::last_write_time(recoveredWork / "policies.chk");
    {
        std::string prefix;
        for (std::size_t i = 0; i < 2 + replayedRows; ++i)
            prefix += journalLines[i] + "\n";
        writeFile(recoveredWork / "journal.csv", prefix);
    }
    const double t1 = nowS();

    setTracing(traced, traced);
    const double serveRealtime = realtimeS();
    const double cpu1 = cpuS();
    const runner::ServiceReport report = service.serve();
    const double t2 = nowS();
    const double cpu2 = cpuS();
    if (traced) {
        collectTelemetry(unit.layers);
        const std::vector<util::TraceEvent> events =
            util::Telemetry::instance().trace().events();
        Layers &layers = unit.layers;
        layers["airlearning.phase1_s"] = spanTotalS(events, "phase1");
        layers["airlearning.rollouts"] = static_cast<double>(
            spanCount(events, "phase1.train_policy") * kServiceEpisodes);
        layers["dse.phase2_s"] = spanTotalS(events, "phase2");
        layers["core.phase3_s"] = spanTotalS(events, "phase3");
    }
    setTracing(false, false);

    unit.setupS = t1 - t0;
    unit.wallS = t2 - t1;
    unit.cpuS = cpu2 - cpu1;
    unit.peakRssMb = peakRssMb();
    unit.campaigns = batch.size();

    if (report.completed != batch.size() || report.failed != 0 ||
        report.rejected != 0)
        unit.problems.push_back(
            "service report: completed " +
            std::to_string(report.completed) + ", failed " +
            std::to_string(report.failed) + ", rejected " +
            std::to_string(report.rejected));

    double journalBytes = 0.0;
    double journalRows = 0.0;
    double turnaroundMax = 0.0;
    std::size_t failed = 0;
    for (const Submission &sub : batch) {
        std::vector<std::string> problems;
        const fs::path resultFile =
            svcRoot / "results" / (sub.id + ".result");
        std::error_code ec;
        const auto mtime = fs::last_write_time(resultFile, ec);
        if (ec) {
            unit.problems.push_back(sub.id + ": no result file");
            ++failed;
            continue;
        }
        // file_clock and the realtime clock share the Unix epoch here.
        const double mtimeS =
            std::chrono::duration<double>(
                std::chrono::file_clock::to_sys(mtime).time_since_epoch())
                .count();
        const double turnaround = mtimeS - serveRealtime;
        turnaroundMax = std::max(turnaroundMax, turnaround);
        unit.turnaroundsS.push_back(turnaround);

        const std::string result = readFile(resultFile);
        unit.results += result;
        unit.missions.push_back(resultMissions(result, sub.id));
        if (!std::isfinite(unit.missions.back()))
            problems.push_back("result file has no succeeded row");

        // The journal holds every simulated point in request order; the
        // archive is its first `budget` rows (optimizers that evaluate
        // whole generations journal the overshoot but do not archive it).
        const io::JournalReplay replay =
            io::readEvalJournal(journalPath(svcRoot, sub.id).string());
        const std::size_t archived = std::min(
            replay.entries.size(), static_cast<std::size_t>(sub.budget));
        std::vector<dse::Objectives> points;
        for (std::size_t i = 0; i < archived; ++i)
            points.push_back(replay.entries[i].objectives);
        unit.frontHv.push_back(dse::hypervolume(points, kReference));
        if (replay.truncated ||
            archived != static_cast<std::size_t>(sub.budget))
            problems.push_back("archive size " + std::to_string(archived) +
                               " != budget " + std::to_string(sub.budget));
        journalRows += static_cast<double>(replay.entries.size());
        journalBytes += static_cast<double>(
            fs::file_size(journalPath(svcRoot, sub.id), ec));
        if (&sub == &recovered && result != referenceResult)
            problems.push_back(
                "recovered result differs from its uninterrupted "
                "reference run");
        for (const std::string &problem : problems)
            unit.problems.push_back(sub.id + ": " + problem);
        if (!problems.empty())
            ++failed;
    }
    unit.freshEvals = journalRows - static_cast<double>(replayedRows);

    // Recovery must resume, not silently restart: a rejected checkpoint
    // is rewritten by a retrained Phase 1, and a rejected journal prefix
    // is simulated again (visible to the decorator).
    if (fs::last_write_time(recoveredWork / "policies.chk") !=
        checkpointStamp)
        unit.problems.push_back(recovered.id +
                                ": policy checkpoint was not reused");
    if (traced &&
        static_cast<double>(gTally.points.load()) != unit.freshEvals)
        unit.problems.push_back(recovered.id +
                                ": journal prefix was simulated again");
    unit.failedCampaigns =
        std::max<std::size_t>(failed, unit.problems.empty() ? 0 : 1);

    if (traced) {
        unit.layers["io.journal_bytes"] = journalBytes;
        unit.layers["io.replayed_rows"] = static_cast<double>(replayedRows);
        unit.layers["runner.campaigns"] = static_cast<double>(batch.size());
        unit.layers["runner.turnaround_max_s"] = turnaroundMax;
    }
    return unit;
}

/* ------------------------------------------------------------------ */
/* Output                                                              */
/* ------------------------------------------------------------------ */

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << formatNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/// @p okRate: share of every executed campaign that passed its checks.
std::vector<Metric>
endToEndMetrics(const std::vector<Unit> &units, double okRate)
{
    std::vector<double> setup, wall, cpu, rate, turnaround, rss, hv, missions;
    for (const Unit &unit : units) {
        setup.push_back(unit.setupS);
        wall.push_back(unit.wallS);
        cpu.push_back(unit.cpuS);
        rate.push_back(unit.freshEvals / unit.wallS);
        rss.push_back(unit.peakRssMb);
        turnaround.push_back(median(unit.turnaroundsS));
        hv.insert(hv.end(), unit.frontHv.begin(), unit.frontHv.end());
        missions.insert(missions.end(), unit.missions.begin(),
                        unit.missions.end());
    }
    return {
        {"setup_s", "s", median(setup)},
        {"wall_s", "s", median(wall)},
        {"cpu_s", "s", median(cpu)},
        {"evals_per_s", "1/s", median(rate)},
        {"turnaround_p50_s", "s", median(turnaround)},
        // Mean, not median: a unit's peak jumps by whole allocations
        // depending on which campaigns overlap, so per-unit peaks are
        // bimodal and their median flips between modes.
        {"peak_rss_mb", "MB", sum(rss) / static_cast<double>(rss.size())},
        {"front_hv", "hv", sum(hv)},
        {"missions_per_charge", "missions",
         missions.empty() ? 0.0 : sum(missions) / missions.size()},
        {"ok_rate", "ratio", okRate},
    };
}

/// Per-layer metrics: per-unit means over the traced units, plus the
/// derived ratios (each printed with its base).
std::vector<Metric>
perLayerMetrics(const std::vector<Unit> &traced,
                const std::vector<Unit> &untraced)
{
    Layers mean;
    for (const Unit &unit : traced)
        for (const auto &[name, value] : unit.layers)
            mean[name] += value / static_cast<double>(traced.size());
    auto get = [&](const std::string &name) { return mean[name]; };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    double overhead = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i)
        overhead += (traced[i].wallS - untraced[i].wallS) /
                    static_cast<double>(traced.size());
    const double lookups = get("dse.cache.hit") + get("dse.cache.miss");

    std::vector<Metric> m = {
        {"airlearning.phase1_s", "s", get("airlearning.phase1_s")},
        {"airlearning.rollouts", "count", get("airlearning.rollouts")},
        {"dse.phase2_s", "s", get("dse.phase2_s")},
        {"dse.backend_s", "s", get("dse.backend_s")},
        {"dse.backend_points", "count", get("dse.backend_points")},
        {"dse.backend_batches", "count", get("dse.backend_batches")},
        {"dse.optimizer_self_s", "s",
         get("dse.phase2_s") - get("dse.backend_s")},
        {"dse.optimizer_self_share", "ratio",
         ratio(get("dse.phase2_s") - get("dse.backend_s"),
               get("dse.phase2_s"))},
        {"dse.backend_share", "ratio",
         ratio(get("dse.backend_s"), get("dse.phase2_s"))},
        {"bo.screen_s", "s", get("bo.screen_s")},
        {"bo.fit_gp_s", "s", get("bo.fit_gp_s")},
        {"bo.iterations", "count", get("bo.iterations")},
        {"dse.hv_update_s", "s", get("dse.hv_update_s")},
        {"dse.cache_hit_ratio", "ratio",
         ratio(get("dse.cache.hit"), lookups)},
        {"dse.cache.lookups", "count", lookups},
        {"dse.tiered.promote_ratio", "ratio",
         ratio(get("dse.tiered.promoted"), get("dse.tiered.screened"))},
        {"dse.tiered.screened", "count", get("dse.tiered.screened")},
        {"systolic.cycle.layers", "count", get("systolic.cycle.layers")},
        {"systolic.cycle.cycles", "count", get("systolic.cycle.cycles")},
        {"systolic.ns_per_sim_cycle", "ns",
         ratio(get("dse.backend_s") * 1e9, get("systolic.cycle.cycles"))},
        {"dse.dram.row_hits", "count", get("dse.dram.row_hits")},
        {"dse.dram.row_misses", "count", get("dse.dram.row_misses")},
        {"dse.dram.row_conflicts", "count", get("dse.dram.row_conflicts")},
        {"dram.layers", "count", get("dram.layers")},
        {"dram.layer_sim_s", "s", get("dram.layer_sim_s")},
        {"core.phase3_s", "s", get("core.phase3_s")},
        {"core.candidates", "count", get("core.candidates")},
        {"io.journal.rows", "count", get("io.journal.rows")},
        {"io.journal.batches", "count", get("io.journal.batches")},
        {"io.journal_bytes", "B", get("io.journal_bytes")},
        {"io.replayed_rows", "count", get("io.replayed_rows")},
        {"runner.turnaround_max_s", "s", get("runner.turnaround_max_s")},
        {"runner.campaigns", "count", get("runner.campaigns")},
        {"pool.tasks", "count", get("pool.tasks")},
        {"pool.steals", "count", get("pool.steals")},
        {"pool.queue_wait_s", "s",
         ratio(get("pool.queue_wait_s"), get("pool.queue_waits"))},
        {"pool.task_run_s", "s", get("pool.task_run_s")},
        {"trace_overhead_s", "s", overhead},
    };
    return m;
}

/// Human-readable rollup of the traced run: busy and self time per
/// layer against the traced wall time, then the ratios with their
/// bases.
void
printRollup(const std::vector<Metric> &layers, double tracedWallS)
{
    std::map<std::string, double> v;
    for (const Metric &metric : layers)
        v[metric.name] = metric.value;
    const double backend = v["dse.backend_s"];
    const double simulated = v["dram.layer_sim_s"];
    struct Row
    {
        const char *layer;
        double busy;
        double self;
    };
    const std::vector<Row> rows = {
        {"airlearning", v["airlearning.phase1_s"], v["airlearning.phase1_s"]},
        {"dse", v["dse.phase2_s"], v["dse.optimizer_self_s"]},
        {"dse.backend (systolic+dram)", backend, backend - simulated},
        {"dram", simulated, simulated},
        {"core", v["core.phase3_s"], v["core.phase3_s"]},
        {"util.pool (task run)", v["pool.task_run_s"], v["pool.task_run_s"]},
    };
    std::cout << "# per-layer rollup (per unit; traced wall "
              << formatNumber(tracedWallS) << " s)\n";
    std::cout << "# " << std::left << std::setw(30) << "layer"
              << std::setw(14) << "busy_s" << std::setw(14) << "self_s"
              << "self/wall\n";
    for (const Row &row : rows) {
        std::cout << "# " << std::left << std::setw(30) << row.layer
                  << std::setw(14) << std::setprecision(5) << row.busy
                  << std::setw(14) << row.self << std::setprecision(3)
                  << (tracedWallS > 0 ? row.self / tracedWallS : 0.0)
                  << "\n";
    }
    std::cout << std::setprecision(6) << "# dse.cache_hit_ratio "
              << v["dse.cache_hit_ratio"] << " of "
              << v["dse.cache.lookups"] << " lookups\n"
              << "# dse.tiered.promote_ratio " << v["dse.tiered.promote_ratio"]
              << " of " << v["dse.tiered.screened"] << " screened\n"
              << "# dse.backend_share " << v["dse.backend_share"] << " of "
              << v["dse.phase2_s"] << " s phase2\n"
              << "# systolic.ns_per_sim_cycle "
              << v["systolic.ns_per_sim_cycle"] << " over "
              << v["systolic.cycle.cycles"] << " cycles\n"
              << "# pool.queue_wait_s mean " << v["pool.queue_wait_s"]
              << " over " << v["pool.tasks"] << " tasks\n";
}

/* ------------------------------------------------------------------ */
/* Self-test: the decorator is result-inert                            */
/* ------------------------------------------------------------------ */

int
selftestDecorator()
{
    int failures = 0;
    for (const std::string backend : {"analytical", "cycle", "tiered",
                                      "dram"}) {
        const PipelineShape shape{"nsga2", backend, 24, 20, 0.0};
        const Unit plain = runPipeline(shape, 7, false, false);
        const Unit decorated = runPipeline(shape, 7, false, true);
        const bool same = plain.results == decorated.results &&
                          plain.frontHv == decorated.frontHv &&
                          plain.missions == decorated.missions &&
                          plain.problems.empty() &&
                          decorated.problems.empty();
        const bool wrapped = gTally.batches > 0;
        gTally.reset();
        std::cout << "decorator " << backend << ": "
                  << (same && wrapped ? "identical" : "MISMATCH")
                  << " (front_hv " << formatNumber(plain.frontHv[0])
                  << ", missions " << formatNumber(plain.missions[0])
                  << ")\n";
        failures += same && wrapped ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

/* ------------------------------------------------------------------ */
/* main                                                                */
/* ------------------------------------------------------------------ */

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
    std::string source = "unknown";
    std::string selftest;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload "
                 "<bo-analytical|service-mix> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--source <id>]\n"
                 "       perfbench --selftest decorator "
                 "--workdir <dir>\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = std::stoull(value);
        else if (key == "--seconds")
            options.seconds = std::stod(value);
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--workdir")
            options.workdir = value;
        else if (key == "--source")
            options.source = value;
        else if (key == "--selftest")
            options.selftest = value;
        else
            usage("unknown option " + key);
    }
    if (options.workdir.empty())
        usage("--workdir is required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    installTimingDecorator();
    if (options.selftest == "decorator")
        return selftestDecorator();
    if (!options.selftest.empty())
        usage("unknown self-test " + options.selftest);

    const std::map<std::string, PipelineShape> pipelines = {
        {"bo-analytical", {"bo", "analytical", 100, 120, 2.1}},
    };
    const bool service = options.workload == "service-mix";
    if (!service && pipelines.count(options.workload) == 0)
        usage("unknown workload '" + options.workload + "'");
    const double nominalUnitS =
        service ? 1.2 : pipelines.at(options.workload).nominalUnitS;
    // Traced runs time every unit twice (untraced, then traced).
    // Traced runs time every input twice (untraced, then traced).
    const int inputs = std::max(
        2, static_cast<int>(std::lround(
               options.seconds / (nominalUnitS * (options.trace ? 2 : 1)))));

    std::cout << "# perfbench workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " trace=" << options.trace << " inputs=" << inputs
              << " source=" << options.source
              << " build=" << PERFBENCH_BUILD_TYPE
              << " nproc=" << std::thread::hardware_concurrency()
              << " pipeline_threads=1"
              << " service_active=" << kServiceActive
              << " service_pool_threads=" << kServicePoolThreads
              << " service_poll_s=" << kServicePollS << std::endl;

    std::vector<Unit> untraced;
    std::vector<Unit> traced;
    std::vector<Unit> executions; ///< Every unit run, for the counts.
    std::vector<std::string> problems;
    auto runUnit = [&](int index, bool tracing) {
        const std::uint64_t seed = deriveSeed(options.seed, 1000 + index);
        Unit unit = service
                        ? runServiceRound(fs::path(options.workdir) /
                                              ("round-" +
                                               std::to_string(index)),
                                          seed, tracing)
                        : runPipeline(pipelines.at(options.workload), seed,
                                      tracing, tracing);
        for (const std::string &problem : unit.problems)
            problems.push_back("unit " + std::to_string(index) + ": " +
                               problem);
        executions.push_back(unit);
        std::cout << "# unit " << index << (tracing ? " traced" : "")
                  << " setup_s " << formatNumber(unit.setupS) << " wall_s "
                  << formatNumber(unit.wallS) << " cpu_s "
                  << formatNumber(unit.cpuS) << " peak_rss_mb "
                  << formatNumber(unit.peakRssMb) << " fresh "
                  << unit.freshEvals << std::endl;
        return unit;
    };
    for (int i = 0; i < inputs; ++i) {
        // Alternate which execution of a pair runs first, so warm-up and
        // drift do not bias trace_overhead_s.
        const bool tracedFirst = options.trace && i % 2 == 1;
        if (tracedFirst)
            traced.push_back(runUnit(i, true));
        untraced.push_back(runUnit(i, false));
        if (options.trace && !tracedFirst)
            traced.push_back(runUnit(i, true));
        if (options.trace &&
            traced.back().results != untraced.back().results) {
            problems.push_back("unit " + std::to_string(i) +
                               ": traced results differ from untraced");
            executions.back().failedCampaigns = executions.back().campaigns;
        }
    }
    fs::remove_all(options.workdir);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const Unit &unit : executions) {
        attempted += unit.campaigns;
        failed += unit.failedCampaigns;
    }
    const std::vector<Metric> endToEnd = endToEndMetrics(
        untraced, static_cast<double>(attempted - failed) /
                      static_cast<double>(attempted));
    for (const Metric &metric : endToEnd) {
        if ((metric.name == "front_hv" ||
             metric.name == "missions_per_charge") &&
            !positiveFinite(metric.value))
            problems.push_back(metric.name + " not finite and > 0");
    }
    for (const std::string &problem : problems)
        std::cout << "# FAILED " << problem << "\n";

    const bool correct = problems.empty();
    if (options.trace) {
        const std::vector<Metric> layers = perLayerMetrics(traced, untraced);
        std::vector<double> wall;
        for (const Unit &unit : traced)
            wall.push_back(unit.wallS);
        printRollup(layers, sum(wall) / static_cast<double>(wall.size()));
        printResult(correct, attempted, failed, layers);
    } else {
        printResult(correct, attempted, failed, endToEnd);
    }
    return correct ? 0 : 1;
}
