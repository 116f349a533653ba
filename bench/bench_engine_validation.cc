/**
 * @file
 * Simulator-stack validation bench (gem5-Aladdin-style accuracy table):
 *
 *  1. Functional vs analytic: the register-level array's measured cycles
 *     must match the fold formula exactly (WS and OS) on random GEMMs.
 *  2. Analytical vs cycle-stepped engine: the fast DSE path must track
 *     the reference prefetch-timeline engine within a few percent across
 *     random layers and configurations.
 *  3. Cost-model backend agreement: the same fixed pool of design points
 *     through the analytical, cycle and tiered backends; the tiered
 *     screen must recover (nearly) the pure-cycle Pareto front while
 *     paying for several times fewer cycle-accurate simulations.
 *  4. Shared-DRAM contention sweep: the same pool through the
 *     contention backend under rising background camera/host traffic;
 *     latency must degrade monotonically and the achievable
 *     hypervolume must shrink as the channel fills.
 *  5. Bank-level row-locality sweep: a design-point subset through the
 *     dram backend while the background stream turns from linear to
 *     random; the row-buffer hit rate must fall and both mean latency
 *     and DRAM command energy must rise with the randomness knob.
 *  6. Operand-precision sweep: one fixed (config, policy) pair at
 *     int8/fp16/fp32 - MAC energy, SRAM energy and DRAM traffic must
 *     all strictly increase with element width - then the quantized
 *     backend over an int8-only vs full-precision Phase 2 space; the
 *     widened space must shift the Pareto knee (hypervolume can only
 *     grow, and the front must use more than one precision).
 *
 * Exit code is non-zero when any monotonicity gate fails, so CI can
 * enforce the physics, not just print it.
 */

#include <algorithm>
#include <iostream>
#include <set>

#include "airlearning/trainer.h"
#include "dram/config.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "dse/hypervolume.h"
#include "dse/pareto.h"
#include "nn/e2e_template.h"
#include "oracle/systolic_functional.h"
#include "power/dram_model.h"
#include "power/npu_power.h"
#include "systolic/cycle_engine.h"
#include "systolic/engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace autopilot;
namespace oracle = autopilot::systolic::oracle;

int
main()
{
    util::Rng rng(0x5A11DA7E);
    std::cout << "=== Simulator validation ===\n\n";

    // --- 1. Functional (register-level) vs analytic fold timing ---
    std::cout << "(1) Register-level array vs analytic fold formula "
                 "(random GEMMs):\n";
    int exact_ws = 0, exact_os = 0;
    const int gemm_trials = 30;
    for (int trial = 0; trial < gemm_trials; ++trial) {
        const int m = rng.uniformInt(1, 40);
        const int k = rng.uniformInt(1, 60);
        const int n = rng.uniformInt(1, 40);
        const int pe = 1 << rng.uniformInt(1, 4); // 2..16.
        oracle::IntMatrix a(m, k), b(k, n);
        for (auto &v : a.data)
            v = rng.uniformInt(-128, 127);
        for (auto &v : b.data)
            v = rng.uniformInt(-128, 127);

        nn::GemmShape gemm;
        gemm.m = m;
        gemm.n = n;
        gemm.k = k;
        systolic::AcceleratorConfig config;
        config.peRows = pe;
        config.peCols = pe;

        const auto ws = oracle::runWeightStationaryGemm(a, b, pe, pe);
        exact_ws +=
            (ws.totalCycles ==
             systolic::foldGrid(gemm, config).computeCycles()) &&
            (ws.output.data == oracle::referenceGemm(a, b).data);

        config.dataflow = systolic::Dataflow::OutputStationary;
        const auto os = oracle::runOutputStationaryGemm(a, b, pe, pe);
        exact_os +=
            (os.totalCycles ==
             systolic::foldGrid(gemm, config).computeCycles()) &&
            (os.output.data == oracle::referenceGemm(a, b).data);
    }
    std::cout << "WS: " << exact_ws << "/" << gemm_trials
              << " bit- and cycle-exact; OS: " << exact_os << "/"
              << gemm_trials << "\n\n";

    // --- 2. Analytical vs cycle-stepped engine across the space ---
    std::cout << "(2) Analytical engine vs cycle-stepped reference "
                 "(full policies, random configs):\n";
    const systolic::HardwareSpace space;
    std::vector<double> errors;
    util::Table worst({"config", "policy", "analytic cycles",
                       "cycle-engine cycles", "error %"});
    double worst_error = -1.0;
    std::vector<std::string> worst_row;
    for (int trial = 0; trial < 60; ++trial) {
        systolic::AcceleratorConfig config;
        config.peRows = space.peRowChoices[rng.index(6)]; // <= 256.
        config.peCols = space.peColChoices[rng.index(6)];
        config.ifmapSramKb = space.sramKbChoices[rng.index(8)];
        config.filterSramKb = space.sramKbChoices[rng.index(8)];
        config.ofmapSramKb = space.sramKbChoices[rng.index(8)];

        nn::PolicyHyperParams params;
        params.numConvLayers = rng.uniformInt(2, 10);
        params.numFilters =
            nn::PolicySpace().filterChoices[rng.index(3)];
        const nn::Model model = nn::buildE2EModel(params);

        const systolic::AnalyticalEngine fast(config);
        const systolic::CycleEngine reference(config);
        const auto fast_run = fast.run(model);
        const auto ref_run = reference.run(model);
        const double error =
            100.0 *
            std::abs(double(fast_run.totalCycles) -
                     double(ref_run.totalCycles)) /
            double(ref_run.totalCycles);
        errors.push_back(error);
        if (error > worst_error) {
            worst_error = error;
            worst_row = {config.name(), model.name(),
                         std::to_string(fast_run.totalCycles),
                         std::to_string(ref_run.totalCycles),
                         util::formatDouble(error, 2)};
        }
    }
    worst.addRow(worst_row);

    std::cout << "60 random (policy, config) pairs: mean error "
              << util::formatDouble(util::mean(errors), 2)
              << " %, p95 "
              << util::formatDouble(util::percentile(errors, 95), 2)
              << " %, max " << util::formatDouble(worst_error, 2)
              << " %\n\nWorst case:\n";
    worst.print(std::cout);

    // --- 3. Backend agreement on a fixed design-point pool ---
    std::cout << "\n(3) Cost-model backends on one fixed pool of 160 "
                 "random design points:\n";
    airlearning::TrainerConfig trainer_config;
    trainer_config.validationEpisodes = 30;
    const airlearning::Trainer trainer(trainer_config);
    airlearning::PolicyDatabase db;
    trainer.trainAll(nn::PolicySpace(),
                     airlearning::ObstacleDensity::Dense, db);

    const dse::DesignSpace design_space;
    util::Rng pool_rng(0xBEC0);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 160) {
        const dse::Encoding encoding =
            design_space.randomEncoding(pool_rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    const dse::Objectives reference = {1.0, 12.0, 120.0};
    util::Table backends({"backend", "cycle sims", "front size",
                          "hypervolume", "dHV vs cycle %"});
    double cycle_hv = 0.0;
    double tiered_hv = 0.0;
    std::size_t tiered_sims = 0;
    for (const char *backend_name : {"analytical", "cycle", "tiered"}) {
        dse::DseEvaluator evaluator(
            db, airlearning::ObstacleDensity::Dense, backend_name);
        evaluator.evaluateBatch(points);

        std::vector<dse::Objectives> objectives;
        for (const dse::Evaluation &eval : evaluator.allEvaluations())
            objectives.push_back(eval.objectives);
        const auto front = dse::paretoFront(objectives);
        const double hv = dse::hypervolume(front, reference);

        std::size_t cycle_sims = 0;
        if (std::string(backend_name) == "cycle")
            cycle_sims = points.size();
        else if (const auto *tiered =
                     dynamic_cast<const dse::TieredBackend *>(
                         &evaluator.backend()))
            cycle_sims = tiered->promotedCount();

        if (std::string(backend_name) == "cycle")
            cycle_hv = hv;
        if (std::string(backend_name) == "tiered") {
            tiered_hv = hv;
            tiered_sims = cycle_sims;
        }
        const double dhv =
            cycle_hv > 0.0 ? 100.0 * (hv - cycle_hv) / cycle_hv : 0.0;
        backends.addRow({backend_name, std::to_string(cycle_sims),
                         std::to_string(front.size()),
                         util::formatDouble(hv, 4),
                         std::string(backend_name) == "analytical"
                             ? "-"
                             : util::formatDouble(dhv, 3)});
    }
    backends.print(std::cout);
    const double saving =
        tiered_sims == 0 ? 0.0
                         : double(points.size()) / double(tiered_sims);
    std::cout << "tiered backend: " << tiered_sims << "/"
              << points.size() << " points promoted to cycle-accurate ("
              << util::formatDouble(saving, 1)
              << "x fewer cycle sims), front hypervolume within "
              << util::formatDouble(
                     cycle_hv > 0.0 ? 100.0 *
                                          std::abs(tiered_hv - cycle_hv) /
                                          cycle_hv
                                    : 0.0,
                     3)
              << " % of pure cycle\n";

    // --- 4. Shared-DRAM contention sweep over the same pool ---
    std::cout << "\n(4) Contention backend under background DRAM "
                 "traffic (same pool):\n";
    util::Table sweep({"background GB/s", "mean latency ms",
                       "max latency ms", "front size", "hypervolume"});
    double prev_mean_latency = -1.0;
    double prev_hv = -1.0;
    bool latency_monotonic = true;
    bool hv_monotonic = true;
    for (const double background_gbps : {0.0, 1.6, 3.2, 4.8}) {
        systolic::ContentionProfile profile;
        profile.cameraBytesPerSec = background_gbps * 1e9;
        dse::DseEvaluator evaluator(db,
                                    airlearning::ObstacleDensity::Dense,
                                    "contention", profile);
        evaluator.evaluateBatch(points);

        std::vector<double> latencies;
        std::vector<dse::Objectives> objectives;
        for (const dse::Evaluation &eval :
             evaluator.allEvaluations()) {
            latencies.push_back(eval.latencyMs);
            objectives.push_back(eval.objectives);
        }
        const double mean_latency = util::mean(latencies);
        const auto front = dse::paretoFront(objectives);
        const double hv = dse::hypervolume(front, reference);
        if (prev_mean_latency >= 0.0 &&
            mean_latency < prev_mean_latency)
            latency_monotonic = false;
        if (prev_hv >= 0.0 && hv > prev_hv)
            hv_monotonic = false;
        prev_mean_latency = mean_latency;
        prev_hv = hv;
        sweep.addRow(
            {util::formatDouble(background_gbps, 1),
             util::formatDouble(mean_latency, 3),
             util::formatDouble(
                 *std::max_element(latencies.begin(), latencies.end()),
                 3),
             std::to_string(front.size()),
             util::formatDouble(hv, 4)});
    }
    sweep.print(std::cout);
    std::cout << "mean latency "
              << (latency_monotonic ? "rises monotonically"
                                    : "NOT MONOTONIC")
              << " and hypervolume "
              << (hv_monotonic ? "shrinks monotonically"
                               : "NOT MONOTONIC")
              << " as background traffic grows\n";

    // --- 5. Bank-level row-locality sweep (dram backend) ---
    // A fixed 600 MB/s background stream (below the random-access
    // service capacity, so every burst lands) turns from a linear
    // camera-like scan into pure random access. Row-buffer physics must
    // show through end to end: hits fall, the NPU waits longer, and the
    // command-billed DRAM energy (extra activates) grows.
    std::cout << "\n(5) Dram backend row-locality sweep (40-point "
                 "subset, 0.6 GB/s background):\n";
    const std::vector<dse::Encoding> locality_points(points.begin(),
                                                     points.begin() + 40);
    const power::DramModel dram_power;
    util::Table locality({"randomness", "row hit %", "mean latency ms",
                          "activates", "command energy mJ"});
    double prev_hit_rate = 2.0;
    double prev_dram_latency = -1.0;
    double prev_energy_mj = -1.0;
    bool hit_rate_falls = true;
    bool dram_latency_monotonic = true;
    bool energy_monotonic = true;
    for (const double randomness : {0.0, 0.25, 0.5, 1.0}) {
        const dram::DramSpec spec = dram::uavDramSpec(
            dram::DramTiming{}, 0.0, 6.0e8, randomness);
        dse::DramBackend backend(
            {&db, airlearning::ObstacleDensity::Dense, {}, spec});

        std::vector<double> latencies;
        for (const dse::Encoding &encoding : locality_points) {
            latencies.push_back(
                backend.evaluate(design_space.decode(encoding))
                    .latencyMs);
        }
        const double mean_latency = util::mean(latencies);
        const double accesses = double(backend.rowHits()) +
                                double(backend.rowMisses()) +
                                double(backend.rowConflicts());
        const double hit_rate =
            accesses > 0.0 ? double(backend.rowHits()) / accesses : 0.0;
        const double energy_mj =
            (dram_power.activateEnergyPj() *
                 double(backend.activates()) +
             dram_power.refreshEnergyPj() *
                 double(backend.refreshes()) +
             dram_power.ioPjPerByte() *
                 double(backend.channelBytes())) *
            1e-9;

        if (hit_rate > prev_hit_rate)
            hit_rate_falls = false;
        if (prev_dram_latency >= 0.0 &&
            mean_latency < prev_dram_latency)
            dram_latency_monotonic = false;
        if (prev_energy_mj >= 0.0 && energy_mj < prev_energy_mj)
            energy_monotonic = false;
        prev_hit_rate = hit_rate;
        prev_dram_latency = mean_latency;
        prev_energy_mj = energy_mj;
        locality.addRow({util::formatDouble(randomness, 2),
                         util::formatDouble(100.0 * hit_rate, 1),
                         util::formatDouble(mean_latency, 3),
                         std::to_string(backend.activates()),
                         util::formatDouble(energy_mj, 3)});
    }
    locality.print(std::cout);
    std::cout << "row-buffer hit rate "
              << (hit_rate_falls ? "falls" : "does NOT fall")
              << ", mean latency "
              << (dram_latency_monotonic ? "rises" : "NOT MONOTONIC")
              << " and command energy "
              << (energy_monotonic ? "rises" : "NOT MONOTONIC")
              << " as the background stream turns random\n";

    // --- 6. Operand-precision sweep (quantized backend) ---
    // Fixed (config, policy) pair at int8/fp16/fp32: every cost the
    // element width touches must respond. Energies (not average watts)
    // are compared so a longer runtime cannot mask a larger energy.
    std::cout << "\n(6) Precision sweep at one fixed (config, policy) "
                 "pair:\n";
    systolic::AcceleratorConfig precision_config;
    nn::PolicyHyperParams precision_params;
    precision_params.numConvLayers = 5;
    precision_params.numFilters = 32;
    const nn::Model precision_model =
        nn::buildE2EModel(precision_params);

    util::Table precisions({"precision", "MAC energy mJ",
                            "SRAM energy mJ", "DRAM MB", "latency ms"});
    double prev_mac_mj = -1.0, prev_sram_mj = -1.0;
    double prev_dram_mb = -1.0;
    bool mac_energy_grows = true;
    bool sram_energy_grows = true;
    bool traffic_grows = true;
    for (const int width : {1, 2, 4}) {
        precision_config.bytesPerElement = width;
        const systolic::AnalyticalEngine engine(precision_config);
        const systolic::RunResult run = engine.run(precision_model);
        const power::NpuPowerModel model(precision_config);
        const power::NpuPowerBreakdown breakdown = model.estimate(run);
        const double seconds =
            run.runtimeSeconds(precision_config.clockGhz);
        const double mac_mj = breakdown.peDynamicW * seconds * 1e3;
        const double sram_mj = breakdown.sramDynamicW * seconds * 1e3;
        const double dram_mb = double(run.traffic.totalDramBytes()) / 1e6;
        if (mac_mj <= prev_mac_mj)
            mac_energy_grows = false;
        if (sram_mj <= prev_sram_mj)
            sram_energy_grows = false;
        if (dram_mb <= prev_dram_mb)
            traffic_grows = false;
        prev_mac_mj = mac_mj;
        prev_sram_mj = sram_mj;
        prev_dram_mb = dram_mb;
        precisions.addRow(
            {systolic::precisionName(width),
             util::formatDouble(mac_mj, 4),
             util::formatDouble(sram_mj, 4),
             util::formatDouble(dram_mb, 3),
             util::formatDouble(
                 run.runtimeSeconds(precision_config.clockGhz) * 1e3,
                 3)});
    }
    precisions.print(std::cout);
    std::cout << "MAC energy "
              << (mac_energy_grows ? "grows" : "does NOT grow")
              << ", SRAM energy "
              << (sram_energy_grows ? "grows" : "does NOT grow")
              << " and DRAM traffic "
              << (traffic_grows ? "grows" : "does NOT grow")
              << " strictly with element width\n";

    // Knee shift: the same budget of random base configs, evaluated by
    // the quantized backend over the pinned int8 space and over the
    // full int8+fp16+fp32 space. The widened space's points are a
    // superset in objective space, so its front hypervolume can only
    // grow; a genuine knee shift additionally puts more than one
    // precision on the front.
    std::cout << "\n(6b) Quantized backend: int8-only vs "
                 "int8+fp16+fp32 design space (same 60 base configs):\n";
    const std::vector<int> full_widths = {1, 2, 4};
    dse::DseEvaluator quantized(db, airlearning::ObstacleDensity::Dense,
                                "quantized", {}, {}, full_widths);
    util::Rng knee_rng(0x0DD5);
    std::vector<dse::Encoding> base_points;
    std::set<dse::Encoding> base_seen;
    while (base_points.size() < 60) {
        dse::Encoding encoding =
            quantized.space().randomEncoding(knee_rng);
        encoding[dse::precisionDim] = 0;
        if (base_seen.insert(encoding).second)
            base_points.push_back(encoding);
    }
    std::vector<dse::Encoding> all_points;
    for (const dse::Encoding &base : base_points) {
        for (std::size_t w = 0; w < full_widths.size(); ++w) {
            dse::Encoding encoding = base;
            encoding[dse::precisionDim] = int(w);
            all_points.push_back(encoding);
        }
    }
    quantized.evaluateBatch(all_points);

    // Per-base-config physics: widening the operands must never lower
    // the collision-avoidance success rate (the fp recovery term) and
    // must strictly raise per-inference NPU energy (power x latency -
    // average watts alone could hide the cost behind a longer runtime).
    bool success_monotonic = true;
    bool npu_energy_monotonic = true;
    std::vector<dse::Objectives> int8_objectives;
    std::vector<dse::Objectives> full_objectives;
    std::size_t front_precisions = 0;
    {
        std::vector<const dse::Evaluation *> evals;
        for (const dse::Encoding &encoding : all_points)
            evals.push_back(&quantized.evaluate(encoding));
        for (std::size_t i = 0; i < evals.size(); i += 3) {
            if (evals[i]->successRate > evals[i + 1]->successRate ||
                evals[i + 1]->successRate > evals[i + 2]->successRate)
                success_monotonic = false;
            const double mj_int8 =
                evals[i]->npuPowerW * evals[i]->latencyMs;
            const double mj_fp16 =
                evals[i + 1]->npuPowerW * evals[i + 1]->latencyMs;
            const double mj_fp32 =
                evals[i + 2]->npuPowerW * evals[i + 2]->latencyMs;
            if (mj_int8 >= mj_fp16 || mj_fp16 >= mj_fp32)
                npu_energy_monotonic = false;
            int8_objectives.push_back(evals[i]->objectives);
        }
        for (const dse::Evaluation *eval : evals)
            full_objectives.push_back(eval->objectives);

        const auto full_front = dse::paretoFront(full_objectives);
        std::set<std::string> widths_on_front;
        for (const dse::Evaluation *eval : evals) {
            for (const dse::Objectives &obj : full_front) {
                if (obj == eval->objectives)
                    widths_on_front.insert(eval->precision);
            }
        }
        front_precisions = widths_on_front.size();
    }
    const double int8_hv =
        dse::hypervolume(dse::paretoFront(int8_objectives), reference);
    const double full_hv =
        dse::hypervolume(dse::paretoFront(full_objectives), reference);
    const bool knee_shifts =
        full_hv >= int8_hv && front_precisions > 1;
    std::cout << "int8-only hypervolume "
              << util::formatDouble(int8_hv, 4)
              << ", int8+fp16+fp32 hypervolume "
              << util::formatDouble(full_hv, 4) << " (+"
              << util::formatDouble(
                     int8_hv > 0.0
                         ? 100.0 * (full_hv - int8_hv) / int8_hv
                         : 0.0,
                     2)
              << " %), " << front_precisions
              << " precisions on the widened front\n";
    std::cout << "success rate "
              << (success_monotonic ? "never falls" : "FALLS")
              << " and per-inference NPU energy "
              << (npu_energy_monotonic ? "strictly rises"
                                       : "NOT MONOTONIC")
              << " with element width; knee "
              << (knee_shifts ? "shifts" : "does NOT shift") << "\n";

    return latency_monotonic && hv_monotonic && hit_rate_falls &&
                   dram_latency_monotonic && energy_monotonic &&
                   mac_energy_grows && sram_energy_grows &&
                   traffic_grows && success_monotonic &&
                   npu_energy_monotonic && knee_shifts
               ? 0
               : 1;
}
