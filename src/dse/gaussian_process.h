/**
 * @file
 * Gaussian-process regression with a squared-exponential kernel.
 *
 * This is the Bayesian statistical model of Section III-B: one GP per
 * objective function; their posterior means/variances feed the SMS-EGO
 * acquisition. The SE kernel is used "due to its simplicity, leading to
 * fast computation" [65], exactly as in the paper.
 *
 * The objectives share their inputs and kernel hyperparameters, so their
 * GPs share the Gram matrix, its Cholesky factor, every query's k* and
 * forward solve, and therefore the posterior variance before scaling. One
 * GaussianProcess fits all of them: one factor, one alpha per objective.
 * Each output's prediction is bit-identical to a single-output fit of
 * that objective alone (the single-output GP is the one-column case).
 *
 * Targets are standardized internally per output (zero mean, unit
 * variance) so one set of kernel hyperparameters works across objectives
 * with very different scales (success fraction vs. watts vs.
 * milliseconds).
 */

#ifndef AUTOPILOT_DSE_GAUSSIAN_PROCESS_H
#define AUTOPILOT_DSE_GAUSSIAN_PROCESS_H

#include <memory>
#include <span>
#include <vector>

#include "util/matrix.h"

namespace autopilot::dse
{

/** GP posterior at one query point. */
struct GpPrediction
{
    double mean = 0.0;
    double variance = 0.0;

    /** Posterior standard deviation. */
    double stddev() const;
};

/** Squared-exponential-kernel GP regressor over one or more outputs. */
class GaussianProcess
{
  public:
    /** Kernel hyperparameters. */
    struct Params
    {
        double lengthScale = 0.25; ///< Shared isotropic length scale.
        double signalVariance = 1.0;
        double noiseVariance = 1e-4;
    };

    /** Construct with default kernel parameters. */
    GaussianProcess();

    explicit GaussianProcess(const Params &params);

    /**
     * Fit every output to training data over one shared factor.
     *
     * @param inputs  Feature vectors (all the same dimension, non-empty).
     * @param targets One column per output, each holding one target per
     *                input (non-empty).
     */
    void fit(const std::vector<std::vector<double>> &inputs,
             const std::vector<std::vector<double>> &targets);

    /** True after a successful fit(). */
    bool fitted() const { return factor != nullptr; }

    /**
     * Posterior mean and variance of every output at each query point:
     * element q * outputs + o, where outputs is the number of target
     * columns fit. Per query, k*, the forward solve and the variance
     * reduction are computed once and each output adds one dot product;
     * the queries' forward solves run interleaved. Every element is
     * bit-identical to predicting its query alone.
     */
    std::vector<GpPrediction>
    predict(std::span<const std::vector<double>> queries) const;

    /** Posterior of every output at one query (element o: output o). */
    std::vector<GpPrediction> predict(const std::vector<double> &query) const;

    const Params &params() const { return kernelParams; }

  private:
    /** Per-output state: the only part that differs between outputs. */
    struct Output
    {
        std::vector<double> alpha; ///< K^{-1} (y - mean), standardized.
        double targetMean = 0.0;
        double targetStd = 1.0;
    };

    Params kernelParams;
    std::vector<std::vector<double>> trainInputs;
    std::unique_ptr<util::CholeskyFactor> factor;
    std::vector<Output> outputModels;

    double kernel(const std::vector<double> &a,
                  const std::vector<double> &b) const;
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_GAUSSIAN_PROCESS_H
