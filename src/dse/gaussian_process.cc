#include "dse/gaussian_process.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace autopilot::dse
{

using util::fatalIf;

double
GpPrediction::stddev() const
{
    return std::sqrt(std::max(0.0, variance));
}

GaussianProcess::GaussianProcess() : GaussianProcess(Params())
{
}

GaussianProcess::GaussianProcess(const Params &params)
    : kernelParams(params)
{
    fatalIf(params.lengthScale <= 0.0 || params.signalVariance <= 0.0 ||
                params.noiseVariance < 0.0,
            "GaussianProcess: bad kernel parameters");
}

double
GaussianProcess::kernel(const std::vector<double> &a,
                        const std::vector<double> &b) const
{
    util::panicIf(a.size() != b.size(),
                  "GaussianProcess::kernel: dimension mismatch");
    double sq = 0.0;
    for (std::size_t d = 0; d < a.size(); ++d) {
        const double diff = (a[d] - b[d]) / kernelParams.lengthScale;
        sq += diff * diff;
    }
    return kernelParams.signalVariance * std::exp(-0.5 * sq);
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &inputs,
                     const std::vector<std::vector<double>> &targets)
{
    fatalIf(inputs.empty() || targets.empty(),
            "GaussianProcess::fit: empty or mismatched training data");
    for (const std::vector<double> &column : targets) {
        fatalIf(column.size() != inputs.size(),
                "GaussianProcess::fit: empty or mismatched training data");
    }

    trainInputs = inputs;

    const std::size_t n = inputs.size();
    util::Matrix gram(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            const double k = kernel(inputs[i], inputs[j]);
            gram(i, j) = k;
            gram(j, i) = k;
        }
        gram(i, i) += kernelParams.noiseVariance;
    }
    factor = std::make_unique<util::CholeskyFactor>(gram, 1e-9);

    // Standardize each output and solve it against the shared factor.
    outputModels.assign(targets.size(), Output());
    for (std::size_t o = 0; o < targets.size(); ++o) {
        const std::vector<double> &column = targets[o];
        Output &output = outputModels[o];
        output.targetMean = util::mean(column);
        output.targetStd = util::stddev(column);
        if (output.targetStd < 1e-12)
            output.targetStd = 1.0;
        std::vector<double> standardized(n);
        for (std::size_t i = 0; i < n; ++i)
            standardized[i] = (column[i] - output.targetMean) /
                              output.targetStd;
        output.alpha = factor->solve(standardized);
    }
}

std::vector<GpPrediction>
GaussianProcess::predict(std::span<const std::vector<double>> queries) const
{
    fatalIf(!fitted(), "GaussianProcess::predict: model not fitted");

    const std::size_t n = trainInputs.size();
    const std::size_t count = queries.size();
    const std::size_t outputs = outputModels.size();
    std::vector<GpPrediction> predictions(count * outputs);
    if (count == 0)
        return predictions;

    // k* of every query, one row per training point: kstar[i * count + q].
    std::vector<double> kstar(n * count);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t q = 0; q < count; ++q)
            kstar[i * count + q] = kernel(trainInputs[i], queries[q]);
    }

    // Variance: k(x,x) - k*^T K^{-1} k*, shared by every output. Every
    // sum below runs over i in ascending order for each query, exactly
    // as a single-query prediction would.
    std::vector<double> v = kstar;
    factor->solveLowerColumns(v, count);
    std::vector<double> reduction(count, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t q = 0; q < count; ++q)
            reduction[q] += v[i * count + q] * v[i * count + q];
    }

    std::vector<double> mean_std(outputs * count, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t o = 0; o < outputs; ++o) {
            const double alpha = outputModels[o].alpha[i];
            for (std::size_t q = 0; q < count; ++q)
                mean_std[o * count + q] += kstar[i * count + q] * alpha;
        }
    }

    for (std::size_t q = 0; q < count; ++q) {
        const double var_std =
            std::max(0.0, kernelParams.signalVariance - reduction[q]);
        for (std::size_t o = 0; o < outputs; ++o) {
            const Output &output = outputModels[o];
            GpPrediction &prediction = predictions[q * outputs + o];
            prediction.mean = mean_std[o * count + q] * output.targetStd +
                              output.targetMean;
            prediction.variance =
                var_std * output.targetStd * output.targetStd;
        }
    }
    return predictions;
}

std::vector<GpPrediction>
GaussianProcess::predict(const std::vector<double> &query) const
{
    return predict(std::span<const std::vector<double>>(&query, 1));
}

} // namespace autopilot::dse
