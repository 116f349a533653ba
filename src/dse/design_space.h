/**
 * @file
 * The joint algorithm/hardware design space of Table II, encoded for the
 * optimizers.
 *
 * A design point is a (policy hyperparameters, accelerator configuration)
 * pair. For the optimizers each point is a vector of eight choice indices:
 *
 *   [layers, filters, peRows, peCols, ifmapKb, filterKb, ofmapKb,
 *    precision]
 *
 * The precision dimension (operand bytes per element) defaults to the
 * single int8 choice, so legacy searches see exactly the seven-dimension
 * space they always did: size-1 dimensions draw no RNG samples and
 * contribute a constant-zero GP feature, keeping results bit-identical
 * to the pre-precision encoding.
 *
 * Index space (not raw values) is also what the Gaussian process sees,
 * normalized to [0, 1] per dimension - the power-of-two hardware choices
 * then become log-scaled features, which is the right geometry for the SE
 * kernel.
 */

#ifndef AUTOPILOT_DSE_DESIGN_SPACE_H
#define AUTOPILOT_DSE_DESIGN_SPACE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/e2e_template.h"
#include "systolic/config.h"
#include "util/rng.h"

namespace autopilot::dse
{

/** Number of encoded dimensions. */
constexpr std::size_t designDims = 8;

/** Encoded dimension holding the operand precision choice index. */
constexpr std::size_t precisionDim = 7;

/** Choice-index encoding of one design point. */
using Encoding = std::array<int, designDims>;

/** One joint algorithm/hardware design point. */
struct DesignPoint
{
    nn::PolicyHyperParams policy;
    systolic::AcceleratorConfig accel;

    /** Short identifier combining policy and accelerator names. */
    std::string name() const;

    bool operator==(const DesignPoint &other) const = default;
};

/** The joint design space with encode/decode and sampling helpers. */
class DesignSpace
{
  public:
    /** Default space per Table II: precision pinned to int8. */
    DesignSpace();

    /**
     * Space with a configurable precision axis. @p precisionChoices must
     * be non-empty, strictly ascending operand widths drawn from
     * {1, 2, 4} (fatal otherwise). {1} reproduces the default space.
     */
    explicit DesignSpace(const std::vector<int> &precisionChoices);

    /** Number of legal values in each encoded dimension. */
    const std::array<int, designDims> &dimensionSizes() const
    {
        return dimSizes;
    }

    /** Legal operand widths on the precision axis (ascending). */
    const std::vector<int> &precisionChoices() const
    {
        return hwSpace.bytesPerElementChoices;
    }

    /** True when more than one precision is searchable (non-default). */
    bool precisionAxisEnabled() const
    {
        return hwSpace.bytesPerElementChoices.size() > 1;
    }

    /** Total number of design points. */
    std::int64_t cardinality() const;

    /** Decode choice indices into a design point (fatal on range error). */
    DesignPoint decode(const Encoding &encoding) const;

    /** Encode a design point (fatal when a value is not a legal choice). */
    Encoding encode(const DesignPoint &point) const;

    /** Uniform random encoding. */
    Encoding randomEncoding(util::Rng &rng) const;

    /**
     * A neighbouring encoding: one searchable dimension stepped by +/-1
     * (used by simulated annealing); clamped to the legal range.
     * Dimensions with a single legal value are never picked - stepping
     * them could only self-move, burning annealer budget - so the
     * proposal always differs from the input whenever any dimension has
     * at least two choices.
     */
    Encoding neighbor(const Encoding &encoding, util::Rng &rng) const;

    /** Normalized [0,1]^8 feature vector for the GP surrogate; size-1
     *  dimensions contribute a constant 0. */
    std::vector<double> features(const Encoding &encoding) const;

  private:
    nn::PolicySpace policySpace;
    systolic::HardwareSpace hwSpace;
    std::array<int, designDims> dimSizes;

    int indexOf(const std::vector<int> &choices, int value,
                const char *what) const;
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_DESIGN_SPACE_H
