#include "dse/design_space.h"

#include <algorithm>

#include "util/logging.h"

namespace autopilot::dse
{

using util::fatalIf;

std::string
DesignPoint::name() const
{
    return nn::policyName(policy) + "__" + accel.name();
}

DesignSpace::DesignSpace()
{
    dimSizes = {static_cast<int>(policySpace.layerChoices.size()),
                static_cast<int>(policySpace.filterChoices.size()),
                static_cast<int>(hwSpace.peRowChoices.size()),
                static_cast<int>(hwSpace.peColChoices.size()),
                static_cast<int>(hwSpace.sramKbChoices.size()),
                static_cast<int>(hwSpace.sramKbChoices.size()),
                static_cast<int>(hwSpace.sramKbChoices.size()),
                static_cast<int>(hwSpace.bytesPerElementChoices.size())};
}

DesignSpace::DesignSpace(const std::vector<int> &precisionChoices)
{
    fatalIf(precisionChoices.empty(),
            "DesignSpace: precision choice list must not be empty");
    int previous = 0;
    for (const int width : precisionChoices) {
        fatalIf(width != 1 && width != 2 && width != 4,
                "DesignSpace: unsupported precision width " +
                    std::to_string(width) + " bytes (want 1, 2 or 4)");
        fatalIf(width <= previous,
                "DesignSpace: precision choices must be strictly "
                "ascending");
        previous = width;
    }
    hwSpace.bytesPerElementChoices = precisionChoices;
    dimSizes = {static_cast<int>(policySpace.layerChoices.size()),
                static_cast<int>(policySpace.filterChoices.size()),
                static_cast<int>(hwSpace.peRowChoices.size()),
                static_cast<int>(hwSpace.peColChoices.size()),
                static_cast<int>(hwSpace.sramKbChoices.size()),
                static_cast<int>(hwSpace.sramKbChoices.size()),
                static_cast<int>(hwSpace.sramKbChoices.size()),
                static_cast<int>(hwSpace.bytesPerElementChoices.size())};
}

std::int64_t
DesignSpace::cardinality() const
{
    std::int64_t total = 1;
    for (int size : dimSizes)
        total *= size;
    return total;
}

DesignPoint
DesignSpace::decode(const Encoding &encoding) const
{
    for (std::size_t d = 0; d < designDims; ++d) {
        fatalIf(encoding[d] < 0 || encoding[d] >= dimSizes[d],
                "DesignSpace::decode: index out of range");
    }
    DesignPoint point;
    point.policy.numConvLayers = policySpace.layerChoices[encoding[0]];
    point.policy.numFilters = policySpace.filterChoices[encoding[1]];
    point.accel.peRows = hwSpace.peRowChoices[encoding[2]];
    point.accel.peCols = hwSpace.peColChoices[encoding[3]];
    point.accel.ifmapSramKb = hwSpace.sramKbChoices[encoding[4]];
    point.accel.filterSramKb = hwSpace.sramKbChoices[encoding[5]];
    point.accel.ofmapSramKb = hwSpace.sramKbChoices[encoding[6]];
    point.accel.bytesPerElement =
        hwSpace.bytesPerElementChoices[encoding[precisionDim]];
    return point;
}

int
DesignSpace::indexOf(const std::vector<int> &choices, int value,
                     const char *what) const
{
    const auto it = std::find(choices.begin(), choices.end(), value);
    fatalIf(it == choices.end(),
            std::string("DesignSpace::encode: illegal value for ") + what);
    return static_cast<int>(it - choices.begin());
}

Encoding
DesignSpace::encode(const DesignPoint &point) const
{
    Encoding encoding;
    encoding[0] = indexOf(policySpace.layerChoices,
                          point.policy.numConvLayers, "layers");
    encoding[1] = indexOf(policySpace.filterChoices,
                          point.policy.numFilters, "filters");
    encoding[2] = indexOf(hwSpace.peRowChoices, point.accel.peRows,
                          "peRows");
    encoding[3] = indexOf(hwSpace.peColChoices, point.accel.peCols,
                          "peCols");
    encoding[4] = indexOf(hwSpace.sramKbChoices, point.accel.ifmapSramKb,
                          "ifmapSramKb");
    encoding[5] = indexOf(hwSpace.sramKbChoices, point.accel.filterSramKb,
                          "filterSramKb");
    encoding[6] = indexOf(hwSpace.sramKbChoices, point.accel.ofmapSramKb,
                          "ofmapSramKb");
    encoding[precisionDim] = indexOf(hwSpace.bytesPerElementChoices,
                                     point.accel.bytesPerElement,
                                     "bytesPerElement");
    return encoding;
}

Encoding
DesignSpace::randomEncoding(util::Rng &rng) const
{
    // Size-1 dimensions draw nothing: the RNG stream (and therefore every
    // downstream result) matches the legacy 7-dimension space whenever
    // the precision axis is pinned to a single choice.
    Encoding encoding;
    for (std::size_t d = 0; d < designDims; ++d)
        encoding[d] = dimSizes[d] > 1 ? rng.uniformInt(0, dimSizes[d] - 1)
                                      : 0;
    return encoding;
}

Encoding
DesignSpace::neighbor(const Encoding &encoding, util::Rng &rng) const
{
    // Propose only along dimensions with at least two legal values: a
    // size-1 dimension clamps to itself in both directions, so stepping
    // it would return the input unchanged and the annealer would burn
    // budget re-evaluating its current point. With the default space the
    // searchable set is exactly the legacy seven dimensions, so the RNG
    // draw sequence (and every accepted move) is unchanged.
    std::array<std::size_t, designDims> searchable;
    std::size_t searchableCount = 0;
    for (std::size_t d = 0; d < designDims; ++d) {
        if (dimSizes[d] > 1)
            searchable[searchableCount++] = d;
    }
    if (searchableCount == 0)
        return encoding; // Degenerate one-point space: nowhere to move.

    Encoding next = encoding;
    const std::size_t dim = searchable[rng.index(searchableCount)];
    const int step = rng.bernoulli(0.5) ? 1 : -1;
    next[dim] = std::clamp(next[dim] + step, 0, dimSizes[dim] - 1);
    if (next[dim] == encoding[dim]) {
        // Clamped at a boundary: step the other way so the proposal always
        // moves.
        next[dim] = std::clamp(encoding[dim] - step, 0, dimSizes[dim] - 1);
    }
    return next;
}

std::vector<double>
DesignSpace::features(const Encoding &encoding) const
{
    std::vector<double> features(designDims, 0.0);
    for (std::size_t d = 0; d < designDims; ++d) {
        features[d] = dimSizes[d] > 1
                          ? static_cast<double>(encoding[d]) /
                                (dimSizes[d] - 1)
                          : 0.0;
    }
    return features;
}

} // namespace autopilot::dse
