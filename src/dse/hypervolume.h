/**
 * @file
 * Exact hypervolume computation for minimization problems.
 *
 * The hypervolume of a point set against a reference point is the measure
 * of the objective-space region dominated by the set and bounded by the
 * reference. SMS-EGO [64] uses hypervolume gain as its acquisition value.
 *
 * Supports 1, 2 and 3 objectives exactly (AutoPilot optimizes exactly
 * three: success rate, power, latency). Fatal for higher dimensions.
 *
 * The acquisition screen asks one question many times per iteration: how
 * much volume does this candidate add to that fixed front?
 * HypervolumeContribution answers it from a per-front sweep built once,
 * replaying the from-scratch slicing sum's floating-point operations so
 * every answer is bit-identical to hypervolume(front + candidate) -
 * hypervolume(front). The from-scratch difference is kept only as the
 * test oracle.
 */

#ifndef AUTOPILOT_DSE_HYPERVOLUME_H
#define AUTOPILOT_DSE_HYPERVOLUME_H

#include <array>
#include <cstddef>

#include "dse/pareto.h"

namespace autopilot::dse
{

/**
 * Hypervolume of @p points against @p reference (all minimized).
 *
 * Points outside the reference box contribute only their clipped part;
 * fully dominated-by-reference-complement points contribute nothing.
 *
 * @param points    Objective vectors (need not be mutually non-dominated).
 * @param reference Reference point; must weakly exceed every coordinate of
 *                  interest (points beyond it are clipped out).
 */
double hypervolume(const std::vector<Objectives> &points,
                   const Objectives &reference);

/**
 * Hypervolume gained by adding candidates, one at a time, to a fixed
 * front.
 *
 * Construction clips the front into the reference box, sorts it once by
 * the third objective and stores each slab of the slicing sweep: its
 * depth, width, 2-D area, the running volume below it and its active
 * (x, y) points pre-sorted. A query then reuses the running volume up to
 * the candidate's depth, splits the slab the candidate lands in, and
 * re-sweeps only the slabs above it with the candidate merged into each
 * pre-sorted list - no allocation, and the same operations in the same
 * order as the from-scratch sum, so the result is bit-identical to
 * max(0, hypervolume(front + candidate) - hypervolume(front)). Slabs in
 * which the candidate is already 2-D dominated keep their stored area.
 *
 * References of 1 or 2 objectives take the from-scratch path. Queries are
 * const and may run concurrently.
 */
class HypervolumeContribution
{
  public:
    /**
     * @param front     Objective vectors (need not be non-dominated).
     * @param reference Reference point, as for hypervolume().
     */
    HypervolumeContribution(const std::vector<Objectives> &front,
                            const Objectives &reference);

    /**
     * Hypervolume gained by adding @p candidate to the front.
     *
     * Non-negative; zero when the candidate lies outside the reference
     * box, and (up to rounding of the slab split) when it is dominated.
     */
    double operator()(const Objectives &candidate) const;

  private:
    /** One slab [z, z + width) of the 3-D sweep. */
    struct Slab
    {
        double z;
        double width;        ///< Next level (or reference) minus z.
        double area;         ///< 2-D hypervolume of the active points.
        double volumeBelow;  ///< Running volume before this slab.
        std::size_t begin;   ///< Active (x, y) points: [begin, end) of
        std::size_t end;     ///< activeXY, sorted by (x, y).
    };

    /** 2-D area of @p slab's active points plus (x, y); false in
     *  @p grew when the point is dominated there (area unchanged). */
    double areaWith(const Slab &slab, double x, double y,
                    bool &grew) const;

    Objectives ref;
    /// Clipped front; the from-scratch path for 1-D and 2-D.
    std::vector<Objectives> clipped;
    std::vector<Slab> slabs;
    std::vector<std::array<double, 2>> activeXY;
    double base = 0.0; ///< Hypervolume of the front itself.
};

/**
 * A reference point for a point set: the componentwise maximum plus a
 * @p margin fraction of the per-component range (at least an absolute
 * floor to keep extreme points contributing).
 */
Objectives defaultReference(const std::vector<Objectives> &points,
                            double margin = 0.1);

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_HYPERVOLUME_H
