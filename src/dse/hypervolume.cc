#include "dse/hypervolume.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace autopilot::dse
{

namespace
{

using util::panicIf;

/** Clip points into the reference box; drop points with no volume. */
std::vector<Objectives>
clipToReference(const std::vector<Objectives> &points,
                const Objectives &reference)
{
    std::vector<Objectives> clipped;
    for (const Objectives &point : points) {
        panicIf(point.size() != reference.size(),
                "hypervolume: dimension mismatch");
        bool has_volume = true;
        for (std::size_t d = 0; d < point.size(); ++d) {
            if (point[d] >= reference[d]) {
                has_volume = false;
                break;
            }
        }
        if (has_volume)
            clipped.push_back(point);
    }
    return clipped;
}

double
hv1(const std::vector<Objectives> &points, const Objectives &reference)
{
    double best = reference[0];
    for (const Objectives &point : points)
        best = std::min(best, point[0]);
    return reference[0] - best;
}

/** (x, y) order of hv2's sweep: first objective, then second. */
bool
sweepBefore(double ax, double ay, double bx, double by)
{
    if (ax != bx)
        return ax < bx;
    return ay < by;
}

/**
 * One step of hv2's sweep, same operations: add the strip of point
 * (x, y) if it lies below every point swept so far. False when the point
 * is dominated.
 */
bool
sweepStep(double ref_x, double x, double y, double &prev_y,
          double &volume)
{
    if (!(y < prev_y))
        return false;
    volume += (ref_x - x) * (prev_y - y);
    prev_y = y;
    return true;
}

/** 2-D sweep: sort by first objective ascending, accumulate strips. */
double
hv2(std::vector<Objectives> points, const Objectives &reference)
{
    std::sort(points.begin(), points.end(),
              [](const Objectives &a, const Objectives &b) {
                  if (a[0] != b[0])
                      return a[0] < b[0];
                  return a[1] < b[1];
              });
    double volume = 0.0;
    double prev_y = reference[1];
    for (const Objectives &point : points) {
        if (point[1] < prev_y) {
            volume += (reference[0] - point[0]) * (prev_y - point[1]);
            prev_y = point[1];
        }
    }
    return volume;
}

/**
 * 3-D slicing: sweep the third objective; each slab's cross-section is the
 * 2-D hypervolume of the points already "active" at that depth.
 */
double
hv3(std::vector<Objectives> points, const Objectives &reference)
{
    std::sort(points.begin(), points.end(),
              [](const Objectives &a, const Objectives &b) {
                  return a[2] < b[2];
              });
    double volume = 0.0;
    std::vector<Objectives> active;
    for (std::size_t i = 0; i < points.size(); ++i) {
        active.push_back({points[i][0], points[i][1]});
        const double z_lo = points[i][2];
        const double z_hi =
            (i + 1 < points.size()) ? points[i + 1][2] : reference[2];
        if (z_hi > z_lo) {
            volume += hv2(active, {reference[0], reference[1]}) *
                      (z_hi - z_lo);
        }
    }
    return volume;
}

} // namespace

double
hypervolume(const std::vector<Objectives> &points,
            const Objectives &reference)
{
    panicIf(reference.empty(), "hypervolume: empty reference");
    const std::vector<Objectives> clipped =
        clipToReference(points, reference);
    if (clipped.empty())
        return 0.0;
    switch (reference.size()) {
      case 1: return hv1(clipped, reference);
      case 2: return hv2(clipped, reference);
      case 3: return hv3(clipped, reference);
      default:
        util::fatal("hypervolume: only 1-3 objectives supported");
    }
}

HypervolumeContribution::HypervolumeContribution(
    const std::vector<Objectives> &front, const Objectives &reference)
    : ref(reference)
{
    panicIf(reference.empty(), "hypervolume: empty reference");
    clipped = clipToReference(front, reference);
    if (reference.size() != 3) {
        base = hypervolume(clipped, reference);
        return;
    }

    // The slabs of hv3 over the clipped front: one per distinct depth
    // (zero-width slabs add nothing), each with the (x, y) points active
    // at that depth kept in sweep order.
    std::sort(clipped.begin(), clipped.end(),
              [](const Objectives &a, const Objectives &b) {
                  return a[2] < b[2];
              });
    std::vector<std::array<double, 2>> active;
    active.reserve(clipped.size());
    for (std::size_t i = 0; i < clipped.size(); ++i) {
        const std::array<double, 2> xy = {clipped[i][0], clipped[i][1]};
        active.insert(std::upper_bound(active.begin(), active.end(), xy,
                                       [](const auto &a, const auto &b) {
                                           return sweepBefore(a[0], a[1],
                                                              b[0], b[1]);
                                       }),
                      xy);
        const double z_lo = clipped[i][2];
        const double z_hi =
            (i + 1 < clipped.size()) ? clipped[i + 1][2] : reference[2];
        if (!(z_hi > z_lo))
            continue;
        Slab slab{z_lo, z_hi - z_lo, 0.0, base, activeXY.size(), 0};
        activeXY.insert(activeXY.end(), active.begin(), active.end());
        slab.end = activeXY.size();
        double prev_y = reference[1];
        for (const auto &[x, y] : active)
            sweepStep(reference[0], x, y, prev_y, slab.area);
        base += slab.area * slab.width;
        slabs.push_back(slab);
    }
}

double
HypervolumeContribution::areaWith(const Slab &slab, double x, double y,
                                  bool &grew) const
{
    double area = 0.0;
    double prev_y = ref[1];
    grew = false;
    bool pending = true;
    for (std::size_t i = slab.begin; i < slab.end; ++i) {
        const auto &[px, py] = activeXY[i];
        if (pending && sweepBefore(x, y, px, py)) {
            grew = sweepStep(ref[0], x, y, prev_y, area);
            pending = false;
        }
        sweepStep(ref[0], px, py, prev_y, area);
    }
    if (pending)
        grew = sweepStep(ref[0], x, y, prev_y, area);
    return area;
}

double
HypervolumeContribution::operator()(const Objectives &candidate) const
{
    panicIf(candidate.size() != ref.size(),
            "hypervolume: dimension mismatch");
    if (ref.size() != 3) {
        std::vector<Objectives> extended = clipped;
        extended.push_back(candidate);
        return std::max(0.0, hypervolume(extended, ref) - base);
    }
    for (std::size_t d = 0; d < 3; ++d) {
        if (candidate[d] >= ref[d])
            return 0.0; // Clipped out: the grown set is the front.
    }

    // Replay hv3 over front + candidate. Slabs below the candidate's
    // depth are unchanged, so their running volume is reused.
    const double x = candidate[0];
    const double y = candidate[1];
    const double z = candidate[2];
    std::size_t k = static_cast<std::size_t>(
        std::lower_bound(slabs.begin(), slabs.end(), z,
                         [](const Slab &slab, double depth) {
                             return slab.z < depth;
                         }) -
        slabs.begin());
    bool grew = true;
    double grown = 0.0;
    if (k < slabs.size() && slabs[k].z == z) {
        grown = slabs[k].volumeBelow;
    } else {
        // The candidate opens a new level: the slab below it is cut at
        // z, and the new slab holds that slab's points plus the
        // candidate up to the next level.
        double area = 0.0;
        if (k > 0) {
            const Slab &below = slabs[k - 1];
            grown = below.volumeBelow + below.area * (z - below.z);
            area = areaWith(below, x, y, grew);
        } else {
            double prev_y = ref[1];
            sweepStep(ref[0], x, y, prev_y, area);
        }
        const double z_hi = k < slabs.size() ? slabs[k].z : ref[2];
        grown += area * (z_hi - z);
    }
    for (; k < slabs.size(); ++k) {
        // Once the candidate is dominated in a slab's cross-section it
        // stays dominated above (the active set only grows), and the
        // sweep with it is the stored one.
        const double area =
            grew ? areaWith(slabs[k], x, y, grew) : slabs[k].area;
        grown += area * slabs[k].width;
    }
    return std::max(0.0, grown - base);
}

Objectives
defaultReference(const std::vector<Objectives> &points, double margin)
{
    panicIf(points.empty(), "defaultReference: empty point set");
    const std::size_t dims = points.front().size();
    Objectives lo = points.front();
    Objectives hi = points.front();
    for (const Objectives &point : points) {
        panicIf(point.size() != dims, "defaultReference: ragged points");
        for (std::size_t d = 0; d < dims; ++d) {
            lo[d] = std::min(lo[d], point[d]);
            hi[d] = std::max(hi[d], point[d]);
        }
    }
    Objectives reference(dims, 0.0);
    for (std::size_t d = 0; d < dims; ++d) {
        const double range = hi[d] - lo[d];
        const double pad = std::max(range * margin, 1e-6);
        reference[d] = hi[d] + pad;
    }
    return reference;
}

} // namespace autopilot::dse
