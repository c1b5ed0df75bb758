/**
 * @file
 * Fixed-shape scalar resource vectors (Section 3.3.3).
 *
 * The bin-packing scheduler places work against a VCU worker's
 * scalar resources: fractional decode and encode cores (in
 * millicores to avoid fractions), DRAM bytes, fractional host CPU,
 * and the *synthetic* software-decode allowance that bounds PCIe
 * bandwidth indirectly. Those five are every dimension the paper's
 * worker type defines and every one this model uses, so a vector is
 * a plain five-slot array indexed by Dim: fits() is five compares,
 * copies are trivial, and a dimension a worker does not offer is
 * simply a zero slot (zero capacity, zero need).
 */

#ifndef WSVA_CLUSTER_RESOURCES_H
#define WSVA_CLUSTER_RESOURCES_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <utility>

namespace wsva::cluster {

/** The VCU worker's resource dimensions. */
enum class Dim
{
    Decode,   //!< Hardware decode millicores.
    Encode,   //!< Hardware encode millicores.
    Dram,     //!< Device DRAM bytes.
    HostCpu,  //!< Host CPU millicores.
    SwDecode, //!< Synthetic: software-decode allowance (millicores).
};

inline constexpr int kDims = 5;

/** A vector of scalar resources, one slot per Dim (absent = 0). */
class ResourceVector
{
  public:
    ResourceVector() = default;
    ResourceVector(std::initializer_list<std::pair<Dim, double>> init)
    {
        for (const auto &[d, amount] : init)
            set(d, amount);
    }

    double get(Dim d) const { return v_[idx(d)]; }
    void set(Dim d, double amount) { v_[idx(d)] = amount; }

    /** All slots, indexed by Dim. */
    const std::array<double, kDims> &amounts() const { return v_; }

    /** this += other. */
    void add(const ResourceVector &other)
    {
        for (int i = 0; i < kDims; ++i)
            v_[i] += other.v_[i];
    }

    /** this -= other (may go negative; callers check fits() first). */
    void subtract(const ResourceVector &other)
    {
        for (int i = 0; i < kDims; ++i)
            v_[i] -= other.v_[i];
    }

    /** Raise each dimension to at least @p other's amount. */
    void maxWith(const ResourceVector &other)
    {
        for (int i = 0; i < kDims; ++i)
            v_[i] = std::max(v_[i], other.v_[i]);
    }

    /** True if every dimension of @p need is <= the amount here. */
    bool fits(const ResourceVector &need) const
    {
        for (int i = 0; i < kDims; ++i) {
            if (need.v_[i] > v_[i] + 1e-9)
                return false;
        }
        return true;
    }

    /** True if all dimensions are >= 0 (sanity checks). */
    bool nonNegative() const
    {
        for (int i = 0; i < kDims; ++i) {
            if (v_[i] < -1e-9)
                return false;
        }
        return true;
    }

    /** Fraction of @p capacity in use across its busiest dimension. */
    double maxUtilizationVs(const ResourceVector &capacity) const
    {
        double worst = 0.0;
        for (int i = 0; i < kDims; ++i) {
            if (capacity.v_[i] > 0.0)
                worst = std::max(worst, v_[i] / capacity.v_[i]);
        }
        return worst;
    }

    /** True when every dimension is zero. */
    bool empty() const
    {
        for (int i = 0; i < kDims; ++i) {
            if (v_[i] != 0.0)
                return false;
        }
        return true;
    }

    bool operator==(const ResourceVector &other) const
    {
        return v_ == other.v_;
    }

  private:
    static constexpr size_t idx(Dim d) { return static_cast<size_t>(d); }

    std::array<double, kDims> v_{};
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_RESOURCES_H
