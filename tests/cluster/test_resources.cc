#include "cluster/resources.h"

#include <gtest/gtest.h>

#include "cluster/worker.h"

namespace wsva::cluster {
namespace {

TEST(ResourceVector, GetAbsentIsZero)
{
    ResourceVector rv;
    EXPECT_EQ(rv.get(Dim::SwDecode), 0.0);
    EXPECT_TRUE(rv.empty());
}

TEST(ResourceVector, SetAndGet)
{
    ResourceVector rv;
    rv.set(Dim::Encode, 3750);
    EXPECT_EQ(rv.get(Dim::Encode), 3750);
    EXPECT_EQ(rv.get(Dim::Decode), 0.0);
}

TEST(ResourceVector, SetZeroErases)
{
    ResourceVector rv;
    rv.set(Dim::Dram, 5);
    EXPECT_FALSE(rv.empty());
    rv.set(Dim::Dram, 0);
    EXPECT_TRUE(rv.empty());
    EXPECT_EQ(rv, ResourceVector{});
}

TEST(ResourceVector, AddAndSubtract)
{
    ResourceVector a{{Dim::Decode, 500.0}, {Dim::Encode, 3750.0}};
    ResourceVector b{{Dim::Decode, 100.0}};
    a.add(b);
    EXPECT_EQ(a.get(Dim::Decode), 600);
    a.subtract(b);
    EXPECT_EQ(a.get(Dim::Decode), 500);
    EXPECT_EQ(a.get(Dim::Encode), 3750);
}

TEST(ResourceVector, FitsPaperExample)
{
    // Figure 6: Worker 0 {D 0, E 7000} cannot take {D 500, E 3750};
    // Worker 1 {D 1000, E 7000} can.
    ResourceVector need{{Dim::Decode, 500.0}, {Dim::Encode, 3750.0}};
    ResourceVector worker0{{Dim::Decode, 0.0}, {Dim::Encode, 7000.0}};
    ResourceVector worker1{{Dim::Decode, 1000.0}, {Dim::Encode, 7000.0}};
    EXPECT_FALSE(worker0.fits(need));
    EXPECT_TRUE(worker1.fits(need));
}

TEST(ResourceVector, FitsTreatsMissingDimensionsAsZero)
{
    // A worker without the software-decode allowance has zero
    // capacity there; any positive need in that dimension is refused
    // however much of everything else is free.
    const ResourceVector avail =
        vcuWorkerCapacity(8ull << 30, 5000, /*sw_decode=*/0);
    ResourceVector need{{Dim::SwDecode, 1.0}};
    EXPECT_FALSE(avail.fits(need));
    need.set(Dim::SwDecode, 0.0);
    need.set(Dim::Encode, 1000.0);
    EXPECT_TRUE(avail.fits(need));
}

TEST(ResourceVector, FitsExactBoundary)
{
    ResourceVector need{{Dim::Encode, 10000.0}};
    ResourceVector avail{{Dim::Encode, 10000.0}};
    EXPECT_TRUE(avail.fits(need));
}

TEST(ResourceVector, NonNegativeDetection)
{
    ResourceVector rv{{Dim::Encode, 100.0}};
    EXPECT_TRUE(rv.nonNegative());
    ResourceVector neg;
    neg.set(Dim::HostCpu, -1);
    EXPECT_FALSE(neg.nonNegative());
}

TEST(ResourceVector, MaxUtilization)
{
    ResourceVector cap{{Dim::Decode, 3000.0}, {Dim::Encode, 10000.0}};
    ResourceVector used{{Dim::Decode, 1500.0}, {Dim::Encode, 2000.0}};
    EXPECT_DOUBLE_EQ(used.maxUtilizationVs(cap), 0.5);
}

} // namespace
} // namespace wsva::cluster
