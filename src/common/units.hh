/**
 * @file
 * Unit helpers: capacities, bandwidths, rates.
 */

#ifndef PIMPHONY_COMMON_UNITS_HH
#define PIMPHONY_COMMON_UNITS_HH

#include <cstdint>

#include "common/types.hh"

namespace pimphony {

inline constexpr Bytes operator""_KiB(unsigned long long v)
{
    return Bytes{v} << 10;
}

inline constexpr Bytes operator""_MiB(unsigned long long v)
{
    return Bytes{v} << 20;
}

inline constexpr Bytes operator""_GiB(unsigned long long v)
{
    return Bytes{v} << 30;
}

/** Bandwidth expressed in bytes per second. */
using BytesPerSecond = double;

inline constexpr BytesPerSecond tbPerSec(double v)
{
    return v * 1e12;
}

/** Compute rates in floating-point operations per second. */
using FlopsPerSecond = double;

inline constexpr FlopsPerSecond tflops(double v)
{
    return v * 1e12;
}

/** Integer ceiling division for tiling computations. */
template <typename T>
constexpr T
ceilDiv(T num, T den)
{
    return (num + den - 1) / den;
}

/** Round @p v up to a multiple of @p align. */
template <typename T>
constexpr T
roundUp(T v, T align)
{
    return ceilDiv(v, align) * align;
}

} // namespace pimphony

#endif // PIMPHONY_COMMON_UNITS_HH
