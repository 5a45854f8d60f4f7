/**
 * @file
 * Deterministic random number generation and the truncated
 * distributions used to synthesize Table II context-length traces.
 */

#ifndef PIMPHONY_COMMON_RNG_HH
#define PIMPHONY_COMMON_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pimphony {

/**
 * MT19937-64, output for output the std::mt19937_64 sequence of the
 * same seed, written out so a draw inlines into its caller. A
 * UniformRandomBitGenerator, so the standard distributions accept it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(result_type seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (next_ == kState)
            twist();
        result_type z = state_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kState = 312;

    /** Regenerate the whole state block (once per kState draws). */
    void twist();

    result_type state_[kState];
    std::size_t next_ = kState;
};

/**
 * A 64-bit Mersenne Twister with convenience draws. All simulator
 * randomness flows through explicit Rng instances so every experiment
 * is reproducible from its seed. The workload streams are defined by
 * this code, not by the standard library's unspecified distribution
 * algorithms: uniform() and normal() return what libstdc++'s
 * uniform_real_distribution<double>(0, 1) and a fresh
 * normal_distribution<double>(0, 1) per draw return, bit for bit.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform double in [0, 1): the draw times 2^-64, as
     *  generate_canonical computes it for a 64-bit engine. */
    double
    uniform()
    {
        // double(x) * 2^-64 with one rounding, as the conversion does,
        // but from two exact 32-bit halves: no branch on the top bit.
        const std::uint64_t x = engine_();
        const auto hi = static_cast<std::int64_t>(x >> 32);
        const auto lo = static_cast<std::int64_t>(x & 0xffffffffULL);
        double u = static_cast<double>(hi) * 0x1p-32 +
                   static_cast<double>(lo) * 0x1p-64;
        // Rounding takes draws within 2^10 of 2^64 to exactly 1.0.
        if (u >= 1.0)
            u = std::nextafter(1.0, 0.0);
        return u;
    }

    /** Unit-mean exponential draw: -log(u), a zero u taken as 1e-12. */
    double
    exponential()
    {
        double u = uniform();
        return -std::log(u > 0.0 ? u : 1e-12);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /**
     * Standard normal draw: Marsaglia's polar method, returning the
     * second coordinate of the accepted pair and dropping the first.
     */
    double
    normal()
    {
        double x, y, r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        // "+ 0.0" is the distribution's "* stddev + mean" at (1, 0):
        // it turns the -0.0 of r2 == 1 into +0.0.
        return y * std::sqrt(-2.0 * std::log(r2) / r2) + 0.0;
    }

    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

/**
 * Normal distribution truncated to [lo, hi] by rejection, with the
 * underlying (pre-truncation) parameters chosen directly.
 *
 * Table II reports mean/std/min/max of real benchmark traces; a
 * truncated normal with those parameters reproduces the reported
 * moments to within a few percent, which is all the system reacts to.
 */
class TruncatedNormal
{
  public:
    TruncatedNormal(double mean, double stddev, double lo, double hi);

    double sample(Rng &rng) const;

  private:
    double mean_;
    double stddev_;
    double lo_;
    double hi_;
};

/**
 * Lognormal truncated to [lo, hi]; better tail shape for the long
 * LV-Eval traces whose std is comparable to the mean.
 */
class TruncatedLognormal
{
  public:
    /** Parameters are the target arithmetic mean/std (moment-matched).
     *  A std above the uniform's on [lo, hi], which no truncated
     *  lognormal reaches, is dropped: the mean alone is matched, at
     *  sigma = 2. */
    TruncatedLognormal(double mean, double stddev, double lo, double hi);

    double sample(Rng &rng) const;

  private:
    double mu_;
    double sigma_;
    double lo_;
    double hi_;
};

} // namespace pimphony

#endif // PIMPHONY_COMMON_RNG_HH
