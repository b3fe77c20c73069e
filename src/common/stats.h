/**
 * @file
 * Small statistics helpers used by the Monte-Carlo harnesses.
 */

#ifndef CYCLONE_COMMON_STATS_H
#define CYCLONE_COMMON_STATS_H

#include <cstddef>

namespace cyclone {

/** Binomial point estimate with a normal-approximation standard error. */
struct RateEstimate
{
    size_t trials = 0;     ///< Number of Monte-Carlo shots.
    size_t successes = 0;  ///< Number of observed events (e.g. failures).
    double rate = 0.0;     ///< successes / trials.
    double stderr = 0.0;   ///< sqrt(p(1-p)/n).
};

/** Build a RateEstimate from raw counts. */
RateEstimate estimateRate(size_t successes, size_t trials);

/**
 * Wilson score interval half-width at ~95% confidence.
 *
 * More robust than the normal approximation at very low event counts,
 * which is the regime logical-error-rate estimates live in.
 */
double wilsonHalfWidth(size_t successes, size_t trials);

/**
 * One serialized statistic: its snake_case name (the JSON key and the
 * key of every text record that carries it) and the member it names.
 * Stats structs list their serialized members in a static table of
 * these, so adding a statistic is one member plus one table row.
 */
template <typename Owner, typename Value>
struct StatField
{
    const char* name;
    Value Owner::*member;
};

} // namespace cyclone

#endif // CYCLONE_COMMON_STATS_H
