// Order statistics and the serving rules the benchmark reports with.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (average of the middle two for even sizes); 0 for empty input.
double median(std::vector<double> v);

/// Geometric mean of positive values; 0 when empty or any value <= 0.
double geomean(const std::vector<double>& v);

/// A tail percentile: the highest whole percentile, capped at `cap`,
/// that has at least `min_beyond` samples strictly above it (nearest-rank
/// order statistic). Falls back to the median when the sample count
/// cannot support anything higher. Infinite samples (refused requests)
/// sort last, so they count as misses.
struct Tail {
  double pct = 0.0;    ///< e.g. 0.99
  double value = 0.0;  ///< the order statistic at `pct`
  std::size_t n = 0;   ///< sample count
};
Tail tail(std::vector<double> v, double cap = 0.99,
          std::size_t min_beyond = 10);

/// The median over consecutive windows of `window` samples (in arrival
/// order) of each window's tail(); a trailing partial window is dropped
/// unless it is the only one. Rare host stalls then move one window's
/// tail instead of the whole phase's.
Tail windowed_tail(const std::vector<double>& v, std::size_t window);

/// True when a phase's queue kept growing: the mean of the second half of
/// the depth samples exceeds growth x the first half's mean + slack.
bool backlog_growing(const std::vector<double>& depth, double growth,
                     double slack);

/// One rung of an open-loop rate ladder.
struct Rung {
  double rate = 0.0;             ///< offered requests/s
  std::vector<double> latency;   ///< per request; +inf = refused/failed
  std::vector<double> depth;     ///< sampled queue depth over the phase
};

/// Requests per tail window (>= 10 samples beyond a p99).
inline constexpr std::size_t kTailWindow = 1000;

/// A rung passes when its windowed tail latency meets `limit` (refusals
/// count as misses) and its backlog is not growing.
bool rung_passes(const Rung& r, double limit, double growth, double slack);

/// Goodput: the highest rate of the ascending ladder such that it and
/// every lower rung pass; 0 when the first rung fails.
double goodput(const std::vector<Rung>& ladder, double limit, double growth,
               double slack);

}  // namespace perfbench
