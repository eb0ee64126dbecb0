#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) {
    return hi;
  }
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lo + hi);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) {
      return 0.0;
    }
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

Tail tail(std::vector<double> v, double cap, std::size_t min_beyond) {
  Tail t;
  t.n = v.size();
  if (v.empty()) {
    return t;
  }
  const double n = static_cast<double>(v.size());
  // Whole percent, rounded down, so that n * (1 - pct) >= min_beyond.
  double pct = std::floor(100.0 * (1.0 - static_cast<double>(min_beyond) / n) +
                          1e-9) /
               100.0;
  pct = std::min(pct, cap);
  if (pct < 0.5) {
    t.pct = 0.5;
    t.value = median(std::move(v));
    return t;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct * n - 1e-9));
  t.pct = pct;
  t.value = v[std::max<std::size_t>(rank, 1) - 1];
  return t;
}

Tail windowed_tail(const std::vector<double>& v, std::size_t window) {
  if (v.size() < 2 * window) {
    return tail(v);
  }
  std::vector<double> tails;
  double pct = 0.0;
  for (std::size_t lo = 0; lo + window <= v.size(); lo += window) {
    const Tail t = tail(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(lo),
        v.begin() + static_cast<std::ptrdiff_t>(lo + window)));
    tails.push_back(t.value);
    pct = t.pct;
  }
  Tail out;
  out.pct = pct;
  out.n = v.size();
  out.value = median(std::move(tails));
  return out;
}

bool backlog_growing(const std::vector<double>& depth, double growth,
                     double slack) {
  if (depth.size() < 2) {
    return false;
  }
  const std::size_t half = depth.size() / 2;
  double first = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    first += depth[i];
  }
  for (std::size_t i = half; i < depth.size(); ++i) {
    second += depth[i];
  }
  first /= static_cast<double>(half);
  second /= static_cast<double>(depth.size() - half);
  return second > growth * first + slack;
}

bool rung_passes(const Rung& r, double limit, double growth, double slack) {
  if (r.latency.empty()) {
    return false;
  }
  return windowed_tail(r.latency, kTailWindow).value <= limit &&
         !backlog_growing(r.depth, growth, slack);
}

double goodput(const std::vector<Rung>& ladder, double limit, double growth,
               double slack) {
  double best = 0.0;
  for (const Rung& r : ladder) {
    if (!rung_passes(r, limit, growth, slack)) {
      break;
    }
    best = r.rate;
  }
  return best;
}

}  // namespace perfbench
