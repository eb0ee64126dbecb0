// Tests for the benchmark's own logic: the percentile and geomean rules,
// the goodput rule, the oracle, and seed determinism of the inputs.
// Run: perfbench_selftest (exit 0 = all pass).
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "inputs.hpp"
#include "oracle.hpp"
#include "spc/spmv/instance.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + b); }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

void test_percentile_rule() {
  using perfbench::tail;
  const auto t1000 = tail(ramp(1000));
  expect(near(t1000.pct, 0.99) && near(t1000.value, 990.0),
         "1000 samples -> p99 = 990");
  const auto t100 = tail(ramp(100));
  expect(near(t100.pct, 0.90) && near(t100.value, 90.0),
         "100 samples -> p90 = 90 (10 samples beyond)");
  const auto t250 = tail(ramp(250));
  expect(near(t250.pct, 0.96) && near(t250.value, 240.0),
         "250 samples -> p96 with 10 beyond");
  const auto t15 = tail(ramp(15));
  expect(near(t15.pct, 0.5) && near(t15.value, 8.0),
         "15 samples -> median");
  const auto t120 = tail(ramp(120), 0.90);
  expect(near(t120.pct, 0.90) && near(t120.value, 108.0),
         "cap 0.90 on 120 samples -> p90");
  std::vector<double> refused = ramp(1000);
  for (int i = 0; i < 11; ++i) {
    refused[static_cast<std::size_t>(i)] =
        std::numeric_limits<double>::infinity();
  }
  expect(std::isinf(tail(refused).value), "11 refusals in 1000 -> p99 inf");
  expect(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
  expect(near(perfbench::median({4, 1, 2, 3}), 2.5), "even median");
  expect(near(perfbench::geomean({1.0, 4.0}), 2.0), "geomean(1,4) = 2");
  expect(near(perfbench::geomean({2.0, 2.0, 2.0}), 2.0), "geomean const");
  expect(perfbench::geomean({1.0, 0.0}) == 0.0, "geomean with 0 -> 0");
}

perfbench::Rung rung(double rate, double lat_us, int refused,
                     std::vector<double> depth) {
  perfbench::Rung r;
  r.rate = rate;
  r.latency.assign(2000, lat_us);
  for (int i = 0; i < refused; ++i) {  // spread over the whole rung
    r.latency[static_cast<std::size_t>(i * (2000 / refused))] =
        std::numeric_limits<double>::infinity();
  }
  r.depth = std::move(depth);
  return r;
}

void test_goodput_rule() {
  using perfbench::goodput;
  const std::vector<double> flat(20, 1.0);
  std::vector<double> growing;
  for (int i = 0; i < 20; ++i) {
    growing.push_back(10.0 * i);
  }
  const double lim = 5000.0;
  expect(!perfbench::backlog_growing(flat, 2.0, 8.0), "flat backlog");
  expect(perfbench::backlog_growing(growing, 2.0, 8.0), "growing backlog");
  // All pass: goodput is the top rung.
  expect(goodput({rung(1000, 300, 0, flat), rung(2000, 400, 0, flat)}, lim,
                 2.0, 8.0) == 2000.0,
         "all rungs pass");
  // Latency over the limit fails the rung.
  expect(goodput({rung(1000, 300, 0, flat), rung(2000, 6000, 0, flat)}, lim,
                 2.0, 8.0) == 1000.0,
         "p99 over limit fails");
  // Refusals count as misses: 1% refused pushes p99 to infinity.
  expect(goodput({rung(1000, 300, 0, flat), rung(2000, 300, 25, flat)}, lim,
                 2.0, 8.0) == 1000.0,
         "refusals count as misses");
  // 19 refusals of 2000 leave p99 within the limit.
  expect(goodput({rung(1000, 300, 0, flat), rung(2000, 300, 19, flat)}, lim,
                 2.0, 8.0) == 2000.0,
         "refusals below 1% pass");
  // A growing backlog fails even with good latency.
  expect(goodput({rung(1000, 300, 0, flat), rung(2000, 300, 0, growing)},
                 lim, 2.0, 8.0) == 1000.0,
         "growing backlog fails");
  // A pass above a failing rung does not count.
  expect(goodput({rung(1000, 300, 0, flat), rung(2000, 9000, 0, flat),
                  rung(3000, 300, 0, flat)},
                 lim, 2.0, 8.0) == 1000.0,
         "goodput stops at the first failing rung");
  expect(goodput({rung(1000, 9000, 0, flat)}, lim, 2.0, 8.0) == 0.0,
         "first rung fails -> 0");
  // The tail is the median of per-window p99s: a stall confined to one
  // window of five does not fail the rung, one spread over three does.
  perfbench::Rung stalled;
  stalled.rate = 3000;
  stalled.latency.assign(5000, 300.0);
  stalled.depth = flat;
  for (int i = 0; i < 40; ++i) {
    stalled.latency[1000 + static_cast<std::size_t>(i)] = 20000.0;
  }
  expect(perfbench::rung_passes(stalled, lim, 2.0, 8.0),
         "one stalled window of five passes");
  for (int w = 2; w <= 3; ++w) {
    for (int i = 0; i < 40; ++i) {
      stalled.latency[static_cast<std::size_t>(w * 1000 + i)] = 20000.0;
    }
  }
  expect(!perfbench::rung_passes(stalled, lim, 2.0, 8.0),
         "three stalled windows of five fail");
  expect(perfbench::windowed_tail(ramp(1500), 1000).value ==
             perfbench::tail(ramp(1500)).value,
         "under two windows -> plain tail");
}

void test_oracle() {
  spc::Rng rng(7);
  const spc::Triplets t = perfbench::rmat(10, 6000, 0, rng);
  const spc::Vector x = perfbench::seeded_vector(t.ncols(), rng);
  const perfbench::Reference ref = perfbench::reference_spmv(t, x);
  for (const spc::Format f :
       {spc::Format::kCsr, spc::Format::kCsrDu, spc::Format::kCsrVi}) {
    spc::SpmvInstance inst(t, f, 2);
    spc::Vector y(t.nrows(), 0.0);
    inst.run(x, y);
    expect(perfbench::mismatches(y, ref, 1e-12) == 0,
           "instance agrees with the oracle: " + spc::format_name(f));
  }
  spc::Vector y = ref.y;
  std::size_t row = 0;
  while (ref.mag[row] == 0.0) {
    ++row;
  }
  y[row] += 1e-9 * ref.mag[row];
  expect(perfbench::mismatches(y, ref, 1e-12) == 1, "perturbed y caught");
  y = ref.y;
  y[row] = std::numeric_limits<double>::quiet_NaN();
  expect(perfbench::mismatches(y, ref, 1e-12) == 1, "NaN caught");
  y = ref.y;
  y.pop_back();
  expect(perfbench::mismatches(y, ref, 1e-12) > 0, "short y caught");
  // Reassociation within the bound is accepted.
  y = ref.y;
  y[row] += 1e-14 * ref.mag[row];
  expect(perfbench::mismatches(y, ref, 1e-12) == 0, "rounding accepted");
}

bool same(const spc::Triplets& a, const spc::Triplets& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.entries() == b.entries();
}

void test_seed_determinism() {
  const auto a = perfbench::cache_matrices(11);
  const auto b = perfbench::cache_matrices(11);
  const auto c = perfbench::cache_matrices(12);
  bool all_same = a.size() == b.size();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    all_same = all_same && same(a[i].t, b[i].t);
    any_diff = any_diff || !same(a[i].t, c[i].t);
    expect(a[i].t.is_sorted_unique(), a[i].name + " sorted and unique");
  }
  expect(all_same, "same seed -> same cache matrices");
  expect(any_diff, "another seed -> other matrices");
  const auto ta = perfbench::serve_tenants(5);
  const auto tb = perfbench::serve_tenants(5);
  bool tenants_same = ta.size() == tb.size() && ta.size() == 4;
  for (std::size_t i = 0; tenants_same && i < ta.size(); ++i) {
    tenants_same = same(ta[i].t, tb[i].t);
  }
  expect(tenants_same, "same seed -> same tenants");
  expect(same(perfbench::churn_matrix(5, 3).t, perfbench::churn_matrix(5, 3).t),
         "same seed -> same arrival matrix");

  const std::vector<double> w = {0.55, 0.2, 0.15, 0.1};
  spc::Rng r1(3), r2(3), r3(4);
  const auto s1 = perfbench::poisson_schedule(2000, 1.0, w, 8, 0.03, r1);
  const auto s2 = perfbench::poisson_schedule(2000, 1.0, w, 8, 0.03, r2);
  const auto s3 = perfbench::poisson_schedule(2000, 1.0, w, 8, 0.03, r3);
  bool sched_same = s1.size() == s2.size();
  for (std::size_t i = 0; sched_same && i < s1.size(); ++i) {
    sched_same = s1[i].due_s == s2[i].due_s && s1[i].tenant == s2[i].tenant &&
                 s1[i].xvar == s2[i].xvar && s1[i].check == s2[i].check;
  }
  expect(sched_same, "same seed -> same arrival schedule");
  expect(s1.size() != s3.size() || s1[0].due_s != s3[0].due_s,
         "another seed -> another schedule");
  expect(s1.size() > 1800 && s1.size() < 2200, "Poisson count near rate");
  std::size_t hot = 0;
  for (const auto& q : s1) {
    hot += q.tenant == 0 ? 1 : 0;
  }
  expect(hot * 2 > s1.size(), "hot tenant takes over half the requests");
  spc::Rng p1(9), p2(9);
  const auto c1 = perfbench::churn_plan(120, 0.5, p1);
  const auto c2 = perfbench::churn_plan(120, 0.5, p2);
  bool plan_same = c1.size() == c2.size();
  std::size_t repeats = 0;
  for (std::size_t i = 0; plan_same && i < c1.size(); ++i) {
    plan_same = c1[i].matrix == c2[i].matrix && c1[i].repeat == c2[i].repeat;
    repeats += c1[i].repeat ? 1 : 0;
  }
  expect(plan_same, "same seed -> same arrival order");
  expect(!c1[0].repeat && repeats > 30 && repeats < 90,
         "about half the arrivals repeat");
  expect(perfbench::sub_seed(1, "a") != perfbench::sub_seed(1, "b") &&
             perfbench::sub_seed(1, "a") == perfbench::sub_seed(1, "a"),
         "sub_seed separates tags");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_goodput_rule();
  test_oracle();
  test_seed_determinism();
  if (failures != 0) {
    std::cerr << failures << " selftest check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
