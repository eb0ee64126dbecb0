#include "report.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "params.hpp"
#include "spans.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/spmv/instance.hpp"
#include "stats.hpp"

extern char** environ;

namespace perfbench {

const std::vector<MetricSpec>& metric_table() {
  static const std::vector<MetricSpec> table = [] {
    std::vector<MetricSpec> t;
    const auto e2e = [&t](std::string n, std::string u) {
      t.push_back({std::move(n), std::move(u), Kind::kEndToEnd});
    };
    const auto layer = [&t](std::string n, std::string u) {
      t.push_back({std::move(n), std::move(u), Kind::kLayer});
    };
    e2e("setup_s", "s");
    e2e("spmv_gflops", "GFLOP/s");
    e2e("latency_p50_us", "us");

    const std::vector<std::string> six = {"csr",    "csr-du",  "csr-vi",
                                          "csr-du-vi", "sym-csr",
                                          "sym-csr-vi"};
    layer("formats.encode_s", "s");
    layer("formats.encode_melem_s", "Melem/s");
    for (const auto& f : six) {
      layer("formats.encode_s." + f, "s");
    }
    layer("formats.bytes_per_nnz", "B/nnz");
    for (const auto& f : six) {
      layer("formats.bytes_per_nnz." + f, "B/nnz");
    }
    layer("spmv.cells", "count");
    layer("spmv.prepare_s", "s");
    for (const spc::Format f : spc::all_formats()) {
      layer(std::string("spmv.ns_per_nnz.") + spc::format_name(f), "ns/nnz");
    }
    layer("spmv.latency_p90_us", "us");
    layer("spmv.ns_per_nnz_1t", "ns/nnz");
    layer("spmv.gflops_1t", "GFLOP/s");
    layer("spmv.computed_bytes_per_nnz", "B/nnz");
    layer("spmv.achieved_gbps", "GB/s");
    layer("spmv.bw_frac", "ratio");
    layer("spmv.tail_ratio", "ratio");
    layer("spmv.tiled_cells", "count");
    layer("spmv.sym_reduce_share", "ratio");
    layer("parallel.busy_frac", "ratio");
    layer("parallel.imbalance", "ratio");
    layer("parallel.dispatch_overhead_us", "us");
    layer("solvers.solve_s", "s");
    layer("solvers.cg_iterations", "count");
    layer("solvers.spmv_share", "ratio");
    layer("solvers.self_s", "s");
    layer("tune.picks", "count");
    layer("tune.pick_ms_p50", "ms");
    layer("tune.candidates", "count");
    layer("tune.cache_hit_frac", "ratio");
    layer("engine.requests", "count");
    layer("engine.register_ms_p50", "ms");
    layer("engine.register_ms_p90", "ms");
    layer("engine.latency_p90_us", "us");
    layer("engine.latency_p99_us", "us");
    layer("engine.queue_us_p50", "us");
    layer("engine.queue_us_p99", "us");
    layer("engine.exec_us_p50", "us");
    layer("engine.exec_us_p99", "us");
    layer("engine.complete_us_p50", "us");
    layer("engine.serial_frac", "ratio");
    layer("engine.batch_size", "count");
    layer("engine.backlog_max", "count");
    layer("engine.goodput_rps", "1/s");
    layer("engine.refused_frac", "ratio");
    layer("bench.gen_lag_us_p99", "us");
    layer("bench.stream_read_gbps", "GB/s");
    layer("bench.wake_us_p50", "us");
    layer("bench.wake_us_p99", "us");
    layer("bench.ws_over_llc", "ratio");
    layer("bench.trace_overhead_frac", "ratio");
    layer("bench.fail_frac", "ratio");
    layer("bench.spans", "count");
    return t;
  }();
  return table;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& m : metric_table()) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

}  // namespace

void set_if_listed(Report& rep, const std::string& name, double value) {
  if (find_spec(name) != nullptr) {
    rep.set(name, value);
  }
}

void Report::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr) {
    throw std::logic_error("unknown metric " + name);
  }
  values_[name] = value;
}

std::uint64_t Report::attempted() const {
  std::lock_guard<std::mutex> lk(check_mu_);
  return attempted_;
}

std::uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lk(check_mu_);
  return failed_;
}

void Report::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lk(check_mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
}

void Report::print(bool trace, std::ostream& os) const {
  const Kind want = trace ? Kind::kLayer : Kind::kEndToEnd;
  std::ostringstream metrics;
  bool first = true;
  for (const MetricSpec& m : metric_table()) {
    if (m.kind != want) {
      continue;
    }
    const auto it = values_.find(m.name);
    if (it == values_.end() && m.kind == Kind::kEndToEnd) {
      throw std::logic_error("end-to-end metric " + m.name + " not measured");
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    os << "metric " << std::left << std::setw(34) << m.name << " "
       << std::setw(14) << json_number(v) << " " << m.unit << "\n";
    metrics << (first ? "" : ", ") << "\"" << m.name
            << "\": {\"value\": " << json_number(v) << ", \"unit\": \""
            << m.unit << "\"}";
    first = false;
  }
  const std::uint64_t attempted = this->attempted();
  const std::uint64_t failed = this->failed();
  const bool correct = failed == 0 && attempted > 0;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
}

std::vector<std::string> spc_overrides() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPC_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      out.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                         : static_cast<std::size_t>(eq - *e));
    }
  }
  return out;
}

Machine machine() {
  const spc::obs::MachineFingerprint& fp = spc::obs::machine_fingerprint();
  Machine m;
  m.id = fp.id();
  m.cpu = fp.cpu_model;
  m.isa = fp.isa;
  m.nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  m.spmv_threads = std::min(
      m.nproc, std::max<std::size_t>(
                   2, static_cast<std::size_t>(static_cast<double>(m.nproc) *
                                               params::kSpmvThreadShare)));
  m.llc_bytes = fp.llc_bytes;
  m.git_sha = spc::obs::build_git_sha();
  return m;
}

WakeLatency wake_latency(std::size_t samples) {
  std::binary_semaphore go(0);
  std::binary_semaphore back(0);
  std::atomic<std::uint64_t> sent{0};
  std::vector<double> us;
  us.reserve(samples);
  std::thread waker([&] {
    for (std::size_t i = 0; i < samples; ++i) {
      go.acquire();
      us.push_back(static_cast<double>(clock_ns() - sent.load()) * 1e-3);
      back.release();
    }
  });
  for (std::size_t i = 0; i < samples; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    sent.store(clock_ns());
    go.release();
    back.acquire();
  }
  waker.join();
  WakeLatency w;
  w.p50_us = median(us);
  w.p99_us = tail(us).value;
  return w;
}

std::size_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

StreamRoof stream_read_roof(std::size_t bytes, std::size_t threads) {
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n);
  const auto slice = [n, threads](std::size_t t) {
    return std::make_pair(n * t / threads, n * (t + 1) / threads);
  };
  const auto parallel = [threads](auto&& body) {
    std::vector<std::thread> ts;
    for (std::size_t t = 0; t < threads; ++t) {
      ts.emplace_back(body, t);
    }
    for (auto& th : ts) {
      th.join();
    }
  };
  parallel([&](std::size_t t) {  // first touch by the reading thread
    const auto [lo, hi] = slice(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = static_cast<double>(i & 7);
    }
  });
  std::vector<double> sums(threads, 0.0);
  std::vector<double> pass_s;
  for (int pass = 0; pass < 9; ++pass) {
    const std::uint64_t t0 = clock_ns();
    parallel([&](std::size_t t) {
      const auto [lo, hi] = slice(t);
      double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      std::size_t i = lo;
      for (; i + 8 <= hi; i += 8) {
        for (int k = 0; k < 8; ++k) {
          acc[k] += a[i + k];
        }
      }
      for (; i < hi; ++i) {
        acc[0] += a[i];
      }
      double s = 0.0;
      for (const double x : acc) {
        s += x;
      }
      sums[t] += s;
    });
    if (pass > 0) {  // pass 0 warms the TLB and the threads' stacks
      pass_s.push_back(static_cast<double>(clock_ns() - t0) * 1e-9);
    }
  }
  double total = 0.0;
  for (const double s : sums) {
    total += s;
  }
  if (total < 0.0) {  // keeps the reads observable
    std::cerr << "";
  }
  StreamRoof r;
  r.array_bytes = n * sizeof(double);
  r.gbps = static_cast<double>(r.array_bytes) / median(pass_s) * 1e-9;
  return r;
}

}  // namespace perfbench
