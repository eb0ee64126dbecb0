// perfbench — the repository benchmark.
//
//   perfbench --workload <spmv-cache|serve-churn>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints a context line, one "metric" line per metric and, as the last
// line, a JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the run's spans are written to <out-dir> as Chrome
// trace-event JSON. Exits 1 when any output check failed, 2 on bad
// arguments or a refused environment.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <spmv-cache|serve-churn> "
               "--seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string out_dir;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + a);
    }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        out_dir = v;
      } else {
        return usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_seed || out_dir.empty() || !(o.seconds > 0.0)) {
    return usage("--seed, --seconds and --out-dir are required");
  }
  const auto overrides = perfbench::spc_overrides();
  if (!overrides.empty()) {
    std::string names;
    for (const auto& n : overrides) {
      names += " " + n;
    }
    return usage("refusing to measure with SPC_* overrides set:" + names);
  }
  void (*run)(const perfbench::RunOptions&, const perfbench::Machine&,
              perfbench::Report&, perfbench::SpanLog&) = nullptr;
  if (o.workload == "spmv-cache") {
    run = perfbench::run_spmv_cache;
  } else if (o.workload == "serve-churn") {
    run = perfbench::run_serve_churn;
  } else {
    return usage("unknown workload '" + o.workload + "'");
  }

  namespace fs = std::filesystem;
  o.tmp_dir = (fs::path(out_dir) / ("tmp-" + std::to_string(getpid())))
                  .string();
  fs::create_directories(o.tmp_dir);
  const perfbench::Machine mach = perfbench::machine();
  std::cout << "context: workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " machine_id=" << mach.id << " cpu=\"" << mach.cpu
            << "\" isa=" << mach.isa << " nproc=" << mach.nproc
            << " spmv_threads=" << mach.spmv_threads
            << " llc_bytes=" << mach.llc_bytes << " git_sha=" << mach.git_sha
            << "\n";
  perfbench::Report rep;
  perfbench::SpanLog log(o.trace);
  int code = 0;
  try {
    run(o, mach, rep, log);
    rep.set("bench.fail_frac",
            rep.attempted() == 0
                ? 1.0
                : static_cast<double>(rep.failed()) /
                      static_cast<double>(rep.attempted()));
    rep.set("bench.spans", static_cast<double>(log.size()));
    if (o.trace) {
      const std::string path =
          (fs::path(out_dir) / ("trace-" + o.workload + "-seed" +
                                std::to_string(o.seed) + ".json"))
              .string();
      if (!log.write_chrome(path)) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        code = 1;
      } else {
        std::cout << "trace: " << log.size() << " spans -> " << path << "\n";
      }
    }
    std::cout << "peak_rss: " << perfbench::peak_rss_bytes() << " B\n";
    rep.print(o.trace, std::cout);
    if (rep.failed() != 0 || rep.attempted() == 0) {
      code = 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    code = 1;
  }
  std::error_code ec;
  fs::remove_all(o.tmp_dir, ec);
  return code;
}
