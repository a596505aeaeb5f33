#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

const char* ClsName(Cls c) {
  switch (c) {
    case Cls::kEnd: return "end";
    case Cls::kStage: return "stage";
    case Cls::kStep: return "step";
    case Cls::kIndependent: return "independent";
    case Cls::kCqa: return "cqa";
    case Cls::kUpdate: return "update";
  }
  return "?";
}

Cls RepairCls(const std::string& semantics) {
  if (semantics == "end") return Cls::kEnd;
  if (semantics == "stage") return Cls::kStage;
  if (semantics == "step") return Cls::kStep;
  return Cls::kIndependent;
}

void SampleLog::Add(Cls cls, double ms, bool failed, uint64_t cycle) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({cls, ms, failed, cycle});
  if (failed) ++failed_;
}

std::vector<Sample> SampleLog::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

uint64_t SampleLog::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

uint64_t SampleLog::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Layers::Add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += v;
}

void Layers::Set(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = v;
}

double Layers::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

std::map<std::string, double> Layers::values() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

double PhaseCheck::Other(const char* what, double latency_ms,
                         double phases_ms) {
  const double other = latency_ms - phases_ms;
  std::lock_guard<std::mutex> lock(mu_);
  ++checked_;
  // Phase timers run inside the measured interval; allow only clock
  // granularity.
  if (other < -0.01) {
    ++overruns_;
    if (examples_.size() < 5) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: phases %.4f ms exceed latency %.4f ms", what,
                    phases_ms, latency_ms);
      examples_.push_back(buf);
    }
  }
  return other;
}

uint64_t PhaseCheck::checked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checked_;
}

uint64_t PhaseCheck::overruns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overruns_;
}

std::vector<std::string> PhaseCheck::examples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return examples_;
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                     uint64_t request_id) {
  const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
  std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back({name, start_ns, end_ns, tid, request_id});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recs_.size();
}

bool SpanLog::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  uint64_t base = UINT64_MAX;
  for (const Rec& r : recs_) base = std::min(base, r.start_ns);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                  i == 0 ? "" : ",\n", r.name, r.tid,
                  static_cast<double>(r.start_ns - base) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<unsigned long long>(r.request_id));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Checks::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++checks_;
  failures_.push_back(what);
}

void Checks::Count() {
  std::lock_guard<std::mutex> lock(mu_);
  ++checks_;
}

bool Checks::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

std::vector<std::string> Checks::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

uint64_t Checks::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double Percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(xs.size())));
  if (rank < 1) rank = 1;
  if (rank > xs.size()) rank = xs.size();
  return xs[rank - 1];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double TailPercentileFor(size_t n) {
  for (double pct : {99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0,
                     75.0, 50.0}) {
    const double above =
        static_cast<double>(n) -
        std::ceil(pct / 100.0 * static_cast<double>(n));
    if (above >= 10) return pct;
  }
  return 50.0;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// The per-layer metrics of a trace run, in output order (BENCHMARK.json's
/// per_layer list).
constexpr const char* kLayerMetrics[] = {
    "datalog.eval_ms",
    "datalog.assignments",
    "datalog.resolve_ms",
    "relation.first_touch_ms",
    "repair.fixpoint_rounds",
    "repair.traverse_ms",
    "repair.other_ms",
    "provenance.process_ms",
    "provenance.graph_nodes",
    "provenance.cone_ms",
    "provenance.slice_ms",
    "provenance.cone_clauses",
    "sat.solve_ms",
    "sat.cnf_clauses",
    "sat.conflicts",
    "sat.solve_calls",
    "sat.inprocess_runs",
    "cqa.ground_ms",
    "cqa.space_ms",
    "cqa.entail_ms",
    "cqa.other_ms",
    "cqa.sliced_solves",
    "cqa.slice_fallbacks",
    "cqa.undecided_answers",
    "service.queue_wait_ms",
    "service.execute_ms",
    "service.overhead_ms",
    "service.update_ms",
    "service.wal_bytes",
    "service.store_open_ms",
    "service.inc_build_ms",
    "service.inc_syncs",
    "service.inc_cold_rebuilds",
    "service.inc_cold_repairs",
    "service.inc_verdict_hit_ratio",
    "service.inc_components_reused_ratio",
    "workload.generate_ms",
    "trace.overhead_pct",
    "trace.spans",
    "trace.phase_overruns",
};

/// Units of the per-layer metrics; anything unlisted is a count.
const char* LayerUnit(const std::string& name) {
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
    return "ms";
  }
  if (name.find("ratio") != std::string::npos) return "ratio";
  if (name.find("bytes") != std::string::npos) return "bytes";
  if (name.find("pct") != std::string::npos) return "%";
  return "count";
}

void AppendMetric(std::string* out, bool* first, const std::string& name,
                  double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                *first ? "" : ", ", name.c_str(), value, unit);
  *out += buf;
  *first = false;
}

}  // namespace

void PrintResult(const Options& opts, const RunReport& report,
                 const SampleLog& log, const Layers& layers,
                 const Checks& checks, const PhaseCheck& phases) {
  const std::vector<Sample> samples = log.samples();
  std::vector<double> all;
  std::map<Cls, std::pair<double, uint64_t>> by_cls;
  // (class, cycle) -> latency sum and count; cycle -> request count.
  std::map<std::pair<Cls, uint64_t>, std::pair<double, uint64_t>> by_cycle;
  std::map<uint64_t, uint64_t> cycle_requests;
  for (const Sample& s : samples) {
    all.push_back(s.ms);
    by_cls[s.cls].first += s.ms;
    by_cls[s.cls].second += 1;
    by_cycle[{s.cls, s.cycle}].first += s.ms;
    by_cycle[{s.cls, s.cycle}].second += 1;
    cycle_requests[s.cycle] += 1;
  }
  auto median_mean = [&](Cls c) {
    std::vector<double> means;
    for (const auto& [key, sum] : by_cycle) {
      if (key.first == c) {
        means.push_back(sum.first / static_cast<double>(sum.second));
      }
    }
    return Median(means);
  };
  std::vector<double> rates;
  for (size_t c = 0; c < report.cycle_s.size(); ++c) {
    if (report.cycle_s[c] > 0) {
      rates.push_back(static_cast<double>(cycle_requests[c]) /
                      report.cycle_s[c]);
    }
  }
  const double ops_per_s = Median(rates);
  double tail_pct = report.tail_pct;
  if (TailPercentileFor(all.size()) < tail_pct) {
    tail_pct = TailPercentileFor(all.size());
  }
  const double tail = Percentile(all, tail_pct);

  std::printf("workload %s seed %llu: %llu rounds in %zu cycles, %zu"
              " requests in %.2f s (setup %.3f s)\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(report.rounds),
              report.cycle_s.size(), all.size(), report.measured_s,
              report.setup_s);
  for (const auto& [cls, sum] : by_cls) {
    std::printf("  %-12s %6llu requests, mean %.3f ms, median of cycle"
                " means %.3f ms\n",
                ClsName(cls), static_cast<unsigned long long>(sum.second),
                sum.first / static_cast<double>(sum.second),
                median_mean(cls));
  }
  std::printf("  tail_ms is p%.1f over %zu samples: %.3f ms\n", tail_pct,
              all.size(), tail);
  std::printf("  checks: %llu run, %zu failed; phases summed on %llu"
              " requests, %llu overran their latency\n",
              static_cast<unsigned long long>(checks.count()),
              checks.failures().size(),
              static_cast<unsigned long long>(phases.checked()),
              static_cast<unsigned long long>(phases.overruns()));
  for (const std::string& f : checks.failures()) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  for (const std::string& v : phases.examples()) {
    std::printf("  phase overrun: %s\n", v.c_str());
  }

  std::string metrics;
  bool first = true;
  std::vector<std::string> unlisted;
  if (!opts.trace) {
    AppendMetric(&metrics, &first, "setup_s", report.setup_s, "s");
    AppendMetric(&metrics, &first, "peak_rss_mb", PeakRssMb(), "MB");
    AppendMetric(&metrics, &first, "ops_per_s", ops_per_s, "ops/s");
    AppendMetric(&metrics, &first, "tail_ms", tail, "ms");
    const std::pair<const char*, Cls> classes[] = {
        {"end_ms", Cls::kEnd},
        {"stage_ms", Cls::kStage},
        {"step_ms", Cls::kStep},
        {"independent_ms", Cls::kIndependent},
        {"cqa_ms", Cls::kCqa},
    };
    for (const auto& [name, cls] : classes) {
      AppendMetric(&metrics, &first, name, median_mean(cls), "ms");
    }
  } else {
    // Every workload reports the whole list; a layer a workload does not
    // reach reads 0.
    std::map<std::string, double> values = layers.values();
    values["trace.phase_overruns"] =
        static_cast<double>(phases.overruns()) /
        static_cast<double>(std::max<uint64_t>(report.rounds, 1));
    for (const char* name : kLayerMetrics) {
      AppendMetric(&metrics, &first, name, values[name], LayerUnit(name));
      values.erase(name);
    }
    for (const auto& [name, value] : values) {
      unlisted.push_back(name);
    }
  }
  for (const std::string& name : unlisted) {
    std::printf("  UNLISTED LAYER METRIC: %s\n", name.c_str());
  }
  const bool correct = checks.ok() && unlisted.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(log.attempted()),
              static_cast<unsigned long long>(log.failed()), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload batch_repair|cqa_shared_cone|"
               "serve_mixed --seed N --seconds S [--trace 0|1]"
               " [--trace-out PATH] [--work-dir DIR] [--corrupt CHECK]"
               " [--verbose 0|1]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--corrupt") {
      opts.corrupt = value;
    } else if (arg == "--verbose") {
      opts.verbose = value == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.seconds <= 0) return Usage(argv[0]);
  if (opts.workload == "batch_repair") return perfbench::RunBatchRepair(opts);
  if (opts.workload == "cqa_shared_cone") {
    return perfbench::RunCqaSharedCone(opts);
  }
  if (opts.workload == "serve_mixed") return perfbench::RunServeMixed(opts);
  return Usage(argv[0]);
}
