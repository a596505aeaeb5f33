// Shared machinery of the perfbench binary: command-line options, the
// per-request sample log, the per-layer metric sums, the benchmark's own
// span recorder (Chrome trace export) and the result line.
//
// Every workload is a closed loop of identical rounds. A round is a fixed,
// seed-generated list of requests; the measured phase runs whole rounds
// until --seconds have passed, so the share of failed requests is the
// same in every run. Rounds are grouped into cycles (the smallest run of
// rounds that issues every request of the workload); the latency and
// throughput metrics are medians over cycles, so a burst of stolen CPU
// that slows one cycle does not move them.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace output of the benchmark's own spans (trace runs).
  std::string trace_out;
  /// Scratch directory for stores and trace files.
  std::string work_dir = ".bench_build/work";
  /// Name of a check to sabotage by corrupting one result before it is
  /// checked (the check must then fail); empty = none.
  std::string corrupt;
  /// Print every request of the first round with its latency and work.
  bool verbose = false;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Stopwatch {
 public:
  Stopwatch() : start_(NowNs()) {}
  double Ms() const { return static_cast<double>(NowNs() - start_) / 1e6; }
  double Seconds() const { return Ms() / 1e3; }

 private:
  uint64_t start_;
};

/// Request classes the end-to-end latency metrics are split by.
enum class Cls { kEnd, kStage, kStep, kIndependent, kCqa, kUpdate };
const char* ClsName(Cls c);
/// Repair class of a semantics registry name.
Cls RepairCls(const std::string& semantics);

/// One completed request of the measured phase.
struct Sample {
  Cls cls;
  double ms;
  bool failed;
  uint64_t cycle;  // index of the cycle of rounds it ran in
};

/// Thread-safe log of measured requests plus the attempted/failed
/// counters.
class SampleLog {
 public:
  void Add(Cls cls, double ms, bool failed, uint64_t cycle);
  std::vector<Sample> samples() const;
  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  uint64_t failed_ = 0;
};

/// Per-layer metric sums (trace runs). Names follow src/ modules.
class Layers {
 public:
  void Add(const std::string& name, double v);
  void Set(const std::string& name, double v);
  double Get(const std::string& name) const;
  std::map<std::string, double> values() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;
};

/// Records the phases of one request against its measured latency;
/// `other_ms` is the latency the phases leave over, so phases + other_ms
/// add up to the latency by construction. A request whose reported phases
/// exceed its latency (other_ms < 0) reports timers of work it did not
/// do; such overruns are counted and listed, not hidden.
class PhaseCheck {
 public:
  /// Returns other_ms = latency - sum(phases).
  double Other(const char* what, double latency_ms, double phases_ms);
  uint64_t checked() const;
  uint64_t overruns() const;
  /// The first few overruns, described.
  std::vector<std::string> examples() const;

 private:
  mutable std::mutex mu_;
  uint64_t checked_ = 0;
  uint64_t overruns_ = 0;
  std::vector<std::string> examples_;
};

/// The benchmark's own spans around its calls into each layer. Recording
/// is off unless Enable(true); Chrome trace_event export at the end.
class SpanLog {
 public:
  static SpanLog& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t request_id);
  size_t size() const;
  bool WriteChrome(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    uint64_t start_ns, end_ns;
    uint32_t tid;
    uint64_t request_id;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
};

/// RAII span: records [construction, destruction) when span logging is
/// on. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0)
      : name_(name), request_id_(request_id), start_(NowNs()) {}
  ~Span() {
    if (SpanLog::Get().enabled()) {
      SpanLog::Get().Record(name_, start_, NowNs(), request_id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t request_id_;
  uint64_t start_;
};

/// Correctness findings of one run; the run is correct iff empty.
class Checks {
 public:
  void Fail(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const;
  std::vector<std::string> failures() const;
  uint64_t count() const;
  /// Counts one passed check.
  void Count();

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  uint64_t checks_ = 0;
};

/// What one workload run produced, turned into the result line by
/// PrintResult.
struct RunReport {
  double setup_s = 0;
  double measured_s = 0;
  uint64_t rounds = 0;
  /// Wall seconds of each cycle of the measured phase, in order.
  std::vector<double> cycle_s;
  /// Percentile (0-100) tail_ms is read at; chosen per workload so that
  /// at least ten requests lie above it.
  double tail_pct = 95;
};

/// Set-up runs at least kSetupRepeats times and for at least
/// kSetupSeconds in all; setup_s is the median. The time floor spreads the
/// repeats of a short set-up over more than one burst of stolen CPU.
inline constexpr int kSetupRepeats = 9;
inline constexpr double kSetupSeconds = 4.0;

double Median(std::vector<double> xs);
/// Nearest-rank percentile (0-100) of `xs`.
double Percentile(std::vector<double> xs, double pct);
double PeakRssMb();
/// The highest percentile from a fixed ladder that leaves at least ten of
/// `n` samples above it.
double TailPercentileFor(size_t n);

/// Prints the human-readable summary and, as the last stdout line, the
/// result JSON: end-to-end metrics untraced, per-layer metrics traced.
/// ops_per_s and the class latencies are medians over cycles of each
/// cycle's rate and class means; tail_ms is taken over all requests.
void PrintResult(const Options& opts, const RunReport& report,
                 const SampleLog& log, const Layers& layers,
                 const Checks& checks, const PhaseCheck& phases);

/// Splits a seed into independent stream seeds.
uint64_t Mix(uint64_t seed, uint64_t salt);

int RunBatchRepair(const Options& opts);
int RunCqaSharedCone(const Options& opts);
int RunServeMixed(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
