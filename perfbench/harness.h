// Measurement plumbing for the pipeline benchmark: wall clock, span tracer,
// failure ledger, metric sink, and the process facts every record carries
// (usable CPU cores, peak RSS). Clocks live here, outside src/, and reach the
// serve layer only through its TickSource seam.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/query_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPUs this process may run on: what `nproc` prints. hardware_concurrency()
// reports the machine, not the affinity mask, so it is not used.
inline unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<unsigned>(count) : 1u;
}

// High-water resident set of the process so far, MiB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

class SteadyTicks : public ultra::serve::TickSource {
 public:
  std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }
};

// Wall time of a fixed loop of dependent hashing and table updates over
// 1 MiB (L2-resident, like the pipeline's working sets): a reading of how
// fast the host runs this process right now. It calls nothing of the
// library, so no change to the library moves it.
inline double calibration_loop_s() {
  static std::vector<std::uint64_t> table(1u << 17, 1);
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& w = table[x & (table.size() - 1)];
    w += (w & 1) ? x : x >> 3;
  }
  sink = sink + table[x & 7];
  return seconds_since(t0);
}

inline double median(std::vector<double> v);

// Moves the calling thread to the CPU of `allowed` on which the calibration
// loop runs fastest now (the median of three loops on each CPU) and returns
// that CPU, or -1 if the thread could not be moved. On a shared host one
// CPU can run this process a third slower than another for a whole run.
inline int pin_to_fastest_cpu(const cpu_set_t& allowed) {
  int best = -1;
  double best_s = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const double s = median({calibration_loop_s(), calibration_loop_s(),
                             calibration_loop_s()});
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Mean of the middle half: smoother than a median over a few dozen inputs,
// yet unmoved by a rare outlier (a Fibonacci input whose build takes 5 s).
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// Service-time histogram in fixed memory, so a run's own bookkeeping does not
// grow with the number of ops it serves (and inflate peak RSS). Exact to the
// nanosecond below 2048 ns, then 64 buckets per power of two (under 1.6%
// relative error).
class LatencyHistogram {
 public:
  void add(const std::vector<std::uint64_t>& samples_ns) {
    for (const std::uint64_t v : samples_ns) ++counts_[bucket(v)];
    total_ += samples_ns.size();
  }

  [[nodiscard]] std::uint64_t count() const { return total_; }

  // Nearest-rank percentile, p in (0, 100], in nanoseconds.
  [[nodiscard]] double percentile(double p) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= std::max<std::uint64_t>(rank, 1)) return lower_bound(b);
    }
    return lower_bound(counts_.size() - 1);
  }

 private:
  static constexpr unsigned kExactBits = 11;
  static constexpr std::uint64_t kExact = 1ull << kExactBits;
  static constexpr unsigned kSubBits = 6;

  static std::size_t bucket(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return static_cast<std::size_t>(kExact + ((e - kExactBits) << kSubBits) +
                                    sub);
  }

  static double lower_bound(std::size_t b) {
    if (b < kExact) return static_cast<double>(b);
    const std::uint64_t rest = b - kExact;
    const unsigned e = kExactBits + static_cast<unsigned>(rest >> kSubBits);
    const std::uint64_t sub = rest & ((1u << kSubBits) - 1);
    return std::ldexp(static_cast<double>((1u << kSubBits) + sub),
                      static_cast<int>(e - kSubBits));
  }

  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(kExact + ((64 - kExactBits) << kSubBits));
  std::uint64_t total_ = 0;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// Spans (name, start, end, parent) around each call into a layer, kept in
// memory and written out once at exit. Disabled, open/close cost one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, seconds_since(t0_), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
    stack_.pop_back();
  }

  // One JSON object per line; parent is an index into the same file.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
          << ", \"start_s\": " << json_number(s.start_s)
          << ", \"end_s\": " << json_number(s.end_s)
          << ", \"parent\": " << s.parent << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Attempted and failed operations. An op is one build, certificate, stretch
// check, epoch, serve run or repetition/identity comparison.
class Ledger {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "pipeline_bench: FAILED " << what << "\n";
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// A fixed, ordered metric table (every name present, 0 until set), emitted
// as the result's `metrics`. Setting a name outside the table is a bug.
class Metrics {
 public:
  template <std::size_t N>
  explicit Metrics(const MetricDef (&defs)[N]) {
    for (const MetricDef& d : defs) items_.push_back({d.name, 0.0, d.unit});
  }

  void set(const std::string& name, double value) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("unknown metric " + name);
  }

  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    throw std::logic_error("unknown metric " + name);
  }

  // Multiplies every time (unit s, ms or us) by `f` and divides every rate
  // (unit 1/s or ops/s) by it.
  void scale_times(double f) {
    for (auto& m : items_) {
      if (m.unit == "s" || m.unit == "ms" || m.unit == "us") m.value *= f;
      if (m.unit == "1/s" || m.unit == "ops/s") m.value /= f;
    }
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += json_string(items_[i].name) + ": {\"value\": " +
             json_number(items_[i].value) +
             ", \"unit\": " + json_string(items_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench
