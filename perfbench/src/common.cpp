#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - epoch)
      .count();
}

void Verdict::check(bool ok, const std::string& what) {
  if (ok) return;
  if (errors.size() < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  errors.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double coefficient_of_variation(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  const double mean = sum / static_cast<double>(v.size());
  if (mean == 0.0) return 0.0;
  double sq = 0.0;
  for (double x : v) sq += (x - mean) * (x - mean);
  return std::sqrt(sq / static_cast<double>(v.size())) / mean;
}

void Spans::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint32_t tid, std::string args) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start_ns, end_ns - start_ns, tid, std::move(args)});
}

void Spans::name_track(std::uint32_t tid, std::string name) {
  if (enabled_) tracks_[tid] = std::move(name);
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char buf[160];
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"perfbench\"}}";
  for (const auto& [tid, name] : tracks_) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << name << "\"}}";
  }
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f",
                  s.name, s.tid, ns_to_us(s.start_ns), ns_to_us(s.dur_ns));
    os << buf;
    if (!s.args.empty()) os << ",\"args\":{" << s.args << "}";
    os << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
