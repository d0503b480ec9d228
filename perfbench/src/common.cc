#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Only the first few problems are printed; the counts carry the rest.
constexpr uint64_t kMaxReported = 10;

void Report(const char* what, uint64_t count, const std::string& why) {
  if (count <= kMaxReported) {
    std::fprintf(stderr, "%s: %s\n", what, why.c_str());
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Outcome::Failed(const std::string& why) {
  ++failed;
  Report("FAILED", failed, why);
}

void Outcome::Wrong(const std::string& why) {
  correct = false;
  ++wrong;
  Report("WRONG", wrong, why);
}

std::string Outcome::ToJson() const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return json + "}}";
}

}  // namespace perfbench
