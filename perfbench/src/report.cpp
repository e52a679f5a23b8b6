#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = quantile(values, 0.5);
  // Highest whole percentile with >= 10 samples above it.
  const double n = static_cast<double>(values.size());
  const int pct = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n)));
  if (pct > 50) {
    s.upper_pct = pct;
    s.upper = quantile(std::move(values), pct / 100.0);
  } else {
    s.upper_pct = 100;
    s.upper = *std::max_element(values.begin(), values.end());
  }
  return s;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

void Report::operation(const std::string& error) {
  ++attempted_;
  if (!error.empty()) {
    ++failed_;
    errors_.push_back(error);
  }
}

void Report::fail(const std::string& error) { errors_.push_back(error); }

void Report::metric(const std::string& name, double value, const std::string& unit,
                    bool in_result) {
  metrics_.push_back({name, value, unit, "", in_result});
}

double Report::failed_fraction() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

void Report::timing(const std::string& name, const std::vector<double>& samples,
                    const std::string& unit, bool in_result, double scale) {
  std::vector<double> scaled(samples);
  for (double& v : scaled) v *= scale;
  const Summary s = summarize(scaled);
  std::string detail = "median; ";
  if (s.upper_pct == 100) {
    detail += "max";
  } else {
    detail += "p";
    detail += std::to_string(s.upper_pct);
  }
  detail += "=";
  detail += format_number(s.upper);
  detail += " n=";
  detail += std::to_string(s.n);
  metrics_.push_back({name, s.median, unit, detail, in_result});
}

void Report::print(const std::string& workload, bool traced) const {
  std::cout << "workload " << workload << (traced ? " (traced run)" : " (untraced run)")
            << "\n";
  for (const auto& e : errors_) std::cout << "FAILED: " << e << "\n";
  for (const auto& m : metrics_) {
    std::cout << (m.in_result ? "  " : "  [report only] ") << m.name << " = "
              << format_number(m.value) << " " << m.unit;
    if (!m.detail.empty()) std::cout << "  (" << m.detail << ")";
    std::cout << "\n";
  }
  std::cout << "  operations: attempted=" << attempted_ << " failed=" << failed_ << "\n";
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!m.in_result) continue;
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << format_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
