// What one benchmark run reports: operation accounting (attempted /
// failed, fed by the schedule oracle and the traced-vs-untraced checks),
// named metrics with units, and the summary statistics every timing is
// printed with. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median, the highest percentile with at least ten samples beyond it
/// (the maximum when there are fewer than twenty samples), and the
/// sample count.
struct Summary {
  double median = 0.0;
  double upper = 0.0;
  int upper_pct = 100;  // 100 = maximum
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);

class Report {
 public:
  /// Count one operation (a schedule or a training run); `error` empty
  /// means its output check passed.
  void operation(const std::string& error);
  /// A metric of the JSON result line, or (in_result = false) a line of
  /// the human-readable report only.
  void metric(const std::string& name, double value, const std::string& unit,
              bool in_result = true);
  /// A timing: the median is the value; the upper percentile and the
  /// sample count are printed beside it.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, bool in_result = true, double scale = 1.0);
  /// failed / attempted so far.
  double failed_fraction() const;
  /// A failure that is not tied to one operation (self-test, set-up).
  void fail(const std::string& error);

  bool correct() const {
    return attempted_ > 0 && failed_ == 0 && errors_.empty();
  }

  /// Human-readable lines, then the JSON result line.
  void print(const std::string& workload, bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string detail;
    bool in_result = true;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Shortest round-trip decimal rendering (JSON-safe: non-finite -> null).
std::string format_number(double value);

}  // namespace perfbench
