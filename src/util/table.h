// Minimal table / CSV emitters so benches can print the same rows the
// paper's tables report and also dump machine-readable CSV next to them.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace rlbf::util {

/// Column-aligned text table with a header row, rendered like:
///
///   Job Traces   FCFS+EASY   FCFS+EASY-AR   FCFS+RLBF
///   SDSC-SP2        292.82         169.24      142.93
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a data row; must match the header's column count.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with fixed precision, "-" for NaN.
  static std::string fmt(double v, int precision = 2);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return header_.size(); }

  /// Render with padded columns.
  void print(std::ostream& os) const;

  /// Render as CSV (no padding, comma-separated, quoted when needed).
  void print_csv(std::ostream& os) const;

  /// Write CSV to a file path; returns false on I/O failure.
  bool save_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// One CSV field: returned as is unless it holds a comma, quote or
/// newline, else wrapped in quotes with inner quotes doubled (RFC 4180).
std::string csv_escape(const std::string& s);

/// Write a self-contained gnuplot script that renders a wide-format CSV
/// (as produced by Table::save_csv: one header row, column 1 = x values,
/// every further column = one series named by its header) into
/// `<csv_path minus .csv>.png`. Running `gnuplot <script>` regenerates
/// the figure; the fig1/fig4 benches emit one per plot so the paper's
/// figures are reproducible end-to-end, not just their data. Non-numeric
/// cells ("-") are treated as missing by gnuplot.
/// `series_count` = number of y columns (CSV columns 2..series_count+1).
/// Returns false on I/O failure.
bool write_gnuplot_script(const std::string& script_path, const std::string& csv_path,
                          const std::string& title, const std::string& x_label,
                          const std::string& y_label, std::size_t series_count,
                          bool log_y = false);

}  // namespace rlbf::util
