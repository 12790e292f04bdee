// Fixed-width ASCII table printer for the figure-reproduction benches.
//
// Each bench prints the same rows/series the paper's figure plots; Table
// keeps columns aligned so the output diffs cleanly across runs (README,
// "Simulation design", recording results).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ompc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds one row; missing cells render empty, extra cells widen the table.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with the given precision (helper for row building).
  static std::string num(double v, int precision = 3);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ompc
