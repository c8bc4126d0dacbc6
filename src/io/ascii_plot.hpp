// ASCII line plots so the bench binaries can show the *shape* of each
// reproduced figure directly in the terminal (who wins, where crossovers
// fall), next to the exact numeric tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fedshare::io {

/// One named series of (x, y) points; x values may differ between series.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Renders one or more series into a character grid.
///
/// Each series is drawn with its own glyph (1, 2, 3, ... then a, b, c ...).
/// Overlapping points show the glyph of the later series. Axis ranges are
/// computed from the data.
class AsciiPlot {
 public:
  /// Creates a plot area of `width` x `height` characters (both >= 8).
  AsciiPlot(int width, int height);

  /// Adds a series; empty series are ignored. x and y must match in size.
  void add_series(Series series);

  /// Sets the x-axis label printed under the plot.
  void set_x_label(std::string label) { x_label_ = std::move(label); }

  /// Renders the plot, a legend, and axis annotations to `out`.
  void print(std::ostream& out) const;

 private:
  int width_;
  int height_;
  std::string x_label_;
  std::vector<Series> series_;
};

}  // namespace fedshare::io
