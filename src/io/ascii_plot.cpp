#include "io/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "io/table.hpp"

namespace fedshare::io {

namespace {
constexpr char kGlyphs[] = "123456789abcdefghijklmnopqrstuvwxyz";
}  // namespace

AsciiPlot::AsciiPlot(int width, int height) : width_(width), height_(height) {
  if (width < 8 || height < 8) {
    throw std::invalid_argument("AsciiPlot: width and height must be >= 8");
  }
}

void AsciiPlot::add_series(Series series) {
  if (series.x.size() != series.y.size()) {
    throw std::invalid_argument("AsciiPlot: x/y size mismatch");
  }
  if (series.x.empty()) return;
  if (series_.size() >= sizeof(kGlyphs) - 1) {
    throw std::invalid_argument("AsciiPlot: too many series");
  }
  series_.push_back(std::move(series));
}

void AsciiPlot::print(std::ostream& out) const {
  if (series_.empty()) {
    out << "(empty plot)\n";
    return;
  }
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = -x_min;
  double y_min = std::numeric_limits<double>::infinity();
  double y_max = -y_min;
  for (const auto& s : series_) {
    for (const double v : s.x) {
      x_min = std::min(x_min, v);
      x_max = std::max(x_max, v);
    }
    for (const double v : s.y) {
      y_min = std::min(y_min, v);
      y_max = std::max(y_max, v);
    }
  }
  if (x_max == x_min) x_max = x_min + 1.0;
  if (y_max == y_min) y_max = y_min + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(height_),
                                std::string(static_cast<std::size_t>(width_), ' '));
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const char glyph = kGlyphs[si];
    const auto& s = series_[si];
    for (std::size_t p = 0; p < s.x.size(); ++p) {
      const double fx = (s.x[p] - x_min) / (x_max - x_min);
      const double fy = (s.y[p] - y_min) / (y_max - y_min);
      const int col = std::clamp(
          static_cast<int>(std::lround(fx * (width_ - 1))), 0, width_ - 1);
      const int row = std::clamp(
          static_cast<int>(std::lround((1.0 - fy) * (height_ - 1))), 0,
          height_ - 1);
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
          glyph;
    }
  }

  const std::string top = format_double(y_max, 2);
  const std::string bottom = format_double(y_min, 2);
  const std::size_t margin = std::max(top.size(), bottom.size());
  for (int r = 0; r < height_; ++r) {
    std::string label(margin, ' ');
    if (r == 0) label = std::string(margin - top.size(), ' ') + top;
    if (r == height_ - 1) {
      label = std::string(margin - bottom.size(), ' ') + bottom;
    }
    out << label << " |" << grid[static_cast<std::size_t>(r)] << '\n';
  }
  out << std::string(margin + 1, ' ') << '+'
      << std::string(static_cast<std::size_t>(width_), '-') << '\n';
  const std::string lo = format_double(x_min, 1);
  const std::string hi = format_double(x_max, 1);
  out << std::string(margin + 2, ' ') << lo;
  const std::size_t used = lo.size();
  if (static_cast<std::size_t>(width_) > used + hi.size()) {
    out << std::string(static_cast<std::size_t>(width_) - used - hi.size(),
                       ' ')
        << hi;
  }
  out << '\n';
  if (!x_label_.empty()) {
    out << std::string(margin + 2, ' ') << "x: " << x_label_ << '\n';
  }
  for (std::size_t si = 0; si < series_.size(); ++si) {
    out << "  [" << kGlyphs[si] << "] " << series_[si].name << '\n';
  }
}

}  // namespace fedshare::io
