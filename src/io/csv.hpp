// Minimal CSV writer used by the figure harnesses to dump the raw series
// behind each plot (so the numbers can be re-plotted externally).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fedshare::io {

/// Streams rows of comma-separated values, quoting cells when needed.
///
/// Quoting follows RFC 4180: a cell containing a comma, a double quote, or
/// a newline is wrapped in quotes with inner quotes doubled.
class CsvWriter {
 public:
  /// Writes to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row (any cell count; typically the header first).
  void write_row(const std::vector<std::string>& cells);

  /// Convenience: writes a row of doubles with the given precision.
  void write_row(const std::vector<double>& values, int precision = 6);

  /// Escapes a single cell according to RFC 4180 (exposed for tests).
  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  std::ostream& out_;
};

}  // namespace fedshare::io
