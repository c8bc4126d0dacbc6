// Minimal INI-style configuration parser for the fedshare CLI.
//
// Grammar: `[section]` headers, `key = value` entries, `#`/`;` comments,
// blank lines. Repeated section names are allowed (each `[facility]`
// block describes one facility); repeated keys within one section are an
// error. All errors carry 1-based line numbers.
#pragma once

#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fedshare::io {

/// Parse or lookup failure, with the offending line where applicable.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(const std::string& message, int line = 0);

  /// 1-based line number; 0 when the error is not tied to a line.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

/// One `key = value` line.
struct ConfigEntry {
  std::string key;
  std::string value;
  int line = 0;  ///< 1-based line of the entry
};

/// One `[name]` block with its entries in file order.
struct ConfigSection {
  std::string name;
  int line = 0;  ///< line of the section header
  std::vector<ConfigEntry> entries;

  /// Raw value for `key`, or nullopt.
  [[nodiscard]] std::optional<std::string> find(const std::string& key) const;

  /// Line number of `key`'s entry; the section header's line when the
  /// key is absent. Lets validation errors point at the offending line.
  [[nodiscard]] int entry_line(const std::string& key) const;

  /// Required string value; throws ConfigError when absent.
  [[nodiscard]] std::string get_string(const std::string& key) const;

  /// Required double; throws ConfigError (carrying the entry's line) when
  /// absent, malformed, or not finite (nan/inf are config errors: no
  /// model quantity accepts them).
  [[nodiscard]] double get_double(const std::string& key) const;

  /// Optional double with a default.
  [[nodiscard]] double get_double_or(const std::string& key,
                                     double fallback) const;

  /// Optional integer in [lo, hi] with a default; throws ConfigError
  /// (carrying the entry's line) when the value is fractional or out of
  /// range.
  [[nodiscard]] int get_int_or(const std::string& key, int fallback, int lo,
                               int hi) const;
};

/// A parsed configuration file.
struct Config {
  std::vector<ConfigSection> sections;

  /// Parses from a stream; throws ConfigError on malformed input.
  static Config parse(std::istream& in);

  /// Parses from a string (convenience for tests).
  static Config parse_string(const std::string& text);

  /// All sections with the given name, in file order.
  [[nodiscard]] std::vector<const ConfigSection*> sections_named(
      const std::string& name) const;
};

}  // namespace fedshare::io
