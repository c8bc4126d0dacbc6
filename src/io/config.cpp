#include "io/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

namespace fedshare::io {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

ConfigError::ConfigError(const std::string& message, int line)
    : std::runtime_error(line > 0 ? "line " + std::to_string(line) + ": " +
                                        message
                                  : message),
      line_(line) {}

std::optional<std::string> ConfigSection::find(const std::string& key) const {
  for (const auto& e : entries) {
    if (e.key == key) return e.value;
  }
  return std::nullopt;
}

int ConfigSection::entry_line(const std::string& key) const {
  for (const auto& e : entries) {
    if (e.key == key) return e.line;
  }
  return line;
}

std::string ConfigSection::get_string(const std::string& key) const {
  const auto value = find(key);
  if (!value) {
    throw ConfigError("section [" + name + "] is missing key '" + key + "'",
                      line);
  }
  return *value;
}

double ConfigSection::get_double(const std::string& key) const {
  const std::string raw = get_string(key);
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(raw, &used);
  } catch (const std::exception&) {
    throw ConfigError("key '" + key + "' in [" + name +
                          "] is not a number: '" + raw + "'",
                      entry_line(key));
  }
  if (used != raw.size()) {
    throw ConfigError("key '" + key + "' in [" + name +
                          "] has trailing junk: '" + raw + "'",
                      entry_line(key));
  }
  if (!std::isfinite(value)) {
    throw ConfigError("key '" + key + "' in [" + name +
                          "] must be finite, got '" + raw + "'",
                      entry_line(key));
  }
  return value;
}

double ConfigSection::get_double_or(const std::string& key,
                                    double fallback) const {
  return find(key) ? get_double(key) : fallback;
}

int ConfigSection::get_int_or(const std::string& key, int fallback, int lo,
                              int hi) const {
  if (!find(key)) return fallback;
  const double value = get_double(key);
  if (value != std::floor(value) || value < lo || value > hi) {
    throw ConfigError("'" + key + "' must be an integer in [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "]",
                      entry_line(key));
  }
  return static_cast<int>(value);
}

Config Config::parse(std::istream& in) {
  Config config;
  std::string raw_line;
  int line_number = 0;
  while (std::getline(in, raw_line)) {
    ++line_number;
    std::string line = trim(raw_line);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError("unterminated section header", line_number);
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) {
        throw ConfigError("empty section name", line_number);
      }
      ConfigSection section;
      section.name = name;
      section.line = line_number;
      config.sections.push_back(std::move(section));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("expected 'key = value' or '[section]'",
                        line_number);
    }
    if (config.sections.empty()) {
      throw ConfigError("entry before any [section] header", line_number);
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("empty key", line_number);
    }
    ConfigSection& section = config.sections.back();
    if (section.find(key)) {
      throw ConfigError("duplicate key '" + key + "' in section [" +
                            section.name + "]",
                        line_number);
    }
    section.entries.push_back({key, value, line_number});
  }
  return config;
}

Config Config::parse_string(const std::string& text) {
  std::istringstream iss(text);
  return parse(iss);
}

std::vector<const ConfigSection*> Config::sections_named(
    const std::string& name) const {
  std::vector<const ConfigSection*> out;
  for (const auto& section : sections) {
    if (section.name == name) out.push_back(&section);
  }
  return out;
}

}  // namespace fedshare::io
