// CLI test fixtures: the report and the serve loop run on in-memory
// text, so tests can state a config or an event log inline. Programs
// read files and call cli::run_report_result / cli::run_serve directly.
#pragma once

#include <string>

#include "cli/runner.hpp"
#include "cli/serve_runner.hpp"

namespace fedshare::cli::fixtures {

/// Parses `config_text` and returns the default report's text;
/// rethrows io::ConfigError.
[[nodiscard]] std::string report_from_string(const std::string& config_text);

/// run_serve on an event log held in a string.
[[nodiscard]] ServeRunResult serve_from_string(
    const std::string& events, const ServeRunOptions& options = {});

}  // namespace fedshare::cli::fixtures
