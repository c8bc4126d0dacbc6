#include "cli_fixtures.hpp"

#include <sstream>

#include "io/config.hpp"

namespace fedshare::cli::fixtures {

std::string report_from_string(const std::string& config_text) {
  return run_report_result(io::Config::parse_string(config_text), {}).text;
}

ServeRunResult serve_from_string(const std::string& events,
                                 const ServeRunOptions& options) {
  std::istringstream in(events);
  return run_serve(in, options);
}

}  // namespace fedshare::cli::fixtures
