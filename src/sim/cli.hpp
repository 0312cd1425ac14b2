#pragma once

#include <span>
#include <string>

#include "sim/experiment.hpp"

namespace dubhe::sim {

/// Parsed command line of the `dubhe_run` tool.
struct CliOptions {
  ExperimentConfig config;
  std::string csv_path;           // empty = no CSV output
  std::string population_csv;     // empty = no population dump
  bool show_help = false;
  bool valid = true;
  std::string error;              // set when !valid
};

/// Usage text for --help.
std::string cli_usage();

/// Parses `args` (without argv[0]). Unknown flags, malformed numbers and
/// missing values yield valid = false with a message — never throws, never
/// exits, so the parser is unit-testable.
///
/// Flags: --dataset mnist|cifar|femnist, --method random|greedy|dubhe|poc,
/// --clients N, --samples N, --rho X, --emd X, --rounds N, --k N, --h N,
/// --seed N, --lr X, --epochs N, --batch N, --dropout X, --prox-mu X,
/// --auto-sigma, --resample, --eval-every N,
/// --csv PATH, --population-csv PATH, --help.
CliOptions parse_cli(std::span<const std::string> args);

}  // namespace dubhe::sim
