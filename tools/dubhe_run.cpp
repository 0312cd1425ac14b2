// dubhe_run — command-line front end for the experiment runner.
//
//   dubhe_run --dataset cifar --method dubhe --rho 10 --emd 1.5 --rounds 200
//             --k 20 --h 5 --csv curve.csv

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cli.hpp"
#include "sim/csv.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace dubhe;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const sim::CliOptions opt = sim::parse_cli(args);
  if (opt.show_help) {
    std::fputs(sim::cli_usage().c_str(), stdout);
    return 0;
  }
  if (!opt.valid) {
    std::fprintf(stderr, "error: %s\nsee dubhe_run --help\n", opt.error.c_str());
    return 2;
  }

  const sim::ExperimentConfig& cfg = opt.config;
  std::printf("dataset=%s method=%s N=%zu K=%zu rho=%.2f emd=%.2f rounds=%zu H=%zu "
              "seed=%llu\n\n",
              cfg.spec.name.c_str(), sim::to_string(cfg.method).c_str(),
              cfg.part.num_clients, cfg.K, cfg.part.rho, cfg.part.emd_avg, cfg.rounds,
              cfg.multi_time_h, static_cast<unsigned long long>(cfg.seed));

  // The partition and the selector setup reject what the parser cannot
  // check alone: --rho below 1, --emd outside [0, 2), zero --samples.
  sim::ExperimentResult result;
  try {
    result = sim::run_experiment(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\nsee dubhe_run --help\n", e.what());
    return 2;
  }

  sim::Table table({"round", "test accuracy"});
  for (const auto& [round, acc] : result.accuracy_curve) {
    table.add_row({std::to_string(round), sim::fmt(acc, 4)});
  }
  table.print(std::cout);

  double mean_l1 = 0;
  for (const double v : result.po_pu_l1) mean_l1 += v;
  mean_l1 /= static_cast<double>(result.po_pu_l1.size());
  std::printf("\nfinal accuracy:      %.4f\n", result.final_accuracy);
  std::printf("mean ||p_o - p_u||:  %.4f\n", mean_l1);
  std::printf("realized EMD_avg:    %.4f\n", result.realized_emd_avg);
  if (!result.sigma_used.empty() && cfg.method == sim::Method::kDubhe) {
    std::printf("thresholds sigma:    ");
    for (const double s : result.sigma_used) std::printf("%.2f ", s);
    std::printf("\n");
  }

  if (!opt.csv_path.empty()) {
    if (sim::write_curve_csv(opt.csv_path, result)) {
      std::printf("curves written to %s\n", opt.csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
  }
  if (!opt.population_csv.empty()) {
    if (sim::write_distribution_csv(opt.population_csv, result.mean_population)) {
      std::printf("mean population written to %s\n", opt.population_csv.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", opt.population_csv.c_str());
      return 1;
    }
  }
  return 0;
}
