#include "sim/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace dubhe::sim {

std::string cli_usage() {
  return R"(dubhe_run — federated learning with Dubhe client selection

usage: dubhe_run [flags]

  --dataset mnist|cifar|femnist   synthetic dataset preset   (default mnist)
  --method  random|greedy|dubhe|poc  selection method        (default dubhe)
  --clients N      virtual client count                      (default 300)
  --samples N      samples per client (N_VC)                 (default 128)
  --rho X          global class imbalance ratio              (default 10)
  --emd X          target client EMD_avg                     (default 1.5)
  --rounds N       training rounds                           (default 100)
  --k N            participants per round                    (default 20)
  --h N            multi-time selection tries                (default 1)
  --lr X           local learning rate                       (default 1e-3)
  --epochs N       local epochs E                            (default 1)
  --batch N        local batch size B                        (default 8)
  --dropout X      per-client dropout probability            (default 0)
  --prox-mu X      FedProx proximal coefficient              (default 0)
  --auto-sigma     run parameter search for the thresholds
  --resample       fresh local data every round (paper 4.1)
  --eval-every N   test-set evaluation cadence               (default 10)
  --seed N         master seed                               (default 1)
  --csv PATH       write round curves as CSV
  --population-csv PATH  write the mean population distribution
  --help           this text
)";
}

namespace {

/// A finite real: nan and inf would flow into the partition and the
/// optimizer unchecked.
bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && !s.empty() && std::isfinite(out);
}

bool parse_size(const std::string& s, std::size_t& out) {
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end && !s.empty();
}

}  // namespace

CliOptions parse_cli(std::span<const std::string> args) {
  CliOptions opt;
  ExperimentConfig& cfg = opt.config;
  // Tool defaults: the quickstart-style setting.
  cfg.spec = data::mnist_like();
  cfg.part.num_classes = cfg.spec.num_classes;
  cfg.part.num_clients = 300;
  cfg.part.samples_per_client = 128;
  cfg.part.rho = 10;
  cfg.part.emd_avg = 1.5;
  cfg.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  cfg.K = 20;
  cfg.rounds = 100;
  cfg.eval_every = 10;
  cfg.method = Method::kDubhe;

  const auto fail = [&opt](std::string msg) -> CliOptions& {
    opt.valid = false;
    opt.error = std::move(msg);
    return opt;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help") {
      opt.show_help = true;
      return opt;
    }
    if (flag == "--auto-sigma") {
      cfg.auto_param_search = true;
      continue;
    }
    if (flag == "--resample") {
      cfg.train.resample_each_round = true;
      continue;
    }
    // Everything else takes a value.
    if (i + 1 >= args.size()) return fail("missing value for " + flag);
    const std::string& value = args[++i];

    if (flag == "--dataset") {
      if (value == "mnist") {
        cfg.spec = data::mnist_like();
      } else if (value == "cifar") {
        cfg.spec = data::cifar_like();
      } else if (value == "femnist") {
        cfg.spec = data::femnist_like();
        cfg.reference_set = {1, 52};
      } else {
        return fail("unknown dataset: " + value);
      }
      cfg.part.num_classes = cfg.spec.num_classes;
    } else if (flag == "--method") {
      if (value == "random") cfg.method = Method::kRandom;
      else if (value == "greedy") cfg.method = Method::kGreedy;
      else if (value == "dubhe") cfg.method = Method::kDubhe;
      else if (value == "poc") cfg.method = Method::kPowerOfChoice;
      else return fail("unknown method: " + value);
    } else if (flag == "--clients") {
      if (!parse_size(value, cfg.part.num_clients)) return fail("bad --clients");
    } else if (flag == "--samples") {
      if (!parse_size(value, cfg.part.samples_per_client)) return fail("bad --samples");
    } else if (flag == "--rho") {
      if (!parse_double(value, cfg.part.rho)) return fail("bad --rho");
    } else if (flag == "--emd") {
      if (!parse_double(value, cfg.part.emd_avg)) return fail("bad --emd");
    } else if (flag == "--rounds") {
      if (!parse_size(value, cfg.rounds)) return fail("bad --rounds");
    } else if (flag == "--k") {
      if (!parse_size(value, cfg.K)) return fail("bad --k");
    } else if (flag == "--h") {
      if (!parse_size(value, cfg.multi_time_h)) return fail("bad --h");
    } else if (flag == "--lr") {
      if (!parse_double(value, cfg.train.lr)) return fail("bad --lr");
    } else if (flag == "--epochs") {
      if (!parse_size(value, cfg.train.epochs)) return fail("bad --epochs");
    } else if (flag == "--batch") {
      if (!parse_size(value, cfg.train.batch_size)) return fail("bad --batch");
    } else if (flag == "--dropout") {
      if (!parse_double(value, cfg.dropout_prob) || cfg.dropout_prob < 0 ||
          cfg.dropout_prob > 1) {
        return fail("bad --dropout (a probability in [0, 1])");
      }
    } else if (flag == "--prox-mu") {
      if (!parse_double(value, cfg.train.prox_mu)) return fail("bad --prox-mu");
    } else if (flag == "--eval-every") {
      if (!parse_size(value, cfg.eval_every)) return fail("bad --eval-every");
    } else if (flag == "--seed") {
      std::size_t seed = 0;
      if (!parse_size(value, seed)) return fail("bad --seed");
      cfg.seed = seed;
      cfg.part.seed = stats::derive_seed(seed, 0xDA7A);
    } else if (flag == "--csv") {
      opt.csv_path = value;
    } else if (flag == "--population-csv") {
      opt.population_csv = value;
    } else {
      return fail("unknown flag: " + flag);
    }
  }
  if (cfg.K > cfg.part.num_clients) return fail("--k exceeds --clients");
  if (cfg.eval_every == 0) return fail("--eval-every must be positive");
  if (cfg.rounds == 0) return fail("--rounds must be positive");
  return opt;
}

}  // namespace dubhe::sim
