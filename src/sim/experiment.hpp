#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/multitime.hpp"
#include "core/param_search.hpp"
#include "core/selection.hpp"
#include "data/federated.hpp"
#include "fl/trainer.hpp"
#include "stats/summary.hpp"

namespace dubhe::sim {

/// The three contenders of the evaluation (paper §6.1), plus the loss-based
/// power-of-choice baseline from the related work the paper critiques
/// (§2.1/§3; training loop only — it needs the live global model).
enum class Method { kRandom, kGreedy, kDubhe, kPowerOfChoice };
[[nodiscard]] std::string to_string(Method m);

/// Sensible default thresholds for a reference set: sigma_C = 0 (mandatory),
/// sigma_1 = 0.7 and sigma_2 = 0.1 (the optimum the paper's parameter search
/// finds for G = {1, 2, 10}), 0.7/i otherwise. Benches that need exact
/// optima run core::parameter_search instead.
[[nodiscard]] std::vector<double> default_sigma(const std::vector<std::size_t>& G);

/// End-to-end accuracy experiment configuration: dataset x partition x
/// training x selection method.
struct ExperimentConfig {
  data::DatasetSpec spec;
  data::PartitionConfig part;
  fl::TrainConfig train;
  std::size_t K = 20;
  std::size_t rounds = 100;
  /// MLP hidden width (the training substrate's stand-in for the paper's
  /// CNN/ResNet models; see DESIGN.md §2).
  std::size_t hidden = 64;
  Method method = Method::kRandom;
  /// H tentative selections per round; 1 = one-off determination.
  std::size_t multi_time_h = 1;
  /// Evaluate test accuracy every this many rounds (1 = every round).
  std::size_t eval_every = 1;
  std::uint64_t seed = 1;
  /// Dubhe codec: reference set G (empty = {1, 2, C}) and thresholds
  /// (empty = default_sigma, or parameter search when auto_param_search).
  std::vector<std::size_t> reference_set;
  std::vector<double> sigma;
  bool auto_param_search = false;
  /// Candidate pool size d for Method::kPowerOfChoice.
  std::size_t poc_candidates = 60;
  /// Probability that a selected client drops out before training (paper
  /// Fig. 3 shows drop-outs in the round flow). Survivors train; if all
  /// drop, one random selected client is retained.
  double dropout_prob = 0.0;
};

struct ExperimentResult {
  /// (round, accuracy) at each evaluation point.
  std::vector<std::pair<std::size_t, double>> accuracy_curve;
  /// || p_o - p_u ||_1 per round.
  std::vector<double> po_pu_l1;
  /// EMD* per round when multi-time selection is active.
  std::vector<double> emd_star;
  /// Mean accuracy over the last ~25% of evaluation points (the paper's
  /// "average accuracy over the last 50 rounds" summary).
  double final_accuracy = 0;
  /// Mean population distribution across rounds.
  stats::Distribution mean_population;
  double realized_emd_avg = 0;
  /// Thresholds actually used (after defaulting / parameter search).
  std::vector<double> sigma_used;
};

/// Runs the full FL loop with the configured method and reports the curves.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Selection-only study (no training): repeats selections and accumulates
/// || p_o - p_u ||_1 statistics plus the mean population distribution.
/// This is the machinery behind Fig. 9 and Fig. 10, which the paper runs at
/// full scale (N = 1000, 100 repeats).
struct SelectionStudy {
  double mean_l1 = 0;
  double std_l1 = 0;
  stats::Distribution mean_population;
};
SelectionStudy selection_study(Method method, const data::Partition& part, std::size_t K,
                               std::size_t repeats, std::uint64_t seed,
                               const std::vector<std::size_t>& reference_set = {},
                               const std::vector<double>& sigma = {},
                               std::size_t multi_time_h = 1);

/// Builds the selector for a method over a fixed partition (codec must
/// outlive the returned selector for Dubhe). Throws std::invalid_argument
/// for Method::kPowerOfChoice, which needs a live trainer — run_experiment
/// wires that one internally.
std::unique_ptr<core::SelectionStrategy> make_selector(
    Method method, const std::vector<stats::Distribution>& dists,
    const core::RegistryCodec* codec, const std::vector<double>& sigma);

}  // namespace dubhe::sim
