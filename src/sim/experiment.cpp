#include "sim/experiment.hpp"

#include <stdexcept>

#include "core/loss_selection.hpp"
#include "nn/builders.hpp"

namespace dubhe::sim {

std::string to_string(Method m) {
  switch (m) {
    case Method::kRandom: return "random";
    case Method::kGreedy: return "greedy";
    case Method::kDubhe: return "dubhe";
    case Method::kPowerOfChoice: return "power-of-choice";
  }
  throw std::invalid_argument("to_string: bad Method");
}

std::vector<double> default_sigma(const std::vector<std::size_t>& G) {
  std::vector<double> sigma(G.size(), 0.0);
  for (std::size_t gi = 0; gi + 1 < G.size(); ++gi) {
    if (G[gi] == 1) {
      sigma[gi] = 0.7;
    } else if (G[gi] == 2) {
      sigma[gi] = 0.1;
    } else {
      sigma[gi] = 0.7 / static_cast<double>(G[gi]);
    }
  }
  return sigma;  // last entry (i = C) stays 0
}

std::unique_ptr<core::SelectionStrategy> make_selector(
    Method method, const std::vector<stats::Distribution>& dists,
    const core::RegistryCodec* codec, const std::vector<double>& sigma) {
  switch (method) {
    case Method::kRandom:
      return std::make_unique<core::RandomSelector>(dists.size());
    case Method::kGreedy:
      return std::make_unique<core::GreedySelector>(dists);
    case Method::kDubhe: {
      auto sel = std::make_unique<core::DubheSelector>(codec, sigma);
      sel->register_clients(dists);
      return sel;
    }
    case Method::kPowerOfChoice:
      throw std::invalid_argument(
          "make_selector: power-of-choice needs a live trainer; use run_experiment");
  }
  throw std::invalid_argument("make_selector: bad Method");
}

namespace {

std::vector<std::size_t> effective_reference_set(const ExperimentConfig& cfg) {
  if (!cfg.reference_set.empty()) return cfg.reference_set;
  if (cfg.part.num_classes <= 2) return {cfg.part.num_classes};
  return {1, 2, cfg.part.num_classes};
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  const data::FederatedDataset dataset(cfg.spec, cfg.part);
  const std::size_t C = dataset.num_classes();
  const auto& dists = dataset.partition().client_dists;

  ExperimentResult result;
  result.realized_emd_avg = dataset.partition().realized_emd_avg;

  // Selector setup (codec + thresholds for Dubhe).
  const auto G = effective_reference_set(cfg);
  const core::RegistryCodec codec(C, G);
  std::vector<double> sigma = cfg.sigma.empty() ? default_sigma(G) : cfg.sigma;
  stats::Rng rng(stats::derive_seed(cfg.seed, 0x5e1ec7));
  if (cfg.method == Method::kDubhe && cfg.auto_param_search) {
    core::ParamSearchConfig ps;
    ps.K = cfg.K;
    ps.tries = std::max<std::size_t>(cfg.multi_time_h, 5);
    for (std::size_t gi = 0; gi < G.size(); ++gi) {
      if (gi + 1 == G.size()) {
        ps.grids.push_back({0.0});
      } else if (G[gi] == 1) {
        ps.grids.push_back({0.5, 0.6, 0.7, 0.8, 0.9});
      } else {
        ps.grids.push_back({0.05, 0.1, 0.15, 0.2, 0.3});
      }
    }
    sigma = core::parameter_search(codec, dists, ps, rng).sigma;
  }
  result.sigma_used = sigma;

  fl::FederatedTrainer trainer(
      dataset, nn::make_mlp(dataset.feature_dim(), cfg.hidden, C, cfg.seed), cfg.train);
  std::unique_ptr<core::SelectionStrategy> selector;
  if (cfg.method == Method::kPowerOfChoice) {
    selector = std::make_unique<core::PowerOfChoiceSelector>(&trainer, cfg.poc_candidates);
  } else {
    selector = make_selector(cfg.method, dists, &codec, sigma);
  }

  stats::VectorStat pop_stat(C);
  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    std::vector<std::size_t> selected;
    if (cfg.multi_time_h > 1) {
      auto outcome = core::multi_time_select(*selector, dists, cfg.K, cfg.multi_time_h, rng);
      result.emd_star.push_back(outcome.emd_star);
      selected = std::move(outcome.selected);
    } else {
      selected = selector->select(cfg.K, rng);
    }
    if (cfg.dropout_prob > 0) {
      std::vector<std::size_t> survivors;
      for (const std::size_t k : selected) {
        if (!rng.bernoulli(cfg.dropout_prob)) survivors.push_back(k);
      }
      if (survivors.empty()) {
        survivors.push_back(selected[rng.below(selected.size())]);
      }
      selected = std::move(survivors);
    }
    const bool eval = (round % cfg.eval_every == 0) || round + 1 == cfg.rounds;
    const fl::RoundResult rr =
        trainer.run_round(selected, stats::derive_seed(cfg.seed, round + 1), eval);
    result.po_pu_l1.push_back(rr.population_l1_to_uniform);
    pop_stat.add(rr.population);
    if (eval) result.accuracy_curve.emplace_back(round, rr.test_accuracy);
  }
  result.mean_population = pop_stat.means();

  // Average over the trailing quarter of evaluation points (>= 1).
  const std::size_t n_eval = result.accuracy_curve.size();
  const std::size_t window = std::max<std::size_t>(1, n_eval / 4);
  double acc = 0;
  for (std::size_t i = n_eval - window; i < n_eval; ++i) {
    acc += result.accuracy_curve[i].second;
  }
  result.final_accuracy = acc / static_cast<double>(window);
  return result;
}

SelectionStudy selection_study(Method method, const data::Partition& part, std::size_t K,
                               std::size_t repeats, std::uint64_t seed,
                               const std::vector<std::size_t>& reference_set,
                               const std::vector<double>& sigma_in,
                               std::size_t multi_time_h) {
  const std::size_t C = part.num_classes();
  const auto& dists = part.client_dists;
  std::vector<std::size_t> G = reference_set;
  if (G.empty()) G = (C <= 2) ? std::vector<std::size_t>{C} : std::vector<std::size_t>{1, 2, C};
  const core::RegistryCodec codec(C, G);
  const std::vector<double> sigma = sigma_in.empty() ? default_sigma(G) : sigma_in;

  stats::Rng rng(stats::derive_seed(seed, 0x57d7));
  auto selector = make_selector(method, dists, &codec, sigma);

  const stats::Distribution pu = stats::uniform(C);
  stats::RunningStat l1_stat;
  stats::VectorStat pop_stat(C);
  for (std::size_t r = 0; r < repeats; ++r) {
    stats::Distribution po;
    if (multi_time_h > 1) {
      po = core::multi_time_select(*selector, dists, K, multi_time_h, rng).population;
    } else {
      po = core::population_of(dists, selector->select(K, rng));
    }
    l1_stat.add(stats::l1_distance(po, pu));
    pop_stat.add(po);
  }
  SelectionStudy out;
  out.mean_l1 = l1_stat.mean();
  out.std_l1 = l1_stat.stddev();
  out.mean_population = pop_stat.means();
  return out;
}

}  // namespace dubhe::sim
