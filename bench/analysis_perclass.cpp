// Analysis (ours): *where* the accuracy gain comes from. Extends Fig. 10's
// population-proportion story to per-class test recall: under random
// selection with skewed data, minority classes collapse; Dubhe's balanced
// participation lifts exactly those classes.

#include <map>

#include "bench_common.hpp"
#include "nn/builders.hpp"

using namespace dubhe;

int main() {
  bench::banner("Analysis — per-class recall: who benefits from unbiasedness",
                "extends Fig. 10 (population proportion) to per-class accuracy",
                "Classes are indexed by global frequency: 0 most frequent");

  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = bench::scaled(1000, 400);
  pc.samples_per_client = 128;
  pc.rho = 10;
  pc.emd_avg = 1.5;
  pc.seed = 3;

  const std::size_t rounds = bench::scaled(200, 100);
  std::map<sim::Method, std::vector<double>> recalls;
  std::map<sim::Method, double> overall;

  for (const sim::Method m :
       {sim::Method::kRandom, sim::Method::kDubhe, sim::Method::kGreedy}) {
    // Re-run the loop manually so we can keep the trained server around.
    const data::FederatedDataset dataset(data::mnist_like(), pc);
    const core::RegistryCodec codec(10, {1, 2, 10});
    auto selector = sim::make_selector(m, dataset.partition().client_dists, &codec,
                                       sim::default_sigma({1, 2, 10}));
    fl::FederatedTrainer trainer(dataset,
                                 nn::make_mlp(dataset.feature_dim(), 64, 10, 5),
                                 {.batch_size = 8, .epochs = 1, .lr = 1e-3,
                                  .use_adam = true});
    stats::Rng rng(7);
    for (std::size_t round = 0; round < rounds; ++round) {
      trainer.run_round(selector->select(20, rng), round + 1, false);
    }
    recalls[m] = trainer.server().evaluate_per_class(dataset);
    overall[m] = trainer.server().evaluate(dataset);
  }

  const auto global = data::make_partition(pc).global_realized;
  sim::Table table({"class", "global share", "random", "dubhe", "greedy"});
  for (std::size_t c = 0; c < 10; ++c) {
    table.add_row({std::to_string(c), sim::fmt(global[c], 3),
                   sim::fmt(recalls[sim::Method::kRandom][c], 3),
                   sim::fmt(recalls[sim::Method::kDubhe][c], 3),
                   sim::fmt(recalls[sim::Method::kGreedy][c], 3)});
  }
  table.add_row({"overall", "", sim::fmt(overall[sim::Method::kRandom], 3),
                 sim::fmt(overall[sim::Method::kDubhe], 3),
                 sim::fmt(overall[sim::Method::kGreedy], 3)});
  table.print(std::cout);

  // Minority-tail summary (classes 7-9).
  auto tail = [&](sim::Method m) {
    return (recalls[m][7] + recalls[m][8] + recalls[m][9]) / 3.0;
  };
  std::cout << "\nminority tail (classes 7-9) mean recall: random "
            << sim::fmt(tail(sim::Method::kRandom), 3) << ", dubhe "
            << sim::fmt(tail(sim::Method::kDubhe), 3) << ", greedy "
            << sim::fmt(tail(sim::Method::kGreedy), 3)
            << "\nReading: balancing reallocates accuracy from nowhere — "
               "majority-class recall stays put while the minority tail, "
               "starved under random selection, recovers.\n";
  return 0;
}
