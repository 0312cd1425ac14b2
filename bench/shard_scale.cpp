// Bench (ours): what the 2-level aggregation tree costs and buys. The same
// cohort runs flat (one aggregator owns every client) and as a tree with
// A ∈ {1, 2, 4} shard aggregators, each owning a disjoint slice and shipping
// one homomorphic partial sum upward per phase instead of per-client
// uploads. Every tree transcript is diffed against the flat baseline — the
// table is only meaningful because the answers are byte-identical. The
// root↔shard column prices the uplink: it grows with A (one partial per
// shard per phase), not with N, which is the point of the topology.

#include <chrono>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "fl/channel.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "nn/builders.hpp"

using namespace dubhe;

namespace {

data::FederatedDataset make_dataset(std::size_t clients) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = clients;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = 21;
  return {data::mnist_like(), pc};
}

net::SessionParams make_params(std::size_t rounds) {
  net::SessionParams p;
  p.secure.key_bits = 128;  // topology overhead is key-size independent
  p.K = 3;
  p.H = 3;
  p.rounds = rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  p.evaluate = false;
  return p;
}

bool same_answer(const net::SessionTranscript& a, const net::SessionTranscript& b) {
  if (net::format_transcript(a) != net::format_transcript(b)) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const auto& wa = a.rounds[r].global_weights;
    const auto& wb = b.rounds[r].global_weights;
    if (wa.size() != wb.size()) return false;
    if (std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)) != 0) return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::size_t clients = bench::scaled(40, 8);
  const std::size_t rounds = bench::scaled(5, 2);

  bench::banner(
      "Shard scale — 2-level aggregation tree vs flat aggregator",
      "§3 system architecture (aggregation offloaded below the decryptor)",
      "same seeds, " + std::to_string(clients) + " clients, K=3, " +
          std::to_string(rounds) +
          " rounds; flat loopback baseline vs run_tree_session /"
          " run_tree_tcp_session with A shard aggregators; root<->shard"
          " column counts only uplink traffic (wire v5 partials)");

  const auto dataset = make_dataset(clients);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(rounds);

  const auto t0 = std::chrono::steady_clock::now();
  const auto flat = net::run_loopback_session(dataset, proto, params);
  const auto flat_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  std::cout << "flat loopback baseline: " << flat_ms << " ms\n\n";

  sim::Table table({"shards A", "loopback ms", "tcp ms", "root<->shard msgs",
                    "root<->shard bytes", "== flat"});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    fl::ChannelAccountant uplink;
    const auto l0 = std::chrono::steady_clock::now();
    const auto tree = net::run_tree_session(dataset, proto, params, shards, {}, &uplink);
    const auto loop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - l0)
                             .count();
    const auto s0 = std::chrono::steady_clock::now();
    const auto tcp = net::run_tree_tcp_session(dataset, proto, params, shards,
                                               /*workers=*/2);
    const auto tcp_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - s0)
                            .count();
    const bool ok = same_answer(tree, flat) && same_answer(tcp, flat);
    table.add_row({std::to_string(shards), std::to_string(loop_ms),
                   std::to_string(tcp_ms), std::to_string(uplink.total_messages()),
                   std::to_string(uplink.total_bytes()), ok ? "yes" : "NO"});
    if (!ok) {
      std::cerr << "FATAL: tree transcript diverged from flat at A=" << shards
                << "\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nReading: the homomorphic phases (registry, population) ship one\n"
               "partial per shard per phase, so their uplink cost scales with A,\n"
               "not with the " << clients << "-client cohort; the update phase at\n"
               "he_rate=0 still forwards the K winners' raw floats (FedAvg is\n"
               "order-sensitive, so the root reassembles in flat order). The\n"
               "wall-clock columns are flat-to-comparable at this scale (one\n"
               "process, shared cores); the topology pays off when shards run on\n"
               "separate hosts and the root's O(N) ciphertext verify/reduce work\n"
               "is the bottleneck it is in the paper's deployment.\n";
  return 0;
}
