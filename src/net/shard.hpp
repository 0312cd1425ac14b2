#pragma once

/// Sharded multi-aggregator topology: a 2-level aggregation tree (shard
/// plane since wire v5).
///
///                         root aggregator
///                       .---------+---------.
///                       |         |         |
///                    shard 0   shard 1    ...     (A shard aggregators)
///                   .---+---.
///                   |   |   |
///                  clients of each disjoint slice  (N clients total)
///
/// Each shard aggregator owns a disjoint contiguous slice of the cohort and
/// runs the *unchanged* per-client session protocol against it — a client
/// cannot tell a shard from a flat aggregator (identical frames, identical
/// per-link sequence numbers). What flows up the tree are per-shard partial
/// results: homomorphic partial sums of the encrypted uploads, validated
/// participation draws, forwarded (or partially aggregated) model updates,
/// and the shard's quarantine records. The root finishes the Eq. 6
/// reduction, the §5.3 determination, and the global FedAvg merge — so no
/// single event loop or Paillier adder ever touches more than ceil(N/A)
/// clients.
///
/// All three aggregator roles share one implementation (net/engine.hpp):
/// the root is the aggregator engine over one child per shard link, a
/// shard answers each root frame through the same client sweeps the flat
/// server's engine runs over its whole cohort, and the partials above are
/// what the engine's children answer with.
///
/// Correctness bar: the tree only re-parenthesizes the existing reductions
/// (Paillier addition is ciphertext multiplication mod n² — associative and
/// commutative — and the mode-1 update sums are exact u64 adds), and the
/// order-sensitive float FedAvg path forwards raw per-client updates for
/// the root to reassemble in flat selection order. The transcript of a tree
/// session is therefore byte-identical to the flat single-aggregator
/// session on the same seeds, for any shard count — including the
/// quarantine records of a seeded fault plan, which ride up the tree
/// intact. tests/test_net_shard.cpp pins this.
///
/// Trust model: a shard aggregator is infrastructure, not a client. It sees
/// only its slice's ciphertexts, participation bits and failures; it holds
/// the session keypair as forwarding payload for the key dispatch and uses
/// only its public half, to decode uploads (exactly what a flat aggregator
/// does). The root plays the agent role —
/// it alone decrypts aggregates. Consequently a *client* failure anywhere
/// is a typed quarantine, while a *shard-link* failure is a fatal
/// TransportError: losing an aggregator is an infrastructure outage, not
/// churn.

#include <cstdint>
#include <memory>
#include <span>

#include "net/node.hpp"

namespace dubhe::net {

/// The contiguous slice of a cohort of `total` clients that shard `shard`
/// of `num_shards` owns: sizes differ by at most one, lower shard ids take
/// the remainder. Throws std::invalid_argument on shard >= num_shards.
struct ShardRange {
  std::size_t first = 0;
  std::size_t count = 0;

  bool operator==(const ShardRange&) const = default;
};
[[nodiscard]] ShardRange shard_range(std::size_t total, std::size_t num_shards,
                                     std::size_t shard);

/// Root of the aggregation tree: drives one secure session over
/// `shard_links` (one established Transport per shard aggregator; link
/// order need not be shard order — the kShardHello exchange binds ids and
/// validates that the announced ranges exactly partition the cohort).
/// Owns the session keypair and the agent role; `dataset` provides the
/// prototype's evaluation set only. Returns the same SessionTranscript the
/// flat driver would, byte-identical on the same seeds. Shard-link failures
/// throw TransportError (see the trust model above); client churn inside a
/// shard arrives as quarantine records and is handled exactly like the
/// flat driver handles it.
SessionTranscript run_root_session(std::span<const std::shared_ptr<Transport>> shard_links,
                                   const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params,
                                   fl::ChannelAccountant* channel = nullptr);

/// Shard-aggregator side: serves one session as shard `shard_id` of
/// `num_shards` over `uplink` (to the root) and `client_links` (one
/// established Transport per owned client; count must equal
/// shard_range(total_clients, num_shards, shard_id).count). Needs no
/// dataset — everything it validates or derives comes from `params` plus
/// the key material and seeds the root sends down. Client failures are
/// quarantined locally and reported upward; a root failure throws.
void serve_shard(Transport& uplink,
                 std::span<const std::shared_ptr<Transport>> client_links,
                 std::uint32_t shard_id, std::uint32_t num_shards,
                 std::size_t total_clients, const SessionParams& params);

/// The full tree in one process with `num_shards` shard aggregators (1..N):
/// the caller's thread runs the root, one thread per shard, one per client,
/// over loopback pairs or, for the TCP twin, one TcpServer per shard plus
/// one for the root with `workers` event loops each. `plans` and `channel`
/// work as for run_loopback_session (net/node.hpp).
SessionTranscript run_tree_session(const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params, std::size_t num_shards,
                                   std::span<const FaultPlan> plans = {},
                                   fl::ChannelAccountant* channel = nullptr);

SessionTranscript run_tree_tcp_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params, std::size_t num_shards,
                                       std::size_t workers = 1,
                                       std::span<const FaultPlan> plans = {},
                                       fl::ChannelAccountant* channel = nullptr);

}  // namespace dubhe::net
