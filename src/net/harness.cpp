// The in-process session harness behind run_loopback_session,
// run_tcp_session, run_tree_session and run_tree_tcp_session: one
// implementation of the endpoints, threads, error traps, teardown and
// rethrow order for flat and tree sessions over loopback pairs or TCP.

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/engine.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/tcp.hpp"

namespace dubhe::net {

namespace {

enum class Medium { kLoopback, kTcp };

/// One aggregator's listening side for `children` child links. accept()
/// hands the aggregator its ends, connect(i) hands child i the other end,
/// and stop() unblocks everything waiting on this aggregator. Loopback
/// pairs exist up front; TCP children dial a TcpServer on an ephemeral
/// 127.0.0.1 port, so accept order is arbitrary (the hello exchanges bind
/// ids, which is why it cannot move a transcript).
class Listener {
 public:
  Listener(Medium medium, std::size_t children, std::size_t workers) : children_(children) {
    if (medium == Medium::kTcp) {
      server_ = std::make_unique<TcpServer>(0, workers);
      return;
    }
    for (std::size_t i = 0; i < children; ++i) {
      auto [ours, theirs] = LoopbackTransport::make_pair();
      ends_.push_back(std::move(ours));
      peers_.push_back(std::move(theirs));
    }
  }

  Listener(const Listener&) = delete;  // threads hold its address
  Listener& operator=(const Listener&) = delete;

  std::vector<std::shared_ptr<Transport>> accept() {
    if (server_ == nullptr) return ends_;
    std::vector<std::shared_ptr<Transport>> links;
    links.reserve(children_);
    for (std::size_t i = 0; i < children_; ++i) {
      auto link = server_->accept();
      if (link == nullptr) throw TransportError("session harness: listener stopped");
      links.push_back(std::move(link));
    }
    return links;
  }

  std::shared_ptr<Transport> connect(std::size_t i) {
    if (server_ == nullptr) return peers_[i];
    return TcpTransport::connect("127.0.0.1", server_->port());
  }

  /// Safe from several threads at once (TcpServer::stop is serialized,
  /// LoopbackTransport::close is idempotent).
  void stop() {
    if (server_ != nullptr) {
      server_->stop();
      return;
    }
    for (auto& end : ends_) end->close();
  }

 private:
  std::size_t children_;
  std::unique_ptr<TcpServer> server_;
  std::vector<std::shared_ptr<Transport>> ends_, peers_;
};

/// Flat (`shards` empty) or tree session over `medium`. Error discipline:
/// every endpoint traps its exception and closes its own links; a client
/// running an enabled fault plan is expected to die, so its exception is
/// swallowed (the quarantine record is the observable outcome). A failing
/// shard also stops the top listener, so no accept waits forever. A
/// failing top aggregator stops every listener, joins and rethrows its
/// own exception; otherwise shard errors are rethrown before client errors.
SessionTranscript run_harness(const char* name, const data::FederatedDataset& dataset,
                              const nn::Sequential& prototype, const SessionParams& params,
                              std::optional<std::size_t> shards, Medium medium,
                              std::size_t workers, std::span<const FaultPlan> plans,
                              fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  if (shards && (*shards == 0 || *shards > N)) {
    throw std::invalid_argument(std::string(name) + ": need 1..N shards");
  }
  if (!plans.empty() && plans.size() != N) {
    throw std::invalid_argument(std::string(name) + ": one fault plan per client required");
  }
  const std::size_t A = shards.value_or(0);
  detail::check_session_params(params, N);  // before any thread dials

  // Every listener exists before any thread dials one. The top aggregator
  // (flat server or root) has N clients or A shards as children; shard s
  // has its slice of the cohort.
  Listener top(medium, shards ? A : N, workers);
  std::vector<std::unique_ptr<Listener>> shard_listeners;
  for (std::size_t s = 0; s < A; ++s) {
    shard_listeners.push_back(
        std::make_unique<Listener>(medium, shard_range(N, A, s).count, workers));
  }

  std::vector<std::exception_ptr> errors(A + N);  // shards first, then clients
  std::vector<std::thread> threads;
  threads.reserve(A + N);
  const auto spawn_shard = [&](std::size_t s) {
    threads.emplace_back([&, s] {
      std::vector<std::shared_ptr<Transport>> links;
      std::shared_ptr<Transport> up;
      try {
        links = shard_listeners[s]->accept();
        up = top.connect(s);
        serve_shard(*up, links, static_cast<std::uint32_t>(s),
                    static_cast<std::uint32_t>(A), N, params);
      } catch (...) {
        errors[s] = std::current_exception();
        if (up != nullptr) up->close();
        for (auto& l : links) l->close();
        top.stop();
      }
    });
  };
  const auto spawn_client = [&](Listener& aggregator, std::size_t id, std::size_t child) {
    threads.emplace_back([&, id, child] {
      const bool faulty = id < plans.size() && plans[id].enabled();
      std::shared_ptr<Transport> end;
      try {
        end = aggregator.connect(child);
        std::shared_ptr<Transport> endpoint = end;
        if (faulty) endpoint = std::make_shared<FaultyTransport>(endpoint, plans[id]);
        serve_client(*endpoint, id, dataset, prototype, params);
      } catch (...) {
        if (!faulty) errors[A + id] = std::current_exception();
        if (end != nullptr) end->close();
      }
    });
  };

  // Spawning sits inside the try, so a thread that fails to start still
  // gets the started ones stopped and joined.
  SessionTranscript t;
  try {
    for (std::size_t s = 0; s < A; ++s) spawn_shard(s);
    if (!shards) {
      for (std::size_t id = 0; id < N; ++id) spawn_client(top, id, id);
    }
    for (std::size_t s = 0; s < A; ++s) {
      const ShardRange range = shard_range(N, A, s);
      for (std::size_t i = 0; i < range.count; ++i) {
        spawn_client(*shard_listeners[s], range.first + i, i);
      }
    }
    const auto links = top.accept();
    t = shards ? run_root_session(links, dataset, prototype, params, channel)
               : run_server_session(links, dataset, prototype, params, channel);
  } catch (...) {
    top.stop();
    for (auto& l : shard_listeners) l->stop();
    for (auto& th : threads) th.join();
    throw;
  }
  for (auto& th : threads) th.join();
  for (auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  return t;
}

}  // namespace

SessionTranscript run_loopback_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params,
                                       std::span<const FaultPlan> plans,
                                       fl::ChannelAccountant* channel) {
  return run_harness("run_loopback_session", dataset, prototype, params, std::nullopt,
                     Medium::kLoopback, 1, plans, channel);
}

SessionTranscript run_tcp_session(const data::FederatedDataset& dataset,
                                  const nn::Sequential& prototype,
                                  const SessionParams& params, std::size_t workers,
                                  std::span<const FaultPlan> plans,
                                  fl::ChannelAccountant* channel) {
  return run_harness("run_tcp_session", dataset, prototype, params, std::nullopt, Medium::kTcp,
                     workers, plans, channel);
}

SessionTranscript run_tree_session(const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params, std::size_t num_shards,
                                   std::span<const FaultPlan> plans,
                                   fl::ChannelAccountant* channel) {
  return run_harness("run_tree_session", dataset, prototype, params, num_shards,
                     Medium::kLoopback, 1, plans, channel);
}

SessionTranscript run_tree_tcp_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params, std::size_t num_shards,
                                       std::size_t workers, std::span<const FaultPlan> plans,
                                       fl::ChannelAccountant* channel) {
  return run_harness("run_tree_tcp_session", dataset, prototype, params, num_shards,
                     Medium::kTcp, workers, plans, channel);
}

}  // namespace dubhe::net
