// Micro-benchmarks for the training substrate: GEMM, layer forward/backward,
// full client-round cost. These are the constants behind the FL loop's
// wall-clock (the paper ran participants as parallel processes; here one
// client step is cheap enough that a 24-core box trains K = 20 clients in
// single-digit milliseconds).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string_view>

#include "core/cpu.hpp"
#include "core/parallel.hpp"
#include "core/selection.hpp"
#include "data/federated.hpp"
#include "fl/client.hpp"
#include "nn/builders.hpp"
#include "nn/loss.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

using namespace dubhe;

namespace {

tensor::Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  tensor::Tensor t{std::move(shape)};
  stats::Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = random_tensor({n, n}, 1);
  const tensor::Tensor b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MlpForwardBackward(benchmark::State& state) {
  nn::Sequential model = nn::make_mlp(32, 64, 10, 3);
  const tensor::Tensor x = random_tensor({8, 32}, 4);
  const std::vector<std::size_t> y{0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    const auto loss = nn::softmax_cross_entropy(model.forward(x), y);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_CnnForwardBackward(benchmark::State& state) {
  nn::Sequential model = nn::make_cnn(8, 10, 3);
  const tensor::Tensor x = random_tensor({8, 1, 8, 8}, 5);
  const std::vector<std::size_t> y{0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    const auto loss = nn::softmax_cross_entropy(model.forward(x), y);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_CnnForwardBackward);

const data::FederatedDataset& bench_dataset() {
  static auto* ds = [] {
    data::PartitionConfig pc;
    pc.num_classes = 10;
    pc.num_clients = 50;
    pc.samples_per_client = 128;
    pc.rho = 10;
    pc.emd_avg = 1.5;
    pc.seed = 3;
    return new data::FederatedDataset(data::mnist_like(), pc);
  }();
  return *ds;
}

void BM_ClientLocalRound(benchmark::State& state) {
  // One client's full local round: B = 8, E = 1 over 128 samples (paper's
  // group-1 configuration) on the 32->64->10 MLP.
  const auto& ds = bench_dataset();
  const auto samples = ds.client_samples(0);
  const fl::Client client(0, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 64, 10, 3);
  const auto w = proto.get_weights();
  const fl::TrainConfig cfg{.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.train(proto, w, cfg, ++seed));
  }
}
BENCHMARK(BM_ClientLocalRound)->Unit(benchmark::kMillisecond);

void BM_ClientLocalLoss(benchmark::State& state) {
  // The per-candidate cost of loss-based selection (power-of-choice).
  const auto& ds = bench_dataset();
  const auto samples = ds.client_samples(0);
  const fl::Client client(0, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 64, 10, 3);
  const auto w = proto.get_weights();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.local_loss(proto, w));
  }
}
BENCHMARK(BM_ClientLocalLoss);

void BM_GreedySelection(benchmark::State& state) {
  // The paper reports greedy adding 0.13x selection time at N = 1000; this
  // is the raw cost of one greedy round at that scale.
  const auto n = static_cast<std::size_t>(state.range(0));
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = n;
  pc.samples_per_client = 128;
  pc.rho = 10;
  pc.emd_avg = 1.5;
  pc.seed = 3;
  const auto part = data::make_partition(pc);
  core::GreedySelector sel(part.client_dists);
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.select(20, rng));
  }
}
BENCHMARK(BM_GreedySelection)->Arg(1000)->Arg(8962)->Unit(benchmark::kMillisecond);

void BM_DubheSelection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = n;
  pc.samples_per_client = 128;
  pc.rho = 10;
  pc.emd_avg = 1.5;
  pc.seed = 3;
  const auto part = data::make_partition(pc);
  static const core::RegistryCodec codec(10, {1, 2, 10});
  core::DubheSelector sel(&codec, {0.7, 0.1, 0.0});
  sel.register_clients(part.client_dists);
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.select(20, rng));
  }
}
BENCHMARK(BM_DubheSelection)->Arg(1000)->Arg(8962)->Unit(benchmark::kMillisecond);

/// Median-free quick timer (same contract as micro_crypto's): runs fn until
/// half a second has elapsed and reports seconds per call.
double time_op(const std::function<void()>& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warmup (also primes the packing buffers / workspace)
  const auto t0 = Clock::now();
  std::size_t iters = 0;
  double elapsed = 0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < 0.5);
  return elapsed / static_cast<double>(iters);
}

/// Headline compute-backend table mirroring micro_crypto's batch table:
/// GEMM / CNN step / full client round, scalar versus SIMD microkernel, at
/// 1/2/4/8 compute threads on the shared runtime. This is the table
/// CHANGES.md records as the training-side perf baseline across PRs.
void print_compute_table() {
  constexpr std::size_t kGemmN = 256;
  const tensor::Tensor ga = random_tensor({kGemmN, kGemmN}, 21);
  const tensor::Tensor gb = random_tensor({kGemmN, kGemmN}, 22);
  const double gemm_flops = 2.0 * static_cast<double>(kGemmN * kGemmN * kGemmN);

  nn::Sequential cnn = nn::make_cnn(8, 10, 3);
  const tensor::Tensor cx = random_tensor({8, 1, 8, 8}, 23);
  const std::vector<std::size_t> cy{0, 1, 2, 3, 4, 5, 6, 7};

  const auto& ds = bench_dataset();
  const auto samples = ds.client_samples(0);
  const fl::Client client(0, {samples.begin(), samples.end()}, &ds);
  const nn::Sequential proto = nn::make_mlp(ds.feature_dim(), 64, 10, 3);
  const auto w = proto.get_weights();
  const fl::TrainConfig cfg{.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};

  std::printf("cpu: %s | gemm: %s\n", core::cpu::feature_string().c_str(),
              tensor::simd_backend_name());
  std::printf("== compute backend throughput (gemm %zux%zu, cnn batch 8) ==\n", kGemmN,
              kGemmN);
  std::printf("%-26s %-8s %8s %12s %12s\n", "kernel", "backend", "threads", "ms/op",
              "GFLOP/s");
  // The backend is picked through core::cpu, which the GEMM reads on every
  // call: the scalar rows mask AVX2+FMA out of the enabled set.
  const bool simd_allowed = tensor::simd_enabled();
  const std::uint32_t prev_cpu = core::cpu::enabled();
  const std::size_t prev_threads = tensor::set_compute_threads(0);
  std::uint64_t round_seed = 0;
  for (const bool simd : {false, true}) {
    if (simd && !simd_allowed) continue;
    core::cpu::set_enabled(simd ? prev_cpu
                                : prev_cpu & ~(core::cpu::kAvx2 | core::cpu::kFma));
    const char* backend = tensor::simd_backend_name();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      tensor::set_compute_threads(threads);
      const double gemm_sec =
          time_op([&] { benchmark::DoNotOptimize(tensor::matmul(ga, gb)); });
      std::printf("%-26s %-8s %8zu %12.3f %12.1f\n", "gemm 256x256x256", backend,
                  threads, gemm_sec * 1e3, gemm_flops / gemm_sec / 1e9);
      const double cnn_sec = time_op([&] {
        const auto loss = nn::softmax_cross_entropy(cnn.forward(cx), cy);
        cnn.backward(loss.grad);
        benchmark::DoNotOptimize(loss.loss);
      });
      std::printf("%-26s %-8s %8zu %12.3f %12s\n", "cnn fwd+bwd (batch 8)", backend,
                  threads, cnn_sec * 1e3, "-");
      const double round_sec = time_op([&] {
        benchmark::DoNotOptimize(client.train(proto, w, cfg, ++round_seed));
      });
      std::printf("%-26s %-8s %8zu %12.3f %12s\n", "client local round", backend,
                  threads, round_sec * 1e3, "-");
    }
  }
  core::cpu::set_enabled(prev_cpu);
  tensor::set_compute_threads(prev_threads);
  std::printf("(runtime workers: %zu, simd compiled: %s)\n\n",
              core::ParallelRuntime::instance().worker_count(), simd_allowed ? "avx2" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Skip the headline table when iterating on one filtered benchmark, same
  // convention as micro_crypto.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_filter")) filtered = true;
  }
  if (!filtered) print_compute_table();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
