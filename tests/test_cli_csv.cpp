#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/cli.hpp"
#include "sim/csv.hpp"

namespace dubhe::sim {
namespace {

CliOptions parse(std::initializer_list<std::string> args) {
  const std::vector<std::string> v(args);
  return parse_cli(v);
}

TEST(Cli, DefaultsAreSane) {
  const CliOptions opt = parse({});
  ASSERT_TRUE(opt.valid);
  EXPECT_EQ(opt.config.method, Method::kDubhe);
  EXPECT_EQ(opt.config.part.num_clients, 300u);
  EXPECT_EQ(opt.config.K, 20u);
  EXPECT_FALSE(opt.show_help);
}

TEST(Cli, ParsesFullCommandLine) {
  const CliOptions opt = parse({"--dataset", "cifar", "--method", "greedy",
                                "--clients", "500", "--samples", "64", "--rho", "5",
                                "--emd", "1.0", "--rounds", "42", "--k", "10",
                                "--h", "7", "--lr", "0.01", "--epochs", "3",
                                "--batch", "16", "--dropout", "0.2", "--prox-mu",
                                "0.05", "--eval-every", "6",
                                "--seed", "99", "--csv", "/tmp/x.csv"});
  ASSERT_TRUE(opt.valid) << opt.error;
  EXPECT_EQ(opt.config.spec.name, "cifar10-like");
  EXPECT_EQ(opt.config.method, Method::kGreedy);
  EXPECT_EQ(opt.config.part.num_clients, 500u);
  EXPECT_EQ(opt.config.part.samples_per_client, 64u);
  EXPECT_DOUBLE_EQ(opt.config.part.rho, 5.0);
  EXPECT_DOUBLE_EQ(opt.config.part.emd_avg, 1.0);
  EXPECT_EQ(opt.config.rounds, 42u);
  EXPECT_EQ(opt.config.K, 10u);
  EXPECT_EQ(opt.config.multi_time_h, 7u);
  EXPECT_DOUBLE_EQ(opt.config.train.lr, 0.01);
  EXPECT_EQ(opt.config.train.epochs, 3u);
  EXPECT_EQ(opt.config.train.batch_size, 16u);
  EXPECT_DOUBLE_EQ(opt.config.dropout_prob, 0.2);
  EXPECT_DOUBLE_EQ(opt.config.train.prox_mu, 0.05);
  EXPECT_EQ(opt.config.eval_every, 6u);
  EXPECT_EQ(opt.config.seed, 99u);
  EXPECT_EQ(opt.csv_path, "/tmp/x.csv");
}

TEST(Cli, FemnistPresetWiresReferenceSet) {
  const CliOptions opt = parse({"--dataset", "femnist"});
  ASSERT_TRUE(opt.valid);
  EXPECT_EQ(opt.config.part.num_classes, 52u);
  EXPECT_EQ(opt.config.reference_set, (std::vector<std::size_t>{1, 52}));
}

TEST(Cli, BooleanFlags) {
  const CliOptions opt = parse({"--auto-sigma", "--resample"});
  ASSERT_TRUE(opt.valid);
  EXPECT_TRUE(opt.config.auto_param_search);
  EXPECT_TRUE(opt.config.train.resample_each_round);
}

TEST(Cli, HelpShortCircuits) {
  const CliOptions opt = parse({"--help", "--bogus"});
  EXPECT_TRUE(opt.show_help);
  EXPECT_TRUE(opt.valid);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(Cli, Rejections) {
  EXPECT_FALSE(parse({"--bogus"}).valid);
  EXPECT_FALSE(parse({"--rho"}).valid);            // missing value
  EXPECT_FALSE(parse({"--rho", "abc"}).valid);     // malformed
  EXPECT_FALSE(parse({"--clients", "-5"}).valid);  // not a size
  EXPECT_FALSE(parse({"--dataset", "imagenet"}).valid);
  EXPECT_FALSE(parse({"--method", "magic"}).valid);
  EXPECT_FALSE(parse({"--clients", "10", "--k", "20"}).valid);  // K > N
  EXPECT_FALSE(parse({"--eval-every", "0"}).valid);
  EXPECT_FALSE(parse({"--rounds", "0"}).valid);
  EXPECT_FALSE(parse({"--threads", "2"}).valid);   // training uses the whole pool
  const CliOptions bad = parse({"--rho", "abc"});
  EXPECT_FALSE(bad.error.empty());
}

TEST(Cli, RejectsNonFiniteReals) {
  for (const char* flag : {"--rho", "--emd", "--lr", "--dropout", "--prox-mu"}) {
    for (const char* value : {"nan", "inf", "-inf", "NaN", "1e999"}) {
      EXPECT_FALSE(parse({flag, value}).valid) << flag << " " << value;
    }
  }
}

TEST(Cli, DropoutIsAProbability) {
  EXPECT_FALSE(parse({"--dropout", "2"}).valid);
  EXPECT_FALSE(parse({"--dropout", "-1"}).valid);
  EXPECT_FALSE(parse({"--dropout", "1.0001"}).valid);
  EXPECT_DOUBLE_EQ(parse({"--dropout", "0"}).config.dropout_prob, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--dropout", "1"}).config.dropout_prob, 1.0);
}

TEST(Csv, CurveRoundTrip) {
  ExperimentResult r;
  r.accuracy_curve = {{0, 0.1}, {2, 0.5}};
  r.po_pu_l1 = {0.7, 0.6, 0.5};
  const std::string path = "/tmp/dubhe_test_curve.csv";
  ASSERT_TRUE(write_curve_csv(path, r));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("round,test_accuracy,po_pu_l1"), std::string::npos);
  EXPECT_NE(content.find("0,0.1,0.7"), std::string::npos);
  EXPECT_NE(content.find("1,,0.6"), std::string::npos);  // non-eval round
  EXPECT_NE(content.find("2,0.5,0.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, CurveWithEmdStar) {
  ExperimentResult r;
  r.accuracy_curve = {{0, 0.2}};
  r.po_pu_l1 = {0.4};
  r.emd_star = {0.3};
  const std::string path = "/tmp/dubhe_test_curve2.csv";
  ASSERT_TRUE(write_curve_csv(path, r));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("emd_star"), std::string::npos);
  EXPECT_NE(ss.str().find("0,0.2,0.4,0.3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, DistributionWriter) {
  const std::string path = "/tmp/dubhe_test_dist.csv";
  ASSERT_TRUE(write_distribution_csv(path, {0.25, 0.75}));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("0,0.25"), std::string::npos);
  EXPECT_NE(ss.str().find("1,0.75"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, BadPathReturnsFalse) {
  ExperimentResult r;
  r.po_pu_l1 = {0.5};
  EXPECT_FALSE(write_curve_csv("/nonexistent-dir/x.csv", r));
  EXPECT_FALSE(write_distribution_csv("/nonexistent-dir/x.csv", {0.5}));
}

}  // namespace
}  // namespace dubhe::sim
