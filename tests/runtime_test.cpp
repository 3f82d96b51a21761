// End-to-end tests of the threaded runtime: distributed GD over real
// worker threads must reproduce serial training exactly (up to decode
// round-off), for every scheme, with and without injected stragglers.
// Also unit tests of the worker loop both live runtimes share, driven
// over an in-process endpoint pair, and of the master's handling of
// frames that break the protocol.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <functional>
#include <future>
#include <optional>
#include <thread>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/opt.hpp"
#include "comm/tcp_transport.hpp"
#include "comm/transport.hpp"
#include "runtime/runtime.hpp"
#include "runtime/transport_provider.hpp"
#include "runtime/worker.hpp"
#include "stats/rng.hpp"

namespace coupon::runtime {
namespace {

constexpr std::size_t kUnits = 8;
constexpr std::size_t kWorkers = 8;
constexpr std::size_t kLoad = 2;  // divides kWorkers for FR
constexpr std::size_t kFeatures = 5;
constexpr std::size_t kIterations = 6;

struct Setup {
  data::SyntheticProblem problem;
  std::unique_ptr<core::PerExampleSource> source;
  std::unique_ptr<core::Scheme> scheme;
};

Setup make_setup(const std::string& kind, std::uint64_t seed = 3) {
  Setup s;
  stats::Rng rng(seed);
  data::SyntheticConfig dconf;
  dconf.num_features = kFeatures;
  s.problem = data::generate_logreg(kUnits, dconf, rng);
  s.source = std::make_unique<core::PerExampleSource>(s.problem.dataset);
  core::SchemeConfig config{kWorkers, kUnits, kLoad, true};
  // Random placements (simple randomized) may miss a unit at this small
  // n; redraw until the placement covers, as a deployment would before
  // shipping data to workers.
  for (int attempt = 0; attempt < 64; ++attempt) {
    s.scheme = core::SchemeRegistry::instance().create(kind, config, rng);
    if (s.scheme->placement().covers_all_examples()) {
      return s;
    }
  }
  ADD_FAILURE() << "no covering placement in 64 draws";
  return s;
}

std::vector<double> serial_reference(const data::Dataset& dataset) {
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  const auto oracle = opt::make_logistic_oracle(dataset);
  return opt::train(opt, oracle, kIterations).weights;
}

class RuntimeSchemeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RuntimeSchemeTest, DistributedMatchesSerialTraining) {
  const auto setup = make_setup(GetParam());
  const auto expected = serial_reference(setup.problem.dataset);

  ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  TrainOptions options;
  options.iterations = kIterations;
  const auto result = cluster.train(opt, options);

  EXPECT_EQ(result.failed_iterations, 0u);
  ASSERT_EQ(result.weights.size(), expected.size());
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-7)
      << "scheme " << setup.scheme->name();
}

TEST_P(RuntimeSchemeTest, StragglerInjectionDoesNotChangeTheMath) {
  const auto setup = make_setup(GetParam());
  const auto expected = serial_reference(setup.problem.dataset);

  ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  TrainOptions options;
  options.iterations = kIterations;
  options.straggler.enabled = true;
  options.straggler.shift_ms_per_unit = 0.2;
  options.straggler.straggle = 2.0;
  const auto result = cluster.train(opt, options);

  EXPECT_EQ(result.failed_iterations, 0u);
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-7);
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

TEST_P(RuntimeSchemeTest, RecoveryThresholdAccountingIsSane) {
  const auto setup = make_setup(GetParam());
  ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::GradientDescent opt(kFeatures,
                           opt::LearningRateSchedule::constant(0.2));
  TrainOptions options;
  options.iterations = 4;
  const auto result = cluster.train(opt, options);
  EXPECT_EQ(result.workers_heard.count(), 4u);
  EXPECT_GE(result.workers_heard.min(), 1.0);
  EXPECT_LE(result.workers_heard.max(), static_cast<double>(kWorkers));
  EXPECT_GE(result.units_received.min(), result.workers_heard.min());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RuntimeSchemeTest,
    ::testing::Values("uncoded", "bcc", "simple_random", "cr", "fr"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      name[0] = static_cast<char>(std::toupper(name[0]));
      const auto underscore = name.find('_');
      if (underscore != std::string::npos) {
        name.erase(underscore, 1);
        name[underscore] = static_cast<char>(std::toupper(name[underscore]));
      }
      return name;
    });

TEST(Runtime, BccWithLowerKThanUncoded) {
  // BCC's master should on average stop after fewer workers than n.
  stats::Rng rng(9);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(6, dconf, rng);
  core::PerExampleSource source(problem.dataset);
  core::SchemeConfig config{24, 6, 2, true};  // B = 3, n = 24
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);

  ThreadCluster cluster(*scheme, source);
  opt::GradientDescent opt(4, opt::LearningRateSchedule::constant(0.1));
  TrainOptions options;
  options.iterations = 10;
  // Stragglers make arrival order genuinely random across iterations.
  options.straggler.enabled = true;
  options.straggler.shift_ms_per_unit = 0.05;
  options.straggler.straggle = 1.0;
  const auto result = cluster.train(opt, options);
  EXPECT_EQ(result.failed_iterations, 0u);
  EXPECT_LT(result.workers_heard.mean(), 24.0);
}

TEST(Runtime, BccCoverageFailureSkipsUpdateAndContinues) {
  // n = B = 2 randomly-placed workers collide on one batch with
  // probability 1/2 per placement; scan seeds until a colliding placement
  // shows up, then verify the run degrades gracefully.
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    const auto problem = data::generate_logreg(4, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};  // B = 2, n = 2
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    const bool collides = !scheme->placement().covers_all_examples();
    if (!collides) {
      continue;
    }
    ThreadCluster cluster(*scheme, source);
    opt::GradientDescent opt(3, opt::LearningRateSchedule::constant(0.1));
    TrainOptions options;
    options.iterations = 3;
    const auto result = cluster.train(opt, options);
    EXPECT_EQ(result.failed_iterations, 3u);
    // No update was ever applied.
    EXPECT_EQ(result.weights, std::vector<double>(3, 0.0));
    return;
  }
  FAIL() << "no colliding placement in 32 seeds (p ~ 2^-32)";
}


TEST(Runtime, PartialFallbackAppliesRescaledCoveredGradient) {
  // n = B = 2 workers colliding on one batch: full coverage is
  // impossible, but kApplyPartial should apply exactly
  // (sum over the covered batch) / (m * covered/units) each iteration.
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    const auto problem = data::generate_logreg(4, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};  // B = 2, n = 2
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    if (scheme->placement().covers_all_examples()) {
      continue;  // need a colliding placement
    }
    const auto* bcc = dynamic_cast<const core::BccScheme*>(scheme.get());
    ASSERT_NE(bcc, nullptr);
    const std::size_t batch = bcc->batch_of_worker(0);

    ThreadCluster cluster(*scheme, source);
    opt::GradientDescent opt(3, opt::LearningRateSchedule::constant(0.1));
    TrainOptions options;
    options.iterations = 1;
    options.on_failure = FailurePolicy::kApplyPartial;
    const auto result = cluster.train(opt, options);
    EXPECT_EQ(result.partial_iterations, 1u);
    EXPECT_EQ(result.failed_iterations, 0u);

    // Expected: one GD step with grad = batch_sum / (4 * 2/4) = sum/2.
    std::vector<double> batch_sum(3, 0.0);
    const std::vector<std::size_t> idx = {batch * 2, batch * 2 + 1};
    opt::partial_gradient_sum(problem.dataset, idx,
                              std::vector<double>(3, 0.0), batch_sum, false);
    std::vector<double> expected(3);
    for (std::size_t c = 0; c < 3; ++c) {
      expected[c] = -0.1 * batch_sum[c] / 2.0;
    }
    EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-12);
    return;
  }
  FAIL() << "no colliding placement in 32 seeds";
}

TEST(Runtime, PartialFallbackStillMakesTrainingProgress) {
  // Same degenerate cluster over many iterations: the approximate
  // gradient still reduces the loss, unlike kSkipUpdate which freezes.
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    const auto problem = data::generate_logreg(4, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    if (scheme->placement().covers_all_examples()) {
      continue;
    }
    ThreadCluster cluster(*scheme, source);
    opt::GradientDescent opt(3, opt::LearningRateSchedule::constant(0.2));
    TrainOptions options;
    options.iterations = 15;
    options.on_failure = FailurePolicy::kApplyPartial;
    const auto result = cluster.train(opt, options);
    EXPECT_EQ(result.partial_iterations, 15u);
    // Loss on the *covered* half decreased; the weights moved.
    EXPECT_GT(linalg::max_abs(result.weights), 0.0);
    return;
  }
  FAIL() << "no colliding placement in 32 seeds";
}

TEST(Runtime, GroupedSourceMatchesSerial) {
  // The EC2 setup: units are batches of underlying examples.
  stats::Rng rng(11);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(12, dconf, rng);
  data::BatchPartition partition(12, 2);  // 6 units of 2 examples
  core::GroupedBatchSource source(problem.dataset, partition);

  core::SchemeConfig config{6, 6, 2, true};
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  ThreadCluster cluster(*scheme, source);
  opt::NesterovGradient opt(4, opt::LearningRateSchedule::constant(0.5));
  TrainOptions options;
  options.iterations = 5;
  const auto result = cluster.train(opt, options);

  opt::NesterovGradient serial(4, opt::LearningRateSchedule::constant(0.5));
  const auto oracle = opt::make_logistic_oracle(problem.dataset);
  const auto expected = opt::train(serial, oracle, 5).weights;
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-8);
}


TEST(Runtime, LeastSquaresLossTrainsThroughSchemesToo) {
  // The scheme layer is loss-agnostic: swap the gradient source for the
  // squared loss and distributed training still matches serial exactly.
  stats::Rng rng(15);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_linreg(10, dconf, 0.2, rng);
  core::LeastSquaresExampleSource source(problem.dataset);

  core::SchemeConfig config{10, 10, 2, true};
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  ThreadCluster cluster(*scheme, source);
  opt::GradientDescent optimizer(4, opt::LearningRateSchedule::constant(0.1));
  TrainOptions options;
  options.iterations = 20;
  const auto result = cluster.train(optimizer, options);

  opt::GradientDescent serial(4, opt::LearningRateSchedule::constant(0.1));
  const opt::GradientOracle oracle = [&](std::span<const double> w,
                                         std::span<double> g) {
    opt::squared_gradient(problem.dataset, w, g);
  };
  const auto expected = opt::train(serial, oracle, 20).weights;
  EXPECT_EQ(result.failed_iterations, 0u);
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-9);
  // Training made real progress on the squared loss.
  EXPECT_LT(opt::squared_loss(problem.dataset, result.weights),
            0.5 * opt::squared_loss(problem.dataset,
                                    std::vector<double>(4, 0.0)));
}

TEST(Runtime, AlternativeOptimizersDriveTheSameLoop) {
  // HeavyBall and AdaGrad plug into the identical master handshake.
  const auto setup = make_setup("bcc");
  for (int which = 0; which < 2; ++which) {
    ThreadCluster cluster(*setup.scheme, *setup.source);
    TrainOptions options;
    options.iterations = 5;
    std::unique_ptr<opt::IterativeOptimizer> optimizer;
    if (which == 0) {
      optimizer = std::make_unique<opt::HeavyBallGradient>(
          kFeatures, opt::LearningRateSchedule::constant(0.3), 0.5);
    } else {
      optimizer = std::make_unique<opt::AdaGrad>(
          kFeatures, opt::LearningRateSchedule::constant(0.3));
    }
    const auto result = cluster.train(*optimizer, options);
    EXPECT_EQ(result.failed_iterations, 0u);
    EXPECT_LT(opt::logistic_loss(setup.problem.dataset, result.weights),
              opt::logistic_loss(setup.problem.dataset,
                                 std::vector<double>(kFeatures, 0.0)));
  }
}

TEST(Runtime, ReusableForConsecutiveTrainingRuns) {
  const auto setup = make_setup("uncoded");
  ThreadCluster cluster(*setup.scheme, *setup.source);
  TrainOptions options;
  options.iterations = 2;
  opt::GradientDescent opt1(kFeatures,
                            opt::LearningRateSchedule::constant(0.1));
  const auto r1 = cluster.train(opt1, options);
  opt::GradientDescent opt2(kFeatures,
                            opt::LearningRateSchedule::constant(0.1));
  const auto r2 = cluster.train(opt2, options);
  EXPECT_EQ(r1.weights, r2.weights);  // identical deterministic runs
}

// --- the shared worker loop --------------------------------------------------

/// Worker `kWorker` of a bcc cluster running `run_worker` on its own
/// thread over an in-process endpoint, with the master's endpoint at
/// hand.
class WorkerLoopTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorker = 3;

  WorkerLoopTest()
      : setup_(make_setup("bcc")),
        network_(kWorkers + 1),
        master_(network_, 0),
        endpoint_(network_, kWorker + 1) {}

  // Releases a worker still blocked in recv when a test bails out early.
  ~WorkerLoopTest() override { endpoint_.close(); }

  void start() {
    exit_ = std::async(std::launch::async, [this] {
      return run_worker(endpoint_, *setup_.scheme, *setup_.source,
                        /*straggler_seed=*/42, straggler_,
                        /*crash=*/std::nullopt);
    });
  }

  void send(std::int32_t tag, std::int64_t iteration,
            std::vector<double> payload = {}) {
    comm::Message m;
    m.dest = static_cast<std::int32_t>(kWorker + 1);
    m.tag = tag;
    m.iteration = iteration;
    m.payload = std::move(payload);
    ASSERT_TRUE(master_.send(std::move(m)));
  }

  WorkerExit join() {
    EXPECT_EQ(exit_.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    return exit_.get();
  }

  runtime::Setup setup_;
  StragglerInjection straggler_;
  comm::InProcNetwork network_;
  comm::InProcessTransport master_;
  comm::InProcessTransport endpoint_;
  std::future<WorkerExit> exit_;
};

TEST_F(WorkerLoopTest, BroadcastGetsTheSchemesEncodedReply) {
  straggler_ = {.enabled = true, .shift_ms_per_unit = 0.1, .straggle = 2.0};
  start();
  const std::vector<double> w = {0.5, -1.0, 0.25, 2.0, -0.125};
  for (std::int64_t iteration : {0, 7}) {
    send(comm::kTagModelBroadcast, iteration, w);
    const comm::RecvEvent reply = master_.recv();
    ASSERT_EQ(reply.status, comm::RecvStatus::kMessage);
    EXPECT_EQ(reply.peer, kWorker + 1);
    EXPECT_EQ(reply.message.source, static_cast<std::int32_t>(kWorker + 1));
    EXPECT_EQ(reply.message.dest, 0);
    EXPECT_EQ(reply.message.tag, comm::kTagGradient);
    EXPECT_EQ(reply.message.iteration, iteration);
    comm::Message expected = setup_.scheme->encode(kWorker, *setup_.source, w);
    expected.source = static_cast<std::int32_t>(kWorker + 1);
    expected.dest = 0;
    expected.tag = comm::kTagGradient;
    expected.iteration = iteration;
    EXPECT_EQ(comm::serialize(reply.message), comm::serialize(expected));
  }
  send(comm::kTagShutdown, 0);
  EXPECT_EQ(join(), WorkerExit::kShutdown);
}

TEST_F(WorkerLoopTest, ShutdownReturns) {
  start();
  send(comm::kTagShutdown, 0);
  EXPECT_EQ(join(), WorkerExit::kShutdown);
  EXPECT_EQ(master_.recv_for(std::chrono::milliseconds(10)).status,
            comm::RecvStatus::kTimeout);  // no reply to a shutdown
}

TEST_F(WorkerLoopTest, ClosedEndpointReturnsAsShutdown) {
  start();
  endpoint_.close();  // the master is gone: nothing will ever arrive
  EXPECT_EQ(join(), WorkerExit::kShutdown);
}

TEST_F(WorkerLoopTest, NonBroadcastTagIsAProtocolViolation) {
  start();
  send(comm::kTagGradient, 0, {1.0});
  EXPECT_EQ(join(), WorkerExit::kProtocolViolation);
}


// --- the master's handling of worker frames -----------------------------------

/// Forwards to a TransportProvider, first posting `frame` into the
/// master's mailbox when iteration `at` begins, ahead of every reply.
class InjectingProvider final : public engine::IterationProvider {
 public:
  InjectingProvider(TransportProvider& inner, comm::InProcNetwork& network,
                    std::size_t at, comm::Message frame)
      : inner_(inner), network_(network), at_(at), frame_(std::move(frame)) {}

  void begin_iteration(std::size_t iteration,
                       std::span<const double> w) override {
    if (iteration == at_) {
      EXPECT_TRUE(network_.send(frame_));
    }
    inner_.begin_iteration(iteration, w);
  }
  bool next_arrival(engine::ArrivalView& out) override {
    return inner_.next_arrival(out);
  }
  engine::IterationTiming end_iteration() override {
    return inner_.end_iteration();
  }

 private:
  TransportProvider& inner_;
  comm::InProcNetwork& network_;
  std::size_t at_;
  comm::Message frame_;
};

/// Trains 8-worker bcc while the victim's stream carries a frame at
/// iteration 2, ahead of every reply: a gradient frame shaped like the
/// victim's own (its meta, kFeatures doubles) that `corrupt` then breaks.
/// The victim shares its batch with another worker, so bcc still covers
/// every unit once the victim is lost: the run must not throw, must lose
/// exactly the victim and must match serial training.
void expect_sender_lost_and_bcc_recovers(
    const std::function<void(comm::Message&)>& corrupt) {
  const auto setup = make_setup("bcc");
  const auto& placement = setup.scheme->placement();
  std::optional<std::size_t> victim;
  for (std::size_t i = 0; i < kWorkers && !victim; ++i) {
    for (std::size_t j = 0; j < kWorkers; ++j) {
      if (j != i && placement.worker(j) == placement.worker(i)) {
        victim = i;
        break;
      }
    }
  }
  ASSERT_TRUE(victim.has_value());
  const auto expected = serial_reference(setup.problem.dataset);

  comm::InProcNetwork network(kWorkers + 1);
  StragglerInjection straggler;
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      comm::InProcessTransport endpoint(network, i + 1);
      run_worker(endpoint, *setup.scheme, *setup.source,
                 /*straggler_seed=*/42, straggler, /*crash=*/std::nullopt);
    });
  }

  comm::Message bogus;
  bogus.source = static_cast<std::int32_t>(*victim + 1);
  bogus.dest = 0;
  bogus.tag = comm::kTagGradient;
  bogus.iteration = 2;
  bogus.meta = setup.scheme->message_meta(*victim);
  bogus.payload.assign(kFeatures, 0.0);
  corrupt(bogus);
  comm::InProcessTransport master(network, 0);
  TransportProvider provider(master, *setup.scheme, kFeatures, {});
  InjectingProvider injecting(provider, network, 2, std::move(bogus));
  engine::TrainingEngine engine(*setup.scheme, *setup.source, injecting);
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  engine::TrainOptions options;
  options.iterations = kIterations;
  engine::TrainReport report;
  EXPECT_NO_THROW(report = engine.train(opt, options));

  for (std::size_t i = 0; i < kWorkers; ++i) {
    comm::Message bye;
    bye.dest = static_cast<std::int32_t>(i + 1);
    bye.tag = comm::kTagShutdown;
    master.send(std::move(bye));
  }
  for (auto& t : workers) {
    t.join();
  }

  EXPECT_EQ(provider.workers_lost(), 1u);
  EXPECT_FALSE(provider.worker_alive(*victim));
  EXPECT_EQ(report.failed_iterations, 0u);
  ASSERT_EQ(report.weights.size(), expected.size());
  EXPECT_LT(linalg::max_abs_diff(report.weights, expected), 1e-7);
}

TEST(TransportProviderFrames, WrongTagLosesTheWorkerAndBccRecoversWithout) {
  expect_sender_lost_and_bcc_recovers(
      [](comm::Message& frame) { frame.tag = comm::kTagModelBroadcast; });
}

TEST(TransportProviderFrames,
     MalformedGradientLosesTheWorkerAndBccRecoversWithout) {
  // Gradient-tagged frames the scheme never sends: offered to the
  // collector, each would trip one of its asserts.
  {
    SCOPED_TRACE("meta {999}: a batch that does not exist");
    expect_sender_lost_and_bcc_recovers(
        [](comm::Message& frame) { frame.meta = {999}; });
  }
  {
    SCOPED_TRACE("empty meta");
    expect_sender_lost_and_bcc_recovers(
        [](comm::Message& frame) { frame.meta.clear(); });
  }
  {
    SCOPED_TRACE("payload of kFeatures + 1 doubles");
    expect_sender_lost_and_bcc_recovers([](comm::Message& frame) {
      frame.payload.assign(kFeatures + 1, 0.0);
    });
  }
}

/// A one-coordinate uncoded reply: meta {rank - 1}, as worker rank - 1
/// of a 2-worker uncoded scheme sends it.
comm::Message gradient_frame(std::int32_t source, std::int64_t iteration,
                             double value) {
  comm::Message m;
  m.source = source;
  m.dest = 0;
  m.tag = comm::kTagGradient;
  m.iteration = iteration;
  m.meta = {source - 1};
  m.payload = {value};
  return m;
}

TEST(TransportProviderFrames, SpoofedSourceLosesTheStreamItArrivedOn) {
  if (!comm::socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int a[2];
  int b[2];
  ASSERT_TRUE(comm::make_stream_socketpair(a));
  ASSERT_TRUE(comm::make_stream_socketpair(b));
  auto master = comm::TcpTransport::master({a[0], b[0]});
  const core::UncodedScheme scheme(2, 2);
  TransportProvider provider(
      *master, scheme, /*dim=*/1,
      {.worker_timeout = std::chrono::milliseconds(200), .elasticity = {}});
  const std::vector<double> w = {1.0, 2.0};
  engine::ArrivalView arrival;

  // Worker 1's stream carries a frame that claims to come from worker 2.
  provider.begin_iteration(0, w);
  ASSERT_TRUE(comm::send_frame(a[1], gradient_frame(2, 0, 9.0)));
  EXPECT_FALSE(provider.next_arrival(arrival));  // worker 2 is silent
  EXPECT_FALSE(provider.worker_alive(0));
  EXPECT_TRUE(provider.worker_alive(1));
  EXPECT_EQ(provider.workers_lost(), 1u);

  // Worker 2's own reply still counts.
  ASSERT_TRUE(comm::send_frame(b[1], gradient_frame(2, 0, 5.0)));
  ASSERT_TRUE(provider.next_arrival(arrival));
  EXPECT_EQ(arrival.worker, 1u);
  ASSERT_EQ(arrival.payload.size(), 1u);
  EXPECT_EQ(arrival.payload[0], 5.0);
  provider.end_iteration();

  // A later, well-formed frame from the dead stream is dropped.
  provider.begin_iteration(1, w);
  ASSERT_TRUE(comm::send_frame(a[1], gradient_frame(1, 1, 7.0)));
  ASSERT_TRUE(comm::send_frame(b[1], gradient_frame(2, 1, 6.0)));
  ASSERT_TRUE(provider.next_arrival(arrival));
  EXPECT_EQ(arrival.worker, 1u);
  ASSERT_EQ(arrival.payload.size(), 1u);
  EXPECT_EQ(arrival.payload[0], 6.0);
  EXPECT_FALSE(provider.next_arrival(arrival));  // nothing else is owed
  provider.end_iteration();

  master->close();
  ::close(a[1]);
  ::close(b[1]);
}

}  // namespace
}  // namespace coupon::runtime
