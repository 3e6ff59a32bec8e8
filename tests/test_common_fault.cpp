// Fault-injection substrate: spec parsing, FaultScope firing windows,
// backoff schedule, retry semantics, degradation records, and propagation
// of injected faults out of the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/parallel.h"

namespace qugeo::fault {
namespace {

using std::chrono::milliseconds;

TEST(FaultSpecParse, SiteAndNth) {
  const FaultSpec s = parse_fault_spec("backend.run:3");
  EXPECT_EQ(s.site, "backend.run");
  EXPECT_EQ(s.nth, 3u);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.kind, FaultKind::kTransient);
}

TEST(FaultSpecParse, ExplicitCountAndForever) {
  const FaultSpec s = parse_fault_spec("io.rename:2:5");
  EXPECT_EQ(s.nth, 2u);
  EXPECT_EQ(s.count, 5u);
  const FaultSpec forever = parse_fault_spec("pool.task:1:*");
  EXPECT_EQ(forever.count, 0u);
  const FaultSpec zero = parse_fault_spec("pool.task:4:0");
  EXPECT_EQ(zero.count, 0u);
}

TEST(FaultSpecParse, MalformedSpecsRejected) {
  EXPECT_THROW((void)parse_fault_spec("no-colon"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec(":1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("site:"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("site:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("site:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("site:1:x"), std::invalid_argument);
  // Counts beyond std::size_t must not wrap modulo 2^64, which would arm
  // hit 1, fire forever and arm an arbitrary hit respectively.
  for (const char* spec : {"backend.run:18446744073709551617",
                           "backend.run:1:18446744073709551616",
                           "backend.run:99999999999999999999999"})
    EXPECT_THROW((void)parse_fault_spec(spec), std::invalid_argument) << spec;
  EXPECT_EQ(parse_fault_spec("backend.run:18446744073709551615").nth,
            std::numeric_limits<std::size_t>::max());
}

TEST(FaultScopeTest, UnarmedSiteIsFree) {
  EXPECT_FALSE(any_fault_armed());
  site("test.unarmed");  // must be a no-op, not a throw
}

TEST(FaultScopeTest, FiresExactlyTheConfiguredWindow) {
  FaultScope scope("test.window", 2, 2);
  EXPECT_TRUE(any_fault_armed());
  site("test.window");                                 // hit 1: before window
  EXPECT_THROW(site("test.window"), TransientError);   // hit 2
  EXPECT_THROW(site("test.window"), TransientError);   // hit 3
  site("test.window");                                 // hit 4: past window
  EXPECT_EQ(scope.hits(), 4u);
}

TEST(FaultScopeTest, OtherSitesUnaffectedAndDisarmsOnExit) {
  {
    FaultScope scope("test.site-a", 1);
    site("test.site-b");  // different site: no fire
    EXPECT_EQ(scope.hits(), 0u);
  }
  site("test.site-a");  // scope gone: no fire
  EXPECT_FALSE(any_fault_armed());
}

TEST(FaultScopeTest, FatalKindFiresFatalError) {
  FaultScope scope("test.fatal", 1, 1, FaultKind::kFatal);
  EXPECT_THROW(site("test.fatal"), FatalError);
}

TEST(FaultScopeTest, InjectedMessageNamesSiteAndHit) {
  FaultScope scope("test.message", 1);
  try {
    site("test.message");
    FAIL() << "site must fire";
  } catch (const TransientError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test.message"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hit 1"), std::string::npos) << msg;
  }
}

TEST(FaultEnvTest, ReloadArmsAndDisarmsFromEnvironment) {
  ASSERT_EQ(setenv("QUGEO_FAULT", "test.env:1", 1), 0);
  reload_from_env();
  EXPECT_TRUE(any_fault_armed());
  EXPECT_THROW(site("test.env"), TransientError);
  site("test.env");  // count defaulted to 1: second hit passes

  ASSERT_EQ(unsetenv("QUGEO_FAULT"), 0);
  reload_from_env();
  EXPECT_FALSE(any_fault_armed());
  site("test.env");
}

TEST(BackoffTest, DoublesFromInitialAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_delay = milliseconds(10);
  policy.multiplier = 2.0;
  policy.max_delay = milliseconds(50);
  const auto delays = backoff_delays(policy);
  const std::vector<milliseconds> expected = {
      milliseconds(10), milliseconds(20), milliseconds(40), milliseconds(50),
      milliseconds(50)};
  EXPECT_EQ(delays, expected);
}

TEST(BackoffTest, SingleAttemptPolicyHasNoDelays) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  EXPECT_TRUE(backoff_delays(policy).empty());
}

TEST(RetryTest, RecoversAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::vector<std::pair<std::size_t, milliseconds>> waits;
  policy.on_retry = [&](std::size_t attempt, milliseconds delay) {
    waits.emplace_back(attempt, delay);
  };
  std::size_t calls = 0;
  const int result = retry_on_transient("flaky op", policy, [&] {
    if (++calls < 3) throw TransientError("glitch");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3u);
  // Backoff sequence observed through the test hook: 1ms then 2ms.
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_EQ(waits[0], (std::pair<std::size_t, milliseconds>(1, milliseconds(1))));
  EXPECT_EQ(waits[1], (std::pair<std::size_t, milliseconds>(2, milliseconds(2))));
}

TEST(RetryTest, ExhaustionBecomesFatalWithContext) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.on_retry = [](std::size_t, milliseconds) {};
  std::size_t calls = 0;
  try {
    retry_on_transient("checkpoint write to /tmp/ck.0", policy, [&]() -> int {
      ++calls;
      throw TransientError("disk glitch");
    });
    FAIL() << "must exhaust";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint write to /tmp/ck.0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3 attempt(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("disk glitch"), std::string::npos) << msg;
  }
  EXPECT_EQ(calls, 3u);
}

TEST(RetryTest, FatalErrorIsNeverRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::size_t calls = 0;
  EXPECT_THROW(retry_on_transient("op", policy,
                                  [&]() -> int {
                                    ++calls;
                                    throw FatalError("contract violated");
                                  }),
               FatalError);
  EXPECT_EQ(calls, 1u);
}

TEST(PoolFaultTest, InjectedTaskFaultPropagatesToSubmitter) {
  const std::size_t before = num_threads();
  set_num_threads(2);  // force the fan-out path (the site lives in work_on)
  {
    FaultScope scope("pool.task", 1);
    EXPECT_THROW(
        parallel_for(0, 64, [](std::size_t) {}),
        TransientError);
    EXPECT_GE(scope.hits(), 1u);
  }
  // Disarmed: the same fan-out runs clean.
  std::atomic<std::size_t> ran{0};
  parallel_for(0, 64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64u);
  set_num_threads(before);
}

TEST(DegradationTest, EventsAreRecordedAndClearable) {
  clear_degradation_events();
  report_degradation("checkpoint", "skipping slot /tmp/ck.1 [crc-mismatch]");
  report_degradation("backend", "substituting statevector");
  const auto events = degradation_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].component, "checkpoint");
  EXPECT_NE(events[0].detail.find("crc-mismatch"), std::string::npos);
  EXPECT_EQ(events[1].component, "backend");
  clear_degradation_events();
  EXPECT_TRUE(degradation_events().empty());
}

}  // namespace
}  // namespace qugeo::fault
