#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "obs/registry.hpp"
#include "runtime/experiment.hpp"
#include "runtime/node_host.hpp"
#include "runtime/wire_scenario.hpp"

namespace lifting::runtime {
namespace {

/// Key families both backends report under one vocabulary (DESIGN.md §13).
bool is_shared_key(const std::string& key) {
  for (const char* prefix : {"sent.", "engine.", "stream.", "faults.",
                             "audit_channel.", "trace."}) {
    if (key.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::set<std::string> shared_keys(const std::map<std::string,
                                                 std::uint64_t>& totals) {
  std::set<std::string> keys;
  for (const auto& [key, value] : totals) {
    if (is_shared_key(key)) keys.insert(key);
  }
  return keys;
}

/// In-process wire deployment: one NodeHost (the lifting_node daemon's
/// stack) per thread, real UDP datagrams between them — the multi-process
/// launcher path minus fork/exec, so it runs inside the test suite and
/// under sanitizers. Hosts share nothing but the port roster, exactly like
/// separate processes would.
TEST(WireDeploy, LoopbackStreamReachesEveryNode) {
  auto config = ScenarioConfig::small(8);
  config.stream.duration = seconds(1.2);
  config.duration = seconds(2.0);

  std::string why;
  ASSERT_TRUE(wire_supported(config, &why)) << why;

  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    hosts.push_back(std::make_unique<NodeHost>(config, NodeId{i}));
    ports.push_back(hosts.back()->port());
    ASSERT_NE(ports.back(), 0u);
  }
  for (auto& host : hosts) host->set_roster(ports);

  EXPECT_TRUE(hosts[0]->is_source());
  EXPECT_FALSE(hosts[1]->is_source());

  std::vector<std::thread> threads;
  threads.reserve(hosts.size());
  for (auto& host : hosts) {
    threads.emplace_back([&host] { host->run(); });
  }
  for (auto& thread : threads) thread.join();

  const auto emitted = hosts[0]->chunks_emitted();
  ASSERT_GT(emitted, 0u);
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    const auto& udp = hosts[i]->transport();
    EXPECT_EQ(udp.decode_failures(), 0u) << "node " << i;
    EXPECT_EQ(udp.socket_errors(), 0u) << "node " << i;
    EXPECT_EQ(udp.send_failures(), 0u) << "node " << i;
    if (i == 0) continue;
    // Loopback, no loss: the stream must substantially arrive everywhere.
    EXPECT_GE(hosts[i]->engine_stats().chunks_received + 1, emitted)
        << "node " << i << " received "
        << hosts[i]->engine_stats().chunks_received << "/" << emitted;
  }

  // The wire-vs-model identity on live traffic: serves cost model + 10 B,
  // every other UDP kind model + 6 B per datagram (see lifting_loopback).
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    const auto& stats = hosts[i]->transport().wire_stats();
    for (std::size_t k = 0; k < stats.size(); ++k) {
      if (stats[k].count == 0 || k >= 12) continue;  // audit kinds: launcher
      const std::uint64_t delta = k == 2 ? 10 : 6;
      EXPECT_EQ(stats[k].wire_bytes,
                stats[k].modeled_bytes + delta * stats[k].count)
          << "node " << i << " kind " << k;
    }
  }

  // One metric vocabulary: every host's fold, summed by name, names the
  // same node-level counters as a simulator run of the same config; the
  // only other wire keys are the udp.* transport counters.
  std::map<std::string, std::uint64_t> wire;
  for (const auto& host : hosts) {
    obs::Registry reg;
    host->collect_metrics(reg);
    for (const auto& e : reg.entries()) wire[e.name] += e.counter;
  }
  for (const auto& [key, value] : wire) {
    EXPECT_TRUE(is_shared_key(key) || key.rfind("udp.", 0) == 0) << key;
  }
  Experiment sim(config);
  sim.run();
  obs::Registry sim_reg;
  sim.collect_metrics(sim_reg);
  std::map<std::string, std::uint64_t> simulated;
  for (const auto& e : sim_reg.entries()) simulated[e.name] = e.counter;
  EXPECT_EQ(shared_keys(wire), shared_keys(simulated));

  // The Mailer's tally is now reported on the wire, and with no fault plan
  // every tallied send reaches the socket.
  std::uint64_t tallied = 0;
  for (const auto& [key, value] : wire) {
    if (key.rfind("sent.", 0) == 0 && key.ends_with(".count")) {
      tallied += value;
    }
  }
  EXPECT_GT(tallied, 0u);
  EXPECT_EQ(tallied, wire["udp.messages_sent"]);
  EXPECT_EQ(wire["stream.chunks_emitted"], emitted);
}

/// Roles and derived state agree across independently-built hosts: the
/// freerider set comes out of the config, not out of coordination.
TEST(WireDeploy, RolesDeriveConsistentlyFromConfig) {
  auto config = ScenarioConfig::small(12);
  config.freerider_fraction = 0.25;

  std::uint32_t freeriders = 0;
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    NodeHost host(config, NodeId{i});
    if (host.is_freerider()) ++freeriders;
    if (i == 0) EXPECT_TRUE(host.is_source());
  }
  EXPECT_EQ(freeriders, 3u);  // floor(0.25 * 12), source excluded by seed
}

/// Runs `command` through the shell; returns its exit code (-1 if it did
/// not exit normally) and everything it printed.
std::pair<int, std::string> run_tool(const std::string& command) {
  FILE* pipe = ::popen((command + " 2>&1 </dev/null").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

/// A number flag that does not parse whole, overflows its type or is not
/// finite stops the launcher with a message naming it. The node binary
/// does not exist, so a value that got past the parser would fail later,
/// at launch, with "failed to launch node 0" instead.
TEST(WireDeploy, LauncherRefusesBadNumbersBeforeLaunch) {
  const std::string launcher = std::string(LIFTING_LOOPBACK_BIN) +
                               " --node-bin /nonexistent/lifting_node";
  const std::pair<std::string, std::string> bad[] = {
      {"--nodes", "4294967299"},  // wrapped to 3 under the old strtoul cast
      {"--nodes", "-1"},          {"--nodes", "16x"},
      {"--seconds", "nan"},       {"--seconds", "1e999"},
      {"--seed", "-1"},           {"--freeriders", "inf"},
      {"--health-min", ""},       {"--timeout", "4294967296"},
      {"--burst-loss", "0.1.2"},  {"--trace-capacity", "+5"},
  };
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(flag + " '" + value + "'");
    const auto [code, out] =
        run_tool(launcher + " " + flag + " '" + value + "'");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find(flag + ": '" + value + "' is not"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("launch"), std::string::npos) << out;
  }
}

/// The daemon refuses a --self that would wrap onto another node id (node
/// 0, the source, for 2^32) before it reads its scenario.
TEST(WireDeploy, DaemonRefusesWrappingSelfId) {
  for (const char* self : {"4294967296", "-1", "3x", ""}) {
    SCOPED_TRACE(self);
    const auto [code, out] = run_tool(std::string(LIFTING_NODE_BIN) +
                                      " --self '" + self + "'");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find(std::string("ERROR --self: '") + self + "'"),
              std::string::npos)
        << out;
  }
}

}  // namespace
}  // namespace lifting::runtime
