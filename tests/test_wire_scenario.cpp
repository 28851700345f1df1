#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/wire_scenario.hpp"

namespace lifting::runtime {
namespace {

/// Every field the wire carries must round-trip exactly: the decoded
/// config equals the input once the link fields, which the wire ignores,
/// are reset.
void expect_roundtrip(const ScenarioConfig& config) {
  const auto text = encode_wire_scenario(config);
  std::string error;
  const auto out = decode_wire_scenario(text, &error);
  ASSERT_TRUE(out.has_value()) << error << "\n" << text;

  auto expected = config;
  expected.link = {};
  expected.weak_fraction = 0.0;
  expected.weak_link = {};
  EXPECT_EQ(*out, expected) << text;

  // Byte-identical re-encoding is the strongest round-trip guarantee the
  // deployment relies on (launcher and daemon agree on every derived seed).
  EXPECT_EQ(encode_wire_scenario(*out), text);
}

TEST(WireScenario, SmallPresetRoundTrips) {
  expect_roundtrip(ScenarioConfig::small(16));
}

TEST(WireScenario, PlanetlabPresetRoundTrips) {
  expect_roundtrip(ScenarioConfig::planetlab());
}

TEST(WireScenario, FreeriderScenarioRoundTrips) {
  auto config = ScenarioConfig::small(32);
  config.seed = 0xDEADBEEF;
  config.freerider_fraction = 0.25;
  config.freerider_behavior = gossip::BehaviorSpec::freerider(0.3);
  config.lifting.score_vote = LiftingParams::ScoreVote::kMean;
  config.lifting.adaptive_pdcc = true;
  config.lifting_enabled = false;
  expect_roundtrip(config);
}

TEST(WireScenario, DecoderRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(decode_wire_scenario("no_such_key 1\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(decode_wire_scenario("nodes\n", &error).has_value());
  EXPECT_FALSE(decode_wire_scenario("nodes banana\n", &error).has_value());
  // Comments and blank lines are fine.
  const auto text = encode_wire_scenario(ScenarioConfig::small(8));
  EXPECT_TRUE(
      decode_wire_scenario("# comment\n\n" + text, &error).has_value());
}

// Hostile values: signs, overflow past the field's width, non-finite
// doubles, out-of-range indices, and configs validate() refuses. Each is a
// decode error with a message, never a wrapped value or an exception.
TEST(WireScenario, DecoderRejectsHostileValues) {
  const char* const hostile[] = {
      "nodes -1\n",
      "nodes 4294967298\n",
      "nodes +4\n",
      "nodes  4\n",
      "gossip.fanout 18446744073709551616\n",
      "lifting.managers -3\n",
      "lifting.adaptive_pdcc 2\n",
      "lifting.p_dcc nan\n",
      "lifting.p_dcc inf\n",
      "lifting.eta -inf\n",
      "lifting.p_dcc 1e999\n",
      "lifting.score_vote median\n",
      "lifting.ack_timeout_us 9223372036854775808\n",
      "nodes 4\nduration_us -5\n",
      "faults.partitions 4097\n",
      "faults.partition.4097.modulus 1\n",
      "faults.partition.x.modulus 1\n",
      "faults.partition.0.bogus 1\n",
      // Well-formed but invalid: validate() names the problem.
      "lifting.p_dcc 1.5\n",
      "nodes 2\n",
      "duration_us 0\n",
      "faults.partition.0.modulus 3\nfaults.partition.0.remainder 3\n",
  };
  for (const char* text : hostile) {
    std::string error;
    std::optional<ScenarioConfig> out;
    EXPECT_NO_THROW(out = decode_wire_scenario(text, &error)) << text;
    EXPECT_FALSE(out.has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  std::string error;
  EXPECT_FALSE(decode_wire_scenario("lifting.p_dcc 1.5\n", &error).has_value());
  EXPECT_NE(error.find("p_dcc"), std::string::npos) << error;
}

// The gate refuses every field the codec does not carry by name when it
// differs from its default, and bounds the population it would size tables
// for. Link profiles and the weak class are ignored, not refused.
TEST(WireScenario, SimOnlyFieldsAreRejectedByName) {
  struct Case {
    const char* name;
    std::function<void(ScenarioConfig&)> set;
  };
  const std::vector<Case> cases = {
      {"nodes", [](ScenarioConfig& c) { c.nodes = 1; }},
      {"nodes", [](ScenarioConfig& c) { c.nodes = kMaxWireNodes + 1; }},
      {"nodes", [](ScenarioConfig& c) { c.nodes = 4'294'967'295U; }},
      {"timeline",
       [](ScenarioConfig& c) { c.timeline.leave_at(seconds(1.0), NodeId{1}); }},
      {"timeline",
       [](ScenarioConfig& c) {
         c.timeline.set_faults_at(seconds(1.0), faults::FaultPlan{});
       }},
      {"adversary",
       [](ScenarioConfig& c) {
         c.adversary.strategy = adversary::Strategy::kOscillate;
       }},
      {"expulsion_enabled",
       [](ScenarioConfig& c) { c.expulsion_enabled = true; }},
      {"expulsion_propagation",
       [](ScenarioConfig& c) { c.expulsion_propagation = seconds(3.0); }},
      {"view_propagation",
       [](ScenarioConfig& c) { c.view_propagation = seconds(1.0); }},
      {"freerider_behavior.collusion",
       [](ScenarioConfig& c) {
         c.freerider_behavior.collusion = gossip::CollusionSpec{};
       }},
      {"membership.rps_partner_sampling",
       [](ScenarioConfig& c) { c.membership.rps_partner_sampling = true; }},
      {"membership.rps_round_period",
       [](ScenarioConfig& c) { c.membership.rps_round_period = seconds(1.0); }},
      {"membership.view_size",
       [](ScenarioConfig& c) { c.membership.view_size = 20; }},
      {"membership.shuffle_length",
       [](ScenarioConfig& c) { c.membership.shuffle_length = 3; }},
      {"membership.bootstrap_rounds",
       [](ScenarioConfig& c) { c.membership.bootstrap_rounds = 4; }},
      {"membership.sampler",
       [](ScenarioConfig& c) {
         c.membership.sampler = membership::SamplerPolicy::hardened_defaults();
       }},
      {"membership.attack",
       [](ScenarioConfig& c) {
         c.membership.attack.strategy =
             adversary::MembershipStrategy::kViewPoison;
       }},
      {"failure_detection",
       [](ScenarioConfig& c) { c.failure_detection = seconds(5.0); }},
      {"manager_handoff",
       [](ScenarioConfig& c) { c.manager_handoff = false; }},
      {"manager_handoff_delay",
       [](ScenarioConfig& c) { c.manager_handoff_delay = seconds(2.0); }},
      {"expulsion_handoff",
       [](ScenarioConfig& c) { c.expulsion_handoff = false; }},
      {"rejoin_scores",
       [](ScenarioConfig& c) {
         c.rejoin_scores = ScenarioConfig::RejoinScores::kCarried;
       }},
      {"carried_manager_store",
       [](ScenarioConfig& c) { c.carried_manager_store = true; }},
      {"gossip.emit_acks",
       [](ScenarioConfig& c) { c.gossip.emit_acks = false; }},
  };
  for (const auto& c : cases) {
    auto config = ScenarioConfig::small(16);
    c.set(config);
    std::string why;
    EXPECT_FALSE(wire_supported(config, &why)) << c.name;
    EXPECT_NE(why.find(c.name), std::string::npos) << c.name << ": " << why;
  }

  std::string why;
  EXPECT_TRUE(wire_supported(ScenarioConfig::small(16), &why)) << why;
  EXPECT_TRUE(wire_supported(ScenarioConfig::planetlab(), &why)) << why;
  auto links = ScenarioConfig::small(16);
  links.link.loss = 0.1;
  links.weak_fraction = 0.5;
  links.weak_link.latency_base = milliseconds(200);
  EXPECT_TRUE(wire_supported(links, &why)) << why;
  auto cap = ScenarioConfig::small(16);
  cap.nodes = kMaxWireNodes;
  EXPECT_TRUE(wire_supported(cap, &why)) << why;
}

// A carried field whose value the codec cannot reproduce (here a negative
// duration, which travels as an out-of-range integer) is caught by the
// gate's round-trip catch-all rather than deployed as something else.
TEST(WireScenario, UncarriableValueIsRefused) {
  auto config = ScenarioConfig::small(16);
  config.lifting.ack_timeout = milliseconds(-1);
  std::string why;
  EXPECT_FALSE(wire_supported(config, &why));
  EXPECT_NE(why.find("lifting.ack_timeout_us"), std::string::npos) << why;
}

// Seeded robustness sweep over scenario text, in the style of test_codec's
// frame sweeps: every truncation and a few thousand byte mutations of two
// encoded configs. A mutant either decodes to a config that passes
// validate() or is refused with an error; the decoder never throws.
TEST(WireScenario, MutatedScenarioTextDecodesValidOrFailsCleanly) {
  auto faulted = ScenarioConfig::small(16);
  faulted.faults.p_good_to_bad = 0.02;
  faulted.faults.p_bad_to_good = 0.25;
  faulted.faults.loss_bad = 0.6;
  faulted.faults.delay_spike_probability = 0.01;
  faulted.faults.delay_spike_min = milliseconds(20);
  faulted.faults.delay_spike_max = milliseconds(120);
  faulted.faults.partitions.resize(2);
  faulted.faults.partitions[0].end = seconds(6.0);
  faulted.faults.partitions[0].modulus = 7;
  faulted.faults.partitions[0].remainder = 2;
  faulted.faults.partitions[1].start = seconds(7.0);
  faulted.faults.partitions[1].end = seconds(8.0);
  faulted.faults.partitions[1].modulus = 3;
  faulted.faults.partitions[1].drop_island_to_main = false;

  std::size_t decoded = 0;
  std::size_t refused = 0;
  const auto check = [&](const std::string& mutant) {
    std::string error;
    std::optional<ScenarioConfig> out;
    ASSERT_NO_THROW(out = decode_wire_scenario(mutant, &error)) << mutant;
    if (out.has_value()) {
      EXPECT_NO_THROW(out->validate()) << mutant;
      ++decoded;
    } else {
      EXPECT_FALSE(error.empty()) << mutant;
      ++refused;
    }
  };

  // Bytes a mutation writes: digits, signs, separators and letters that
  // steer the parser into each of its branches.
  const std::string kAlphabet = "0123456789-+. \n#eEnaifx_\r";
  const auto letter = [&](Pcg32& rng) {
    return kAlphabet[rng.below(static_cast<std::uint32_t>(kAlphabet.size()))];
  };
  Pcg32 rng(0x5CE7A810);
  for (const auto& config : {ScenarioConfig::planetlab(), faulted}) {
    const auto text = encode_wire_scenario(config);
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
      check(text.substr(0, cut));
    }
    for (int i = 0; i < 3000; ++i) {
      auto mutant = text;
      const auto pos = rng.below(static_cast<std::uint32_t>(mutant.size()));
      switch (rng.below(4)) {
        case 0:  // flip bits
          mutant[pos] = static_cast<char>(mutant[pos] ^ (1 + rng.below(255)));
          break;
        case 1:  // overwrite
          mutant[pos] = letter(rng);
          break;
        case 2:  // insert
          mutant.insert(pos, 1, letter(rng));
          break;
        default:  // delete
          mutant.erase(pos, 1);
          break;
      }
      check(mutant);
    }
  }
  // Sanity: the sweep reached both outcomes.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace lifting::runtime
