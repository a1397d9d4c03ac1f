// Deterministic fault-injection registry tests: spec parsing, the
// everything-off default, seeded replayability, rate endpoints, clip
// scoping, and the injected-fault counters.

#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/trace_timeline.h"

namespace otif::fault {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearFaults(); }
};

TEST_F(FaultInjectionTest, DisabledByDefault) {
  EXPECT_FALSE(Enabled());
  Injection inj;
  // A macro-style probe on an unarmed site never fires.
  EXPECT_FALSE(OTIF_FAULT_POINT("test.default", 0, &inj));
}

TEST_F(FaultInjectionTest, ConfigureArmsAndClearDisarms) {
  ASSERT_TRUE(ConfigureFaults("test.arm:error:1:42").ok());
  EXPECT_TRUE(Enabled());
  const std::vector<std::string> armed = ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "test.arm"), armed.end());

  Injection inj;
  EXPECT_TRUE(OTIF_FAULT_POINT("test.arm", 0, &inj));
  EXPECT_EQ(inj.kind, Kind::kError);

  ClearFaults();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(OTIF_FAULT_POINT("test.arm", 0, &inj));
  EXPECT_TRUE(ArmedSites().empty());
}

TEST_F(FaultInjectionTest, MalformedSpecsRejectedAndPreviousConfigKept) {
  ASSERT_TRUE(ConfigureFaults("test.keep:error:1:7").ok());
  for (const char* bad :
       {"site_only", "a:b", "a:notakind:0.5:1", "a:error:1.5:1",
        "a:error:-0.1:1", "a:error:0.5:notanumber", "a:error:0.5:1:bogus=3",
        ":error:0.5:1", "a:error:0.5:1:clip=-2", "a:error:nan:1",
        "a:error:inf:1", "a:stall:1:1:ms=4294967321",
        "a:stall:1:1:ms=2147483648", "a b:error:0.5:1", "a_b:error:0.5:1"}) {
    EXPECT_EQ(ConfigureFaults(bad).code(), StatusCode::kInvalidArgument)
        << "spec: " << bad;
  }
  // The last good configuration survived every rejected attempt.
  EXPECT_TRUE(Enabled());
  Injection inj;
  EXPECT_TRUE(OTIF_FAULT_POINT("test.keep", 0, &inj));
}

TEST_F(FaultInjectionTest, ParsesOptionsAndMultipleEntries) {
  ASSERT_TRUE(
      ConfigureFaults("test.a:stall:1:3:ms=25, test.b:deny:1:4:clip=2").ok());
  Injection inj;
  ASSERT_TRUE(GetSite("test.a")->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kStall);
  EXPECT_EQ(inj.stall_ms, 25);

  // test.b is scoped to clip 2 only.
  EXPECT_FALSE(GetSite("test.b")->Inject(/*clip=*/0, /*token=*/0, &inj));
  ASSERT_TRUE(GetSite("test.b")->Inject(/*clip=*/2, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kDeny);

  // The largest stall an int holds is still accepted.
  ASSERT_TRUE(ConfigureFaults("test.a:stall:1:3:ms=2147483647").ok());
  ASSERT_TRUE(GetSite("test.a")->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_EQ(inj.stall_ms, INT_MAX);
}

TEST_F(FaultInjectionTest, SeededDecisionsAreDeterministicPerToken) {
  ASSERT_TRUE(ConfigureFaults("test.det:error:0.5:1234").ok());
  Site* site = GetSite("test.det");
  std::vector<bool> first;
  Injection inj;
  for (int64_t token = 0; token < 256; ++token) {
    first.push_back(site->Inject(/*clip=*/0, token, &inj));
  }
  // Same seed, same tokens: bit-identical replay, any number of times.
  for (int64_t token = 0; token < 256; ++token) {
    EXPECT_EQ(site->Inject(/*clip=*/0, token, &inj), first[token]) << token;
  }
  // Roughly half fire at rate 0.5 (deterministic, just sanity-bounded).
  const int fired = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 64);
  EXPECT_LT(fired, 192);

  // A different seed produces a different decision sequence.
  ASSERT_TRUE(ConfigureFaults("test.det:error:0.5:99").ok());
  std::vector<bool> reseeded;
  for (int64_t token = 0; token < 256; ++token) {
    reseeded.push_back(site->Inject(/*clip=*/0, token, &inj));
  }
  EXPECT_NE(first, reseeded);
}

TEST_F(FaultInjectionTest, RateEndpoints) {
  ASSERT_TRUE(ConfigureFaults("test.never:error:0:1,test.always:error:1:1")
                  .ok());
  Injection inj;
  for (int64_t token = 0; token < 64; ++token) {
    EXPECT_FALSE(GetSite("test.never")->Inject(/*clip=*/0, token, &inj));
    EXPECT_TRUE(GetSite("test.always")->Inject(/*clip=*/0, token, &inj));
  }
}

TEST_F(FaultInjectionTest, AutoTokenUsesTimelineClipContext) {
  ASSERT_TRUE(ConfigureFaults("test.ctx:error:1:5:clip=3").ok());
  Injection inj;
  // No timeline context: clip resolves to the default (not 3) and the
  // clip-scoped site stays quiet.
  EXPECT_FALSE(OTIF_FAULT_POINT("test.ctx", -1, &inj));
  {
    telemetry::timeline::ScopedContext ctx({.clip = 3});
    EXPECT_TRUE(OTIF_FAULT_POINT("test.ctx", -1, &inj));
  }
  EXPECT_FALSE(OTIF_FAULT_POINT("test.ctx", -1, &inj));
}

TEST_F(FaultInjectionTest, InjectedCounterCountsFiredFaultsOnly) {
  telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "fault.injected.test.count");
  const int64_t before = counter->value();
  ASSERT_TRUE(ConfigureFaults("test.count:error:1:1").ok());
  Injection inj;
  EXPECT_TRUE(OTIF_FAULT_POINT("test.count", 0, &inj));
  EXPECT_TRUE(OTIF_FAULT_POINT("test.count", 1, &inj));
  EXPECT_EQ(counter->value(), before + 2);

  ASSERT_TRUE(ConfigureFaults("test.count:error:0:1").ok());
  EXPECT_FALSE(OTIF_FAULT_POINT("test.count", 2, &inj));
  EXPECT_EQ(counter->value(), before + 2);
}

/// Strict strtod of a whole field; false when any character is left over.
bool ParseWholeDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

TEST_F(FaultInjectionTest, RandomizedSpecsKeepParserInvariants) {
  // Specs assembled from the grammar's own pieces, each field valid or
  // (one time in eight) a near miss, then sometimes mutated character by
  // character with the grammar's alphabet. Fixed seed: any failure replays
  // exactly.
  struct Field {
    std::vector<std::string> valid;
    std::vector<std::string> invalid;
  };
  const Field site = {{"fz.a", "fz.b", "fz.c"}, {"", "fz a", "fz_a"}};
  const Field kind = {{"error", "stall", "deny"}, {"Error", "stal", ""}};
  const Field rate = {
      {"0", "1", "0.5", "1.0", "0.25", "1e-3", "-0", " 0.5", "0x1p-1"},
      {"nan", "-nan", "NAN", "inf", "-inf", "infinity", "1.5", "-0.1",
       "1e309", "", "0.5x", "1e", "."}};
  const Field seed = {{"0", "7", "9223372036854775807"},
                      {"-1", "9223372036854775808", "x", ""}};
  const Field option = {
      {"clip=0", "clip=3", "ms=0", "ms=25", "ms=2147483647"},
      {"clip=-2", "clip=", "ms=2147483648", "ms=4294967321", "ms=-1",
       "bogus=3", "ms", "=5"}};
  const std::string alphabet = "abcdefnirsty0123456789.:,=-+ _xpE";
  std::mt19937 rng(20261018);
  const auto chance = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng) == 0;
  };
  const auto pick = [&](const Field& field) {
    const std::vector<std::string>& from =
        chance(8) ? field.invalid : field.valid;
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };

  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec;
    const int num_entries = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int e = 0; e < num_entries; ++e) {
      std::vector<std::string> fields = {pick(site), pick(kind), pick(rate),
                                         pick(seed)};
      const int num_options = std::uniform_int_distribution<int>(0, 2)(rng);
      for (int o = 0; o < num_options; ++o) fields.push_back(pick(option));
      if (chance(16)) fields.pop_back();
      if (e > 0) spec += ',';
      for (size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) spec += ':';
        spec += fields[f];
      }
    }
    if (chance(4)) {
      const int edits = std::uniform_int_distribution<int>(1, 3)(rng);
      for (int k = 0; k < edits; ++k) {
        const size_t pos =
            std::uniform_int_distribution<size_t>(0, spec.size())(rng);
        const char c = alphabet[std::uniform_int_distribution<size_t>(
            0, alphabet.size() - 1)(rng)];
        const int op = std::uniform_int_distribution<int>(0, 2)(rng);
        if (op == 0 || pos == spec.size()) {
          spec.insert(pos, 1, c);
        } else if (op == 1) {
          spec[pos] = c;
        } else {
          spec.erase(pos, 1);
        }
      }
    }

    ASSERT_TRUE(ConfigureFaults("fz.keep:error:1:7").ok());
    const Status status = ConfigureFaults(spec);
    ASSERT_TRUE(status.ok() || status.code() == StatusCode::kInvalidArgument)
        << "spec: " << spec << " -> " << status.ToString();
    if (!status.ok()) {
      ++rejected;
      // A rejected spec leaves the previous configuration armed.
      ASSERT_EQ(ArmedSites(), std::vector<std::string>{"fz.keep"})
          << "spec: " << spec;
      Injection inj;
      ASSERT_TRUE(GetSite("fz.keep")->Inject(/*clip=*/0, iter, &inj));
      continue;
    }
    ++accepted;
    // An accepted spec arms exactly its entries' sites, and every rate and
    // stall it accepted is in range.
    std::set<std::string> names;
    for (const std::string& raw : StrSplit(spec, ',')) {
      const std::string_view item = StripWhitespace(raw);
      if (item.empty()) continue;
      const std::vector<std::string> fields = StrSplit(item, ':');
      ASSERT_GE(fields.size(), 4u) << "spec: " << spec;
      names.insert(fields[0]);
      double rate = 0.0;
      ASSERT_TRUE(ParseWholeDouble(fields[2], &rate)) << "spec: " << spec;
      EXPECT_TRUE(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0)
          << "spec: " << spec;
      for (size_t f = 4; f < fields.size(); ++f) {
        if (!StartsWith(fields[f], "ms=")) continue;
        double ms = 0.0;
        ASSERT_TRUE(ParseWholeDouble(fields[f].substr(3), &ms))
            << "spec: " << spec;
        EXPECT_TRUE(ms >= 0.0 && ms <= INT_MAX) << "spec: " << spec;
      }
    }
    EXPECT_EQ(ArmedSites(),
              std::vector<std::string>(names.begin(), names.end()))
        << "spec: " << spec;
  }
  // The generator reaches both outcomes often.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
}

}  // namespace
}  // namespace otif::fault
