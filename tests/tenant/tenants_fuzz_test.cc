// Seeded mutation fuzzing of the tenants-file decoder. A valid tenants file
// (comments, every key, a `*` fallback) is mutated with fixed seeds — bit
// flips, truncations, duplicated tenant and `*` lines, over-long tokens,
// 20-digit values, embedded NULs and non-ASCII bytes — and
// `TenantRegistry::Parse` must answer every mutant with a registry or an
// InvalidArgument status: never a crash, a hang, or an allocation the input
// length does not justify. Every registry it accepts must survive a render
// and a reparse unchanged.

#include <string>
#include <utility>
#include <vector>

#include "kgacc/tenant/tenant.h"
#include "kgacc/util/random.h"
#include "../largest_alloc.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

constexpr int kMutants = 400;
constexpr int kMutationKinds = 8;

/// No listed tenant can have this id ('~' is outside [A-Za-z0-9_.-]), so
/// looking it up returns the `*` fallback, or nullptr without one.
constexpr char kUnlisted[] = "~unlisted~";

std::string SeedFile() {
  return "# fleet quotas\n"
         "alice  oracle_budget=500 store_quota=1048576 weight=3\n"
         "bob\tweight=1 max_sessions=2 max_inflight_steps=64\n"
         "\n"
         "carol.v2 oracle_budget=18446744073709551615 weight=4294967295\n"
         "   # indented comment\n"
         "dave_1-x max_sessions=0 store_quota=0\n"
         "*      weight=1  # everyone else\n";
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start + 1));
    start = end + 1;
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

/// Start offsets and lengths of the whitespace-separated tokens.
std::vector<std::pair<size_t, size_t>> Tokens(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t' ||
                               text[i] == '\n')) {
      ++i;
    }
    const size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t' &&
           text[i] != '\n') {
      ++i;
    }
    if (i > start) tokens.emplace_back(start, i - start);
  }
  return tokens;
}

std::string TwentyDigits(Rng* rng) {
  const char* fixed[] = {"18446744073709551615", "18446744073709551616",
                         "99999999999999999999", "00000000000000000001",
                         "00000000004294967296"};
  if (rng->Bernoulli(0.5)) return fixed[rng->UniformInt(5)];
  std::string digits;
  for (int d = 0; d < 20; ++d) {
    digits += static_cast<char>('0' + rng->UniformInt(10));
  }
  return digits;
}

std::string Mutate(std::string text, int kind, Rng* rng) {
  // Line, token and value edits need something to edit; an earlier
  // truncation may have left nothing.
  const auto tokens = Tokens(text);
  if (tokens.empty()) kind = 6;
  if (kind == 5 && text.find('=') == std::string::npos) kind = 4;
  switch (kind) {
    case 0: {  // Bit flips.
      const int flips = 1 + static_cast<int>(rng->UniformInt(4));
      for (int f = 0; f < flips && !text.empty(); ++f) {
        const size_t at = rng->UniformInt(text.size());
        text[at] = static_cast<char>(text[at] ^ (1u << rng->UniformInt(8)));
      }
      return text;
    }
    case 1:  // Truncation.
      text.resize(rng->UniformInt(text.size() + 1));
      return text;
    case 2: {  // A duplicated line, inserted anywhere.
      std::vector<std::string> lines = Lines(text);
      std::string copy = lines[rng->UniformInt(lines.size())];
      if (copy.empty() || copy.back() != '\n') copy += '\n';
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng->UniformInt(lines.size() + 1)),
                   copy);
      return Join(lines);
    }
    case 3: {  // An extra `*` line.
      std::vector<std::string> lines = Lines(text);
      const char* pairs[] = {"", " weight=2", " oracle_budget=7 weight=0",
                             " max_sessions=1"};
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng->UniformInt(lines.size() + 1)),
                   std::string("*") + pairs[rng->UniformInt(4)] + "\n");
      return Join(lines);
    }
    case 4: {  // An over-long token: an id, a key or a value.
      const auto [at, len] = tokens[rng->UniformInt(tokens.size())];
      const size_t lengths[] = {300, 4096, 70000, 300000};
      const char fill[] = {'a', '9', '=', '.'};
      text.replace(at, len, std::string(lengths[rng->UniformInt(4)],
                                        fill[rng->UniformInt(4)]));
      return text;
    }
    case 5: {  // A 20-digit value.
      size_t eq = text.find('=', rng->UniformInt(text.size()));
      if (eq == std::string::npos) eq = text.find('=');
      size_t end = eq + 1;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      text.replace(eq + 1, end - eq - 1, TwentyDigits(rng));
      return text;
    }
    case 6: {  // Embedded NULs.
      const int nuls = 1 + static_cast<int>(rng->UniformInt(3));
      for (int n = 0; n < nuls; ++n) {
        text.insert(rng->UniformInt(text.size() + 1), 1, '\0');
      }
      return text;
    }
    default: {  // Non-ASCII bytes: raw high bytes or a UTF-8 sequence.
      const std::string inserts[] = {"\xff", "\x80\x81", "\xc3\xa9",
                                     "\xe2\x80\x83", "\xf0\x9f\x98\x80"};
      const int count = 1 + static_cast<int>(rng->UniformInt(3));
      for (int c = 0; c < count; ++c) {
        text.insert(rng->UniformInt(text.size() + 1),
                    inserts[rng->UniformInt(5)]);
      }
      return text;
    }
  }
}

std::string RenderConfig(const TenantConfig& c) {
  return c.id + " oracle_budget=" + std::to_string(c.oracle_budget) +
         " store_quota=" + std::to_string(c.store_byte_quota) +
         " weight=" + std::to_string(c.weight) +
         " max_sessions=" + std::to_string(c.max_sessions) +
         " max_inflight_steps=" + std::to_string(c.max_inflight_steps) + "\n";
}

/// The tenants file an accepted registry is equivalent to.
std::string Render(const TenantRegistry& registry) {
  std::string text;
  for (const TenantConfig& config : registry.tenants()) {
    text += RenderConfig(config);
  }
  if (const TenantConfig* fallback = registry.Lookup(kUnlisted)) {
    text += RenderConfig(*fallback);
  }
  return text;
}

TEST(TenantsFuzzTest, SeedFileParses) {
  const auto registry = TenantRegistry::Parse(SeedFile());
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry->tenants().size(), 4u);
  EXPECT_NE(registry->Lookup(kUnlisted), nullptr);
}

TEST(TenantsFuzzTest, MutantsParseOrFailCleanly) {
  const std::string seed = SeedFile();
  // Fixed allocations (stream buffers, the tenant vector) are
  // input-independent; everything else may scale with the input, never
  // with a value written in it.
  constexpr size_t kFixedBytes = size_t{64} << 10;
  int accepted = 0, rejected = 0;
  for (int index = 0; index < kMutants; ++index) {
    Rng rng(0x74656e61 + static_cast<uint64_t>(index));
    const int kind = index % kMutationKinds;
    std::string mutant = Mutate(seed, kind, &rng);
    // A third of the mutants take a second, random mutation on top.
    if (rng.UniformInt(3) == 0) {
      mutant = Mutate(mutant, static_cast<int>(rng.UniformInt(kMutationKinds)),
                      &rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(index) + " kind " +
                 std::to_string(kind) + " size " +
                 std::to_string(mutant.size()));

    testing_alloc::largest_alloc.store(0);
    const Result<TenantRegistry> registry = TenantRegistry::Parse(mutant);
    EXPECT_LE(testing_alloc::largest_alloc.load(),
              2 * mutant.size() + kFixedBytes);
    if (!registry.ok()) {
      ++rejected;
      EXPECT_EQ(registry.status().code(), StatusCode::kInvalidArgument)
          << registry.status().ToString();
      EXPECT_NE(registry.status().message().find("tenants file"),
                std::string::npos)
          << registry.status().ToString();
      continue;
    }
    ++accepted;
    EXPECT_FALSE(registry->open());
    for (const TenantConfig& config : registry->tenants()) {
      EXPECT_GE(config.weight, 1u);
      EXPECT_EQ(registry->Lookup(config.id), &config);
    }
    // An accepted registry is exactly what its rendering parses back to.
    const std::string rendered = Render(*registry);
    const Result<TenantRegistry> again = TenantRegistry::Parse(rendered);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << rendered;
    EXPECT_EQ(Render(*again), rendered);
  }
  // The mutations reach both outcomes.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

TEST(TenantsFuzzTest, DuplicatesAndTwentyDigitValuesAreRejected) {
  for (const std::vector<std::string>& lines :
       {std::vector<std::string>{"alice weight=1\n", "alice weight=2\n"},
        std::vector<std::string>{"* weight=1\n", "*\n"}}) {
    const auto registry = TenantRegistry::Parse(Join(lines));
    ASSERT_FALSE(registry.ok());
    EXPECT_NE(registry.status().message().find("duplicate"),
              std::string::npos);
  }
  // The largest uint64 fits; one more, or any 20-digit value above it,
  // overflows. Narrower fields reject what does not fit 32 bits.
  EXPECT_TRUE(TenantRegistry::Parse("a oracle_budget=18446744073709551615\n")
                  .ok());
  for (const char* line : {"a oracle_budget=18446744073709551616\n",
                           "a store_quota=99999999999999999999\n",
                           "a weight=00000000004294967296\n",
                           "a max_sessions=00000000004294967296\n",
                           "a max_inflight_steps=18446744073709551615\n"}) {
    const auto registry = TenantRegistry::Parse(line);
    EXPECT_FALSE(registry.ok()) << line;
  }
  EXPECT_TRUE(TenantRegistry::Parse("a weight=00000000000000000001\n").ok());
}

}  // namespace
}  // namespace kgacc
