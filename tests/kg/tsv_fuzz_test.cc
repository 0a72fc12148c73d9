// Seeded mutation fuzzing of the TSV decoder. A valid 200-fact TSV is
// mutated with fixed seeds — bit flips, truncations, and inserted or deleted
// TAB, CR, LF and NUL bytes — and every mutant must either load or fail with
// InvalidArgument, never crash. Every mutant that loads must survive
// `WriteKgToTsv` and a reload as the same labeled facts in the same clusters.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "kgacc/kg/tsv_loader.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

constexpr int kMutants = 300;
constexpr char kSeparators[] = {'\t', '\r', '\n', '\0'};

std::string ValidTsv() {
  Rng rng(7);
  std::string tsv = "# subject\tpredicate\tobject\tlabel\n";
  for (int line = 0; line < 200; ++line) {
    // (line / 5, line % 5) keeps every (subject, predicate) pair distinct.
    tsv += "entity" + std::to_string(line / 5) + "\trel" +
           std::to_string(line % 5) + "\tvalue" +
           std::to_string(rng.UniformInt(60)) + "\t" +
           (rng.Bernoulli(0.8) ? "1" : "0") + (line % 9 == 0 ? "\r\n" : "\n");
  }
  return tsv;
}

char RandomSeparator(Rng* rng) {
  return kSeparators[rng->UniformInt(sizeof(kSeparators))];
}

std::string Mutate(std::string tsv, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->UniformInt(2));
  for (int e = 0; e < edits && !tsv.empty(); ++e) {
    const size_t at = rng->UniformInt(tsv.size());
    switch (rng->UniformInt(4)) {
      case 0:  // Bit flip.
        tsv[at] = static_cast<char>(tsv[at] ^ (1u << rng->UniformInt(8)));
        break;
      case 1:  // Truncation.
        tsv.resize(at);
        break;
      case 2:  // Inserted separator or NUL.
        tsv.insert(tsv.begin() + static_cast<std::ptrdiff_t>(at),
                   RandomSeparator(rng));
        break;
      case 3: {  // Deleted separator or NUL: the next one at or after `at`.
        const size_t hit =
            tsv.find_first_of(std::string(kSeparators, sizeof(kSeparators)),
                              at);
        tsv.erase(hit == std::string::npos ? at : hit, 1);
        break;
      }
    }
  }
  return tsv;
}

using Fact = std::tuple<std::string, std::string, std::string, bool>;

// The KG's labeled facts as strings, sorted: term ids depend on the order
// facts are met in, which a write and reload may change.
std::vector<Fact> Facts(const KnowledgeGraph& kg) {
  const Vocabulary& vocab = kg.vocabulary();
  std::vector<Fact> facts;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o) {
      const Triple& t = kg.triple(c, o);
      facts.emplace_back(vocab.TermOf(t.subject), vocab.TermOf(t.predicate),
                         vocab.TermOf(t.object), kg.label(c, o));
    }
  }
  std::sort(facts.begin(), facts.end());
  return facts;
}

TEST(TsvFuzzTest, MutantsLoadOrFailCleanlyAndRoundTrip) {
  const std::string valid = ValidTsv();
  ASSERT_TRUE(LoadKgFromTsvString(valid).ok());
  const std::string path = testing::TempDir() + "/kgacc_tsv_fuzz_" +
                           std::to_string(::getpid()) + ".tsv";
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    Rng rng(1000 + static_cast<uint64_t>(i));
    const std::string mutant = Mutate(valid, &rng);
    const auto kg = LoadKgFromTsvString(mutant);
    if (!kg.ok()) {
      EXPECT_EQ(kg.status().code(), StatusCode::kInvalidArgument)
          << "mutant " << i << ": " << kg.status().ToString();
      continue;
    }
    ++loaded;
    ASSERT_TRUE(WriteKgToTsv(*kg, path).ok()) << "mutant " << i;
    const auto reloaded = LoadKgFromTsv(path);
    ASSERT_TRUE(reloaded.ok())
        << "mutant " << i << ": " << reloaded.status().ToString();
    EXPECT_EQ(reloaded->num_clusters(), kg->num_clusters()) << "mutant " << i;
    EXPECT_EQ(Facts(*reloaded), Facts(*kg)) << "mutant " << i;
  }
  std::remove(path.c_str());
  // Both outcomes must be exercised, or the mutations are too weak (or too
  // strong) to test anything.
  EXPECT_GT(loaded, kMutants / 10);
  EXPECT_LT(loaded, kMutants - kMutants / 10);
}

}  // namespace
}  // namespace kgacc
