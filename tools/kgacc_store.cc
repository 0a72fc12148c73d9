// kgacc_store -- admin tool for annotation-store logs.
//
// Subcommands:
//
//   kgacc_store verify  STORE.wal   read-only structural check: reads and
//                                   decodes the log exactly as recovery
//                                   does -- every CRC, every payload, and a
//                                   compacted log's trailer (counts +
//                                   chained live CRC). Never modifies the
//                                   file. Exit 0 on a clean log, 1 on
//                                   corruption.
//   kgacc_store inspect STORE.wal   opens the store (performing normal
//                                   recovery: torn tails are truncated,
//                                   stale .compact temps deleted) and prints
//                                   the index summary -- labels, audits with
//                                   checkpoints, garbage ratio.
//   kgacc_store compact STORE.wal   opens the store and compacts it,
//                                   printing the before/after sizes.
//
// A torn tail is reported but is not corruption (recovery handles it); a
// frame whose CRC passes but whose payload decodes to garbage, or a
// compaction trailer that disagrees with the frames before it, is.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "kgacc/store/annotation_store.h"
#include "kgacc/store/compaction.h"
#include "kgacc/util/arg_parser.h"

namespace kgacc {
namespace {

int Usage(const ArgParser& parser) {
  std::fprintf(stderr,
               "usage: kgacc_store <verify|inspect|compact> <store.wal>\n%s",
               parser.HelpText().c_str());
  return 2;
}

int RunVerify(const std::string& path) {
  const auto info = VerifyStoreLog(path);
  if (!info.ok()) {
    std::fprintf(stderr, "kgacc_store: %s: CORRUPT: %s\n", path.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %" PRIu64 " records, %" PRIu64 " checkpoints, %" PRIu64
              " tenant ledgers%s, %" PRIu64 " valid bytes%s\n",
              path.c_str(), info->records, info->checkpoints, info->ledgers,
              info->compacted ? ", compacted (trailer verified)" : "",
              info->bytes_valid,
              info->clean_tail
                  ? ""
                  : (", torn tail: " + std::to_string(info->bytes_torn) +
                     " bytes (recovery will truncate)")
                        .c_str());
  return 0;
}

int RunInspect(const std::string& path) {
  auto store = AnnotationStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "kgacc_store: cannot open %s: %s\n", path.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }
  const AnnotationStoreStats& stats = (*store)->stats();
  if (stats.recovery.truncated_tail) {
    std::fprintf(stderr,
                 "%s: discarded %" PRIu64 " torn/corrupt tail bytes\n",
                 path.c_str(), stats.recovery.bytes_discarded);
  }
  std::printf("%s:\n", path.c_str());
  std::printf("  labels          %" PRIu64 "\n", (*store)->num_labeled());
  std::printf("  records         %" PRIu64 " replayed\n",
              stats.records_replayed);
  std::printf("  checkpoints     %" PRIu64 " replayed\n",
              stats.checkpoints_replayed);
  std::printf("  tenant ledgers  %" PRIu64 " replayed\n",
              stats.ledgers_replayed);
  std::printf("  compacted       %s\n",
              stats.trailers_replayed > 0 ? "yes" : "no");
  std::printf("  file bytes      %" PRIu64 "\n", (*store)->file_bytes());
  std::printf("  live bytes      %" PRIu64 "\n", (*store)->live_bytes());
  std::printf("  garbage ratio   %.3f\n", (*store)->garbage_ratio());
  std::printf("  next seq        %" PRIu64 "\n", (*store)->next_seq());
  // Tenant quota balances (present in ledger logs; empty elsewhere). The
  // byte-exact output here is what restart tests diff to prove budgets
  // survived a SIGKILL.
  for (const TenantBalance& balance : (*store)->TenantBalances()) {
    std::printf("  tenant %s: oracle_spent=%" PRIu64 " store_bytes=%" PRIu64
                "\n",
                balance.tenant.c_str(), balance.oracle_spent,
                balance.store_bytes);
  }
  return 0;
}

int RunCompact(const std::string& path) {
  auto store = AnnotationStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "kgacc_store: cannot open %s: %s\n", path.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }
  const uint64_t before = (*store)->file_bytes();
  const Status compacted = (*store)->Compact();
  if (!compacted.ok()) {
    std::fprintf(stderr, "kgacc_store: compaction failed: %s\n",
                 compacted.ToString().c_str());
    return 1;
  }
  const CompactionStats cs = (*store)->compaction_stats();
  std::printf("%s: %" PRIu64 " -> %" PRIu64 " bytes (%" PRIu64
              " live records, %" PRIu64 " checkpoints kept)\n",
              path.c_str(), before, cs.last_bytes_after, cs.last_records,
              cs.last_checkpoints);
  return 0;
}

int RunMain(int argc, char** argv) {
  ArgParser parser;
  parser.AddFlag("help", "show this help");
  const auto parsed = parser.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage(parser);
  }
  if (parsed->Has("help")) return Usage(parser);
  if (parsed->positional().size() != 2) return Usage(parser);
  const std::string& op = parsed->positional()[0];
  const std::string& path = parsed->positional()[1];
  if (op == "verify") return RunVerify(path);
  if (op == "inspect") return RunInspect(path);
  if (op == "compact") return RunCompact(path);
  std::fprintf(stderr, "kgacc_store: unknown subcommand '%s'\n", op.c_str());
  return Usage(parser);
}

}  // namespace
}  // namespace kgacc

int main(int argc, char** argv) { return kgacc::RunMain(argc, argv); }
