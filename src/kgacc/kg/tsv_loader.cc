#include "kgacc/kg/tsv_loader.h"

#include <fstream>
#include <sstream>
#include <string_view>

namespace kgacc {

namespace {

/// Splits `line` on tabs into exactly four fields; empty fields are errors.
/// Fields past the fourth are only counted, so a line allocates nothing.
Status ParseLine(std::string_view line, size_t line_no,
                 KnowledgeGraphBuilder* builder) {
  std::string_view fields[4];
  size_t num_fields = 0;
  for (size_t start = 0;;) {
    const size_t tab = line.find('\t', start);
    if (num_fields < 4) fields[num_fields] = line.substr(start, tab - start);
    ++num_fields;
    if (tab == std::string_view::npos) break;
    start = tab + 1;
  }
  if (num_fields != 4) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": expected 4 tab-separated fields, got " +
                                   std::to_string(num_fields));
  }
  for (int i = 0; i < 3; ++i) {
    if (fields[i].empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": empty term");
    }
  }
  bool label;
  if (fields[3] == "1") {
    label = true;
  } else if (fields[3] == "0") {
    label = false;
  } else {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": label must be 0 or 1, got '" +
                                   std::string(fields[3]) + "'");
  }
  builder->Add(fields[0], fields[1], fields[2], label);
  return Status::OK();
}

Result<KnowledgeGraph> LoadFromStream(std::istream& in) {
  KnowledgeGraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    KGACC_RETURN_IF_ERROR(ParseLine(line, line_no, &builder));
  }
  if (builder.size() == 0) {
    return Status::InvalidArgument("TSV input contained no facts");
  }
  return builder.Build();
}

}  // namespace

Result<KnowledgeGraph> LoadKgFromTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open TSV file: " + path);
  }
  return LoadFromStream(in);
}

Result<KnowledgeGraph> LoadKgFromTsvString(const std::string& content) {
  std::istringstream in(content);
  return LoadFromStream(in);
}

Status WriteKgToTsv(const KnowledgeGraph& kg, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open TSV file for writing: " + path);
  }
  out << "# subject\tpredicate\tobject\tlabel\n";
  const Vocabulary& vocab = kg.vocabulary();
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o) {
      const Triple& t = kg.triple(c, o);
      out << vocab.TermOf(t.subject) << '\t' << vocab.TermOf(t.predicate)
          << '\t' << vocab.TermOf(t.object) << '\t' << (kg.label(c, o) ? 1 : 0)
          << '\n';
    }
  }
  if (!out) {
    return Status::IoError("write failure on TSV file: " + path);
  }
  return Status::OK();
}

}  // namespace kgacc
