#include "driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace ultra::lint {

namespace {

namespace fs = std::filesystem;

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One suppression directive parsed from a comment.
struct Suppression {
  int line = 0;             // line the directive applies to
  std::vector<std::string> ids;
  std::string reason;
  bool valid = false;       // has a non-empty reason
};

std::vector<Suppression> collect_suppressions(const LexedFile& lexed) {
  std::vector<Suppression> out;
  for (const Comment& c : lexed.comments) {
    const bool nextline = c.text.find("NOLINTNEXTLINE(") != std::string::npos;
    const std::size_t at = nextline ? c.text.find("NOLINTNEXTLINE(")
                                    : c.text.find("NOLINT(");
    if (at == std::string::npos) continue;
    const std::size_t open = c.text.find('(', at);
    const std::size_t close = c.text.find(')', open);
    if (close == std::string::npos) continue;  // rule_suppress flags it
    Suppression s;
    s.line = nextline ? c.line + 1 : c.line;
    std::string list = c.text.substr(open + 1, close - open - 1);
    std::size_t pos = 0;
    while (pos <= list.size()) {
      std::size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      std::string id = list.substr(pos, comma - pos);
      id.erase(0, id.find_first_not_of(' '));
      id.erase(id.find_last_not_of(' ') + 1);
      if (!id.empty()) s.ids.push_back(id);
      pos = comma + 1;
    }
    std::string reason = c.text.substr(close + 1);
    if (!reason.empty() && reason[0] == ':') reason.erase(0, 1);
    reason.erase(0, reason.find_first_not_of(' '));
    s.reason = reason;
    s.valid = !reason.empty();
    out.push_back(std::move(s));
  }
  return out;
}

bool suppression_matches(const Suppression& s, const Finding& f) {
  if (s.line != f.line) return false;
  return std::any_of(s.ids.begin(), s.ids.end(), [&](const std::string& id) {
    return id == f.rule || id == "ultra-*";
  });
}

void json_escape(std::ostringstream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
}

void json_finding(std::ostringstream& out, const Finding& f) {
  out << "{\"rule\":\"" << f.rule << "\",\"file\":\"";
  json_escape(out, f.file);
  out << "\",\"line\":" << f.line << ",\"message\":\"";
  json_escape(out, f.message);
  out << "\"";
  if (!f.suppress_reason.empty()) {
    out << ",\"reason\":\"";
    json_escape(out, f.suppress_reason);
    out << "\"";
  }
  out << "}";
}

}  // namespace

LintResult run_lint(const LintOptions& options) {
  LintResult result;

  // Discover files, sorted for stable output and stable finding order.
  std::vector<fs::path> files;
  for (const std::string& sub : options.paths) {
    const fs::path base = fs::path(options.root) / sub;
    if (fs::is_regular_file(base)) {
      if (lintable(base)) files.push_back(base);
      continue;
    }
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Every rule works on one file at a time.
  std::vector<Finding> raw;
  std::map<std::string, std::vector<Suppression>> suppressions;
  for (const fs::path& p : files) {
    std::string rel = fs::relative(p, options.root).generic_string();
    result.scanned.push_back(rel);
    const FileModel model = build_model(std::move(rel), lex(read_file(p)));
    run_rules(model, raw);
    suppressions[model.rel_path] = collect_suppressions(model.lexed);
  }

  // Apply suppressions. ultra-suppress findings police the directives
  // themselves and cannot be NOLINTed away.
  for (Finding& f : raw) {
    bool covered = false;
    const auto it = suppressions.find(f.file);
    if (f.rule != "ultra-suppress" && it != suppressions.end()) {
      for (const Suppression& s : it->second) {
        if (s.valid && suppression_matches(s, f)) {
          covered = true;
          f.suppressed = true;
          f.suppress_reason = s.reason;
          break;
        }
      }
    }
    (covered ? result.suppressed : result.active).push_back(std::move(f));
  }

  auto order = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  };
  std::sort(result.active.begin(), result.active.end(), order);
  std::sort(result.suppressed.begin(), result.suppressed.end(), order);
  return result;
}

std::string format_text(const LintResult& result, bool audit) {
  std::ostringstream out;
  for (const Finding& f : result.active) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  if (audit && !result.suppressed.empty()) {
    out << "-- suppressed (justified NOLINT) --\n";
    for (const Finding& f : result.suppressed) {
      out << f.file << ":" << f.line << ": [" << f.rule
          << "] reason: " << f.suppress_reason << "\n";
    }
  }
  out << result.scanned.size() << " files scanned, " << result.active.size()
      << " finding(s), " << result.suppressed.size() << " suppressed\n";
  return out.str();
}

std::string format_json(const LintResult& result) {
  std::ostringstream out;
  out << "{\"findings\":[";
  for (std::size_t i = 0; i < result.active.size(); ++i) {
    if (i != 0) out << ",";
    json_finding(out, result.active[i]);
  }
  out << "],\"suppressed\":[";
  for (std::size_t i = 0; i < result.suppressed.size(); ++i) {
    if (i != 0) out << ",";
    json_finding(out, result.suppressed[i]);
  }
  out << "],\"scanned\":" << result.scanned.size() << "}\n";
  return out.str();
}

std::string format_sarif(const LintResult& result) {
  std::ostringstream out;
  auto emit_result = [&](const Finding& f, const char* suppression_kind) {
    out << "{\"ruleId\":\"" << f.rule
        << "\",\"level\":\"error\",\"message\":{\"text\":\"";
    json_escape(out, f.message);
    out << "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
           "{\"uri\":\"";
    json_escape(out, f.file);
    out << "\"},\"region\":{\"startLine\":" << (f.line > 0 ? f.line : 1)
        << "}}}]";
    if (suppression_kind != nullptr) {
      out << ",\"suppressions\":[{\"kind\":\"" << suppression_kind
          << "\",\"justification\":\"";
      json_escape(out, f.suppress_reason);
      out << "\"}]";
    }
    out << "}";
  };

  out << "{\"version\":\"2.1.0\",\"$schema\":"
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{"
         "\"tool\":{\"driver\":{\"name\":\"ultra-lint\","
         "\"informationUri\":\"tools/ultra_lint\",\"rules\":[";
  bool first = true;
  for (const RuleInfo& rule : rule_registry()) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << rule.id << "\",\"shortDescription\":{\"text\":\"";
    json_escape(out, rule.summary);
    out << "\"}}";
  }
  out << "]}},\"results\":[";
  first = true;
  for (const Finding& f : result.active) {
    if (!first) out << ",";
    first = false;
    emit_result(f, nullptr);
  }
  for (const Finding& f : result.suppressed) {
    if (!first) out << ",";
    first = false;
    emit_result(f, "inSource");
  }
  out << "]}]}\n";
  return out.str();
}

}  // namespace ultra::lint
