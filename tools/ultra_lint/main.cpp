// ultra-lint CLI.
//
//   ultra_lint [--root DIR] [--json] [--audit] [--sarif FILE] [paths...]
//   ultra_lint --list-rules
//
// Paths are repo-relative subtrees (default: src tests). Exits 1 when any
// finding remains that no reasoned NOLINT covers, 2 on a usage error or an
// unwritable SARIF file. --list-rules prints the registry of rules.h:
// ultra-nondet, ultra-check and ultra-suppress.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "driver.h"

int main(int argc, char** argv) {
  ultra::lint::LintOptions options;
  options.root = std::filesystem::current_path().string();
  bool json = false;
  bool audit = false;
  std::string sarif_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "ultra_lint: --root requires a directory\n";
        return 2;
      }
      options.root = argv[++i];
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::cerr << "ultra_lint: --sarif requires an output file\n";
        return 2;
      }
      sarif_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& rule : ultra::lint::rule_registry()) {
        std::cout << rule.id << "  " << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: ultra_lint [--root DIR] [--json] [--audit] "
                   "[--sarif FILE] [--list-rules] [paths...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ultra_lint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.paths.empty()) options.paths = {"src", "tests"};
  if (!std::filesystem::is_directory(options.root)) {
    std::cerr << "ultra_lint: root '" << options.root
              << "' is not a directory\n";
    return 2;
  }

  const ultra::lint::LintResult result = ultra::lint::run_lint(options);
  if (!sarif_path.empty()) {
    std::ofstream sarif(sarif_path, std::ios::binary);
    if (!sarif) {
      std::cerr << "ultra_lint: cannot write SARIF to '" << sarif_path
                << "'\n";
      return 2;
    }
    sarif << ultra::lint::format_sarif(result);
  }
  std::cout << (json ? ultra::lint::format_json(result)
                     : ultra::lint::format_text(result, audit));
  return result.active.empty() ? 0 : 1;
}
