// The scenario DSL as a tool: run a SODA script from a file (or stdin) and
// print the transcript. Expectation verbs make scripts executable tests.
//
//   ./build/examples/soda_shell <<'EOF'
//   host seattle 128.10.9.120
//   host tacoma  128.10.9.140
//   repo asp-repo
//   asp bioinfo key-123
//   publish web content-mb=16
//   create web-content web n=3
//   status web-content
//   expect-state web-content running
//   billing bioinfo
//   teardown web-content
//   expect-services 0
//   EOF
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "scenario/scenario.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  soda::util::global_logger().set_level(soda::util::LogLevel::kOff);

  std::string text;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "soda_shell: cannot open %s\n", argv[1]);
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  }

  auto scenario = soda::core::Scenario::parse(text);
  if (!scenario.ok()) {
    std::fprintf(stderr, "parse error: %s\n", scenario.error().message.c_str());
    return 2;
  }
  auto transcript = scenario.value().run();
  if (!transcript.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 transcript.error().message.c_str());
    return 1;
  }
  for (const auto& line : transcript.value()) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}
