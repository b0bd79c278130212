// Re-certifies a committed trace capture without re-simulating it.
//
// Replays the capture through the same consumer chain the record/replay
// test suite uses — ReplayResultBuilder (bit-identical RunResult
// reconstruction) plus ReplayAuditor (the invariant audit) — then
// formats the rebuilt result through exp/run_digest.h and byte-compares it
// against the committed golden digest.  A pass proves three things at once:
// the fixture still parses under the current schema, the captured run still
// satisfies every scheduling invariant, and replay arithmetic still matches
// the digest the live engine produced when the fixture was recorded.
//
// Usage:
//   replay_verify <capture.trace> <digest-title> <expected.golden>
//
// e.g. the ctest replay_verify.committed_capture runs:
//   replay_verify tests/golden/failure_recovery.trace
//       failure/ssr+mitigation tests/golden/failure_recovery.golden
//
// Exit status: 0 verified, 1 mismatch/violation, 2 usage or unreadable
// input.  Regenerate the fixture pair with
//   SSR_UPDATE_GOLDEN=1 ./build/tests/trace_capture_test and
//   SSR_UPDATE_GOLDEN=1 ./build/tests/golden_replay_test
// when an intentional behaviour change retires the committed bytes.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/common/check.h"
#include "ssr/exp/run_digest.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/trace_capture.h"

namespace {

bool slurp(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

// Point at the first differing line so a digest drift reads like a test
// failure, not a wall of hexfloat.
void report_diff(const std::string& expected, const std::string& actual) {
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int lineno = 0;
  while (true) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    ++lineno;
    if (!more_want && !more_got) return;
    if (want_line != got_line || more_want != more_got) {
      std::cerr << "replay_verify: first difference at digest line " << lineno
                << "\n  expected: "
                << (more_want ? want_line : std::string("<end of file>"))
                << "\n  replayed: "
                << (more_got ? got_line : std::string("<end of file>"))
                << "\n";
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: replay_verify <capture.trace> <digest-title> "
                 "<expected.golden>\n";
    return 2;
  }
  const std::string trace_path = argv[1];
  const std::string title = argv[2];
  const std::string golden_path = argv[3];

  std::string capture;
  if (!slurp(trace_path, &capture)) {
    std::cerr << "replay_verify: cannot read capture: " << trace_path << "\n";
    return 2;
  }
  std::string expected;
  if (!slurp(golden_path, &expected)) {
    std::cerr << "replay_verify: cannot read golden digest: " << golden_path
              << "\n";
    return 2;
  }

  try {
    const ssr::TraceReplayer replayer =
        ssr::TraceReplayer::from_bytes(std::move(capture));
    ssr::ReplayResultBuilder builder;
    ssr::audit::ReplayAuditor auditor;
    replayer.replay({&builder, &auditor});

    if (!builder.complete()) {
      std::cerr << "replay_verify: capture has no run-complete event: "
                << trace_path << "\n";
      return 1;
    }
    if (!auditor.clean()) {
      std::cerr << "replay_verify: invariant audit failed on replay of "
                << trace_path << "\n";
      return 1;
    }

    std::ostringstream digest;
    ssr::append_run_digest(digest, title, builder.result());
    if (digest.str() != expected) {
      std::cerr << "replay_verify: digest mismatch for " << trace_path
                << " (title '" << title << "') vs " << golden_path << "\n";
      report_diff(expected, digest.str());
      return 1;
    }
  } catch (const ssr::CheckError& e) {
    std::cerr << "replay_verify: " << e.message() << "\n";
    return 1;
  }

  std::cout << "replay_verify: " << trace_path << " replays clean and "
            << "matches " << golden_path << " ("
            << "events, audit, digest all verified)\n";
  return 0;
}
