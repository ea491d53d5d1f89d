#include "landmark_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "landmark_lint/lock_graph.h"
#include "landmark_lint/source_text.h"

namespace landmark_lint {

namespace fs = std::filesystem;

namespace {

constexpr char kRuleBannedApi[] = "banned-api";
constexpr char kRuleRawThread[] = "raw-thread";
constexpr char kRuleMutexGuard[] = "mutex-guard";
constexpr char kRuleMetricName[] = "metric-name";
constexpr char kRuleSleepPoll[] = "sleep-poll";
constexpr char kRuleHeaderGuard[] = "header-guard";
constexpr char kRuleUsingNamespace[] = "using-namespace";
constexpr char kRuleSuppression[] = "suppression";
constexpr char kRuleRawSimd[] = "raw-simd";

/// One parsed `allow(...)` comment and the code line it covers.
struct Suppression {
  int comment_line = 0;  // 1-based line of the comment itself
  int target_line = 0;   // 1-based code line it suppresses (0: none found)
  std::string rule;
  std::string rationale;
  bool used = false;
};

constexpr char kAllowMarker[] = "landmark-lint: allow(";

std::vector<Suppression> ParseSuppressions(const FileText& file) {
  std::vector<Suppression> out;
  for (size_t i = 0; i < file.comments.size(); ++i) {
    const std::string& comment = file.comments[i];
    size_t pos = comment.find(kAllowMarker);
    if (pos == std::string::npos) continue;
    Suppression s;
    s.comment_line = static_cast<int>(i) + 1;
    size_t open = pos + sizeof(kAllowMarker) - 1;
    size_t close = comment.find(')', open);
    if (close == std::string::npos) close = comment.size();
    s.rule = Trim(comment.substr(open, close - open));
    s.rationale =
        close < comment.size() ? Trim(comment.substr(close + 1)) : "";
    // A trailing comment covers its own line; a standalone comment covers
    // the next line that has any code on it.
    if (!Trim(file.code[i]).empty()) {
      s.target_line = s.comment_line;
    } else {
      for (size_t j = i + 1; j < file.code.size(); ++j) {
        if (!Trim(file.code[j]).empty()) {
          s.target_line = static_cast<int>(j) + 1;
          break;
        }
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Per-file sink: routes findings through the suppression table. Outlives
/// the per-file scan so the global metric-name pass can still honor
/// suppressions before FinishSuppressions runs.
class FileDiagnostics {
 public:
  FileDiagnostics(std::string rel_path, std::vector<Suppression> suppressions,
                  std::vector<Diagnostic>* out)
      : rel_path_(std::move(rel_path)),
        suppressions_(std::move(suppressions)),
        out_(out) {}

  void Emit(const char* rule, int line, std::string message) {
    for (Suppression& s : suppressions_) {
      if (s.target_line == line && s.rule == rule) {
        s.used = true;
        return;
      }
    }
    out_->push_back(Diagnostic{rel_path_, line, rule, std::move(message)});
  }

  /// Reports malformed / unused suppressions. Run after every rule so the
  /// `used` bits are final.
  void FinishSuppressions() {
    const std::vector<std::string>& known = KnownRules();
    for (const Suppression& s : suppressions_) {
      if (std::find(known.begin(), known.end(), s.rule) == known.end()) {
        out_->push_back(Diagnostic{rel_path_, s.comment_line, kRuleSuppression,
                                   "allow(" + s.rule +
                                       ") names an unknown rule"});
        continue;
      }
      if (s.rationale.empty()) {
        out_->push_back(Diagnostic{
            rel_path_, s.comment_line, kRuleSuppression,
            "allow(" + s.rule +
                ") has no rationale; say why the exception is sound"});
      }
      if (!s.used) {
        out_->push_back(Diagnostic{
            rel_path_, s.comment_line, kRuleSuppression,
            "allow(" + s.rule +
                ") matches no violation on its line; delete the stale "
                "suppression"});
      }
    }
  }

 private:
  std::string rel_path_;
  std::vector<Suppression> suppressions_;
  std::vector<Diagnostic>* out_;
};

// ---------------------------------------------------------------------------
// banned-api + raw-thread (determinism contract)

struct BannedToken {
  std::string token;     // identifier to find at a boundary
  bool needs_call;       // must be followed by '('
  std::string call_arg;  // when set: only a call with exactly this argument
  std::string message;
};

const std::vector<BannedToken>& BannedTokens() {
  static const std::vector<BannedToken>* tokens = [] {
    auto* t = new std::vector<BannedToken>();
    const std::string rng = "; draw from an Rng stream (util/rng.h) seeded "
                            "by (options.seed, record id, side)";
    t->push_back({"rand", true, "",
                  "rand() breaks the determinism contract" + rng});
    t->push_back({"srand", true, "",
                  "srand() breaks the determinism contract" + rng});
    t->push_back({"random_device", false, "",
                  "std::random_device is non-deterministic" + rng});
    t->push_back({"time", true, "nullptr",
                  "time(nullptr) is wall-clock state; use util/timer.h"});
    t->push_back({"time", true, "NULL",
                  "time(NULL) is wall-clock state; use util/timer.h"});
    t->push_back({"time", true, "0",
                  "time(0) is wall-clock state; use util/timer.h"});
    t->push_back({"system_clock", false, "",
                  "std::chrono::system_clock is not monotonic; use "
                  "util/timer.h (steady_clock) or the trace clock"});
    return t;
  }();
  return *tokens;
}

bool BannedApiExempt(const std::string& rel) {
  return PathIsUnder(rel, "src/util/telemetry/") || rel == "src/util/rng.h" ||
         rel == "src/util/rng.cc" || rel == "src/util/timer.h";
}

void CheckBannedApi(const FileText& file, FileDiagnostics* diag) {
  if (BannedApiExempt(file.rel_path)) return;
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const BannedToken& banned : BannedTokens()) {
      size_t pos = FindToken(line, banned.token, 0);
      while (pos != std::string::npos) {
        size_t after = SkipSpace(line, pos + banned.token.size());
        bool hit = true;
        if (banned.needs_call) {
          if (after < line.size() && line[after] == '(') {
            if (!banned.call_arg.empty()) {
              size_t arg = SkipSpace(line, after + 1);
              size_t close = SkipSpace(line, arg + banned.call_arg.size());
              hit = line.compare(arg, banned.call_arg.size(),
                                 banned.call_arg) == 0 &&
                    close < line.size() && line[close] == ')';
            }
          } else {
            hit = false;
          }
        }
        if (hit) {
          diag->Emit(kRuleBannedApi, static_cast<int>(i) + 1, banned.message);
          break;  // one report per line per token kind
        }
        pos = FindToken(line, banned.token, pos + 1);
      }
    }
  }
}

bool RawThreadExempt(const std::string& rel) {
  return rel == "src/util/thread_pool.cc" || rel == "src/util/thread_pool.h";
}

/// Condition variables are additionally tolerated in the telemetry layer
/// (exporter lifecycle waits), where no pipeline determinism is at stake.
bool CondvarExempt(const std::string& rel) {
  return RawThreadExempt(rel) || PathIsUnder(rel, "src/util/telemetry/");
}

void CheckRawThread(const FileText& file, FileDiagnostics* diag) {
  const std::string thread_needle = std::string("std::") + "thread";
  const std::vector<std::string> condvar_needles = {
      std::string("std::") + "condition_variable",
      std::string("std::") + "condition_variable_any"};
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (!RawThreadExempt(file.rel_path)) {
      size_t pos = FindToken(line, thread_needle, 0);
      while (pos != std::string::npos) {
        // std::thread::hardware_concurrency() etc. is a capability query,
        // not a thread construction; everything else is banned.
        size_t after = pos + thread_needle.size();
        if (!(after + 1 < line.size() && line[after] == ':' &&
              line[after + 1] == ':')) {
          diag->Emit(kRuleRawThread, static_cast<int>(i) + 1,
                     "raw std::thread outside ThreadPool; route parallel work "
                     "through ThreadPool::ParallelFor so static partitioning "
                     "keeps results deterministic");
          break;
        }
        pos = FindToken(line, thread_needle, after);
      }
    }
    if (!CondvarExempt(file.rel_path)) {
      for (const std::string& needle : condvar_needles) {
        if (FindToken(line, needle, 0) == std::string::npos) continue;
        diag->Emit(kRuleRawThread, static_cast<int>(i) + 1,
                   "ad-hoc condition-variable wait outside ThreadPool; "
                   "synchronize through ThreadPool / TaskGraph (Wait, drain "
                   "handles) so blocking is centralized and lock-order "
                   "auditable");
        break;
      }
    }
  }
}

/// Ad-hoc sampler/monitor loops: sleeping in a poll loop hides a background
/// thread the flight deck cannot see and TSan cannot schedule around. The
/// sanctioned homes are the pool (worker parking) and the telemetry layer
/// (SamplingProfiler, StallWatchdog, exporter windows); everywhere else a
/// sleep needs an allow() rationale — tests wait on virtual clocks or
/// bounded yield-spins instead.
void CheckSleepPoll(const FileText& file, FileDiagnostics* diag) {
  if (CondvarExempt(file.rel_path)) return;
  const std::vector<std::string> needles = {"sleep_for", "sleep_until"};
  for (size_t i = 0; i < file.code.size(); ++i) {
    for (const std::string& needle : needles) {
      if (FindToken(file.code[i], needle, 0) == std::string::npos) continue;
      diag->Emit(kRuleSleepPoll, static_cast<int>(i) + 1,
                 "ad-hoc " + needle +
                     " polling outside ThreadPool/telemetry; background "
                     "monitors belong in the flight deck (SamplingProfiler, "
                     "StallWatchdog) and tests should advance the deck clock "
                     "or yield-spin with a bound instead of sleeping");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// mutex-guard + raw-mutex (concurrency contract)

struct SyncMember {
  int line = 0;
  std::string name;
  bool is_condition_variable = false;
};

/// Annotation macros that may sit between a member name and its
/// initializer, e.g. `Mutex mu_ ACQUIRED_BEFORE(other){"..."}` — the scan
/// skips their balanced argument list before judging the declaration tail.
bool IsMemberAnnotation(const std::string& word) {
  return word == "GUARDED_BY" || word == "PT_GUARDED_BY" ||
         word == "ACQUIRED_BEFORE" || word == "ACQUIRED_AFTER" ||
         word == "REQUIRES" || word == "EXCLUDES";
}

/// Owned mutex / condition_variable declarations: `std::mutex name;` and
/// `Mutex name{"..."};` shapes (with optional mutable/static, trailing
/// annotations, and optional initializer), not references, parameters, or
/// lock_guard template arguments.
std::vector<SyncMember> FindSyncMembers(const FileText& file) {
  std::vector<SyncMember> out;
  const std::vector<std::pair<std::string, bool>> kinds = {
      {"Mutex", false},
      {std::string("std::") + "mutex", false},
      {std::string("std::") + "shared_mutex", false},
      {std::string("std::") + "condition_variable", true},
      {std::string("std::") + "condition_variable_any", true},
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const auto& [kind, is_cv] : kinds) {
      size_t pos = FindToken(line, kind, 0);
      if (pos == std::string::npos) continue;
      size_t after = pos + kind.size();
      if (after < line.size() && (line[after] == '>' || line[after] == '&' ||
                                  line[after] == '*' || line[after] == ':' ||
                                  line[after] == '(')) {
        continue;  // template argument, reference, pointer, name, ctor
      }
      size_t name_begin = SkipSpace(line, after);
      if (name_begin >= line.size() || line[name_begin] == '&' ||
          line[name_begin] == '*') {
        continue;
      }
      size_t name_end = name_begin;
      while (name_end < line.size() && IsIdentChar(line[name_end])) {
        ++name_end;
      }
      if (name_end == name_begin) continue;
      size_t tail = SkipSpace(line, name_end);
      // Skip trailing annotation macros and their balanced arguments.
      while (tail < line.size() && IsIdentChar(line[tail])) {
        size_t word_end = tail;
        while (word_end < line.size() && IsIdentChar(line[word_end])) {
          ++word_end;
        }
        const std::string word = line.substr(tail, word_end - tail);
        size_t open = SkipSpace(line, word_end);
        if (!IsMemberAnnotation(word) || open >= line.size() ||
            line[open] != '(') {
          break;
        }
        int depth = 0;
        size_t close = open;
        for (; close < line.size(); ++close) {
          if (line[close] == '(') ++depth;
          if (line[close] == ')' && --depth == 0) break;
        }
        tail = SkipSpace(line, close < line.size() ? close + 1 : close);
      }
      if (tail < line.size() &&
          (line[tail] == ';' || line[tail] == '=' || line[tail] == '{')) {
        out.push_back(SyncMember{static_cast<int>(i) + 1,
                                 line.substr(name_begin, name_end - name_begin),
                                 is_cv});
      }
    }
  }
  return out;
}

/// Intrinsics confinement: vector code goes through the landmark::simd shim
/// (src/util/simd.h), which owns runtime dispatch, the scalar fallbacks, and
/// the bit-exactness contract. Raw intrinsic headers or OpenMP pragmas
/// anywhere else would fork that contract.
bool RawSimdExempt(const std::string& rel) {
  return rel == "src/util/simd.h" || rel == "src/util/simd.cc";
}

void CheckRawSimd(const FileText& file, FileDiagnostics* diag) {
  if (RawSimdExempt(file.rel_path)) return;
  // Needles assembled at runtime so this file does not flag itself.
  const std::vector<std::string> intrinsic_headers = {
      std::string("immintrin") + ".h", std::string("arm_neon") + ".h"};
  const std::string omp_pragma = std::string("#pragma") + " omp";
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    bool flagged = false;
    for (const std::string& header : intrinsic_headers) {
      if (line.find(header) == std::string::npos) continue;
      diag->Emit(kRuleRawSimd, static_cast<int>(i) + 1,
                 "raw SIMD intrinsics outside src/util/simd.*; use the "
                 "landmark::simd kernels so runtime dispatch and the "
                 "scalar-equivalence contract stay in one place");
      flagged = true;
      break;
    }
    if (flagged) continue;
    if (line.find(omp_pragma) != std::string::npos) {
      diag->Emit(kRuleRawSimd, static_cast<int>(i) + 1,
                 "OpenMP pragma outside src/util/simd.*; parallelism goes "
                 "through ThreadPool and vectorization through "
                 "landmark::simd");
    }
  }
}

void CheckMutexGuard(const FileText& file, FileDiagnostics* diag) {
  if (!PathIsUnder(file.rel_path, "src/")) return;
  const std::vector<SyncMember> members = FindSyncMembers(file);
  const std::vector<std::string> guard_macros = {"GUARDED_BY",
                                                 "PT_GUARDED_BY"};
  // Dangling guards: a GUARDED_BY(x) whose x names no mutex declared in
  // this file protects nothing — usually a member renamed out from under
  // its annotations.
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    const std::string trimmed = Trim(line);
    // Preprocessor lines: the macro definitions themselves live in
    // util/thread_annotations.h.
    if (!trimmed.empty() && trimmed[0] == '#') continue;
    for (const std::string& macro : guard_macros) {
      size_t pos = FindToken(line, macro, 0);
      while (pos != std::string::npos) {
        size_t open = SkipSpace(line, pos + macro.size());
        if (open < line.size() && line[open] == '(') {
          size_t close = line.find(')', open);
          const std::string target = Trim(line.substr(
              open + 1,
              (close == std::string::npos ? line.size() : close) - open - 1));
          // Qualified targets (Class::mu) reference another scope; the
          // lock-graph pass resolves those. Plain names must be local.
          if (!target.empty() &&
              target.find("::") == std::string::npos &&
              target.find('.') == std::string::npos &&
              target.find("->") == std::string::npos) {
            bool declared = false;
            for (const SyncMember& m : members) {
              declared |= !m.is_condition_variable && m.name == target;
            }
            if (!declared) {
              diag->Emit(kRuleMutexGuard, static_cast<int>(i) + 1,
                         macro + "(" + target +
                             ") names no mutex declared in this file; the "
                             "annotation guards nothing");
            }
          }
        }
        pos = FindToken(line, macro, pos + macro.size());
      }
    }
  }
  if (members.empty()) return;
  bool has_mutex = false;
  for (const SyncMember& m : members) has_mutex |= !m.is_condition_variable;
  for (const SyncMember& member : members) {
    if (member.is_condition_variable) {
      if (!has_mutex) {
        diag->Emit(kRuleMutexGuard, member.line,
                   "condition_variable '" + member.name +
                       "' has no owned mutex in this file to wait on");
      }
      continue;
    }
    const std::string guarded = "GUARDED_BY(" + member.name + ")";
    const std::string pt_guarded = "PT_GUARDED_BY(" + member.name + ")";
    bool referenced = false;
    for (const std::string& line : file.code) {
      if (line.find(guarded) != std::string::npos ||
          line.find(pt_guarded) != std::string::npos) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      diag->Emit(kRuleMutexGuard, member.line,
                 "mutex '" + member.name + "' is referenced by no " + guarded +
                     " annotation; annotate the state it protects "
                     "(util/thread_annotations.h)");
    }
  }
}

/// raw-mutex: the tree's lock primitive is landmark::Mutex (util/mutex.h) —
/// a named std::mutex that feeds the runtime deadlock detector and gives
/// the lock-order graph its node identity. A raw std::mutex is invisible
/// to both, so it is banned everywhere except inside the wrapper itself.
void CheckRawMutex(const FileText& file, FileDiagnostics* diag) {
  if (file.rel_path == "src/util/mutex.h") return;
  const std::vector<std::string> needles = {
      std::string("std::") + "mutex",
      std::string("std::") + "shared_mutex",
      std::string("std::") + "recursive_mutex",
      std::string("std::") + "timed_mutex",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    for (const std::string& needle : needles) {
      if (FindToken(file.code[i], needle, 0) == std::string::npos) continue;
      diag->Emit(kRuleRawMutex, static_cast<int>(i) + 1,
                 needle +
                     " outside src/util/mutex.h; use landmark::Mutex so the "
                     "lock participates in the lock-order graph and the "
                     "LANDMARK_DEADLOCK_DEBUG runtime detector");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// header-guard + using-namespace (hygiene)

std::string ExpectedGuard(const std::string& rel_path) {
  std::string rel = rel_path;
  if (StartsWith(rel, "src/")) rel = rel.substr(4);
  std::string guard = "LANDMARK_";
  for (char c : rel) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

void CheckHeaderGuard(const FileText& file, FileDiagnostics* diag) {
  const std::string expected = ExpectedGuard(file.rel_path);
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string line = Trim(file.code[i]);
    if (line.empty()) continue;
    if (StartsWith(line, "#pragma") && line.find("once") != std::string::npos) {
      diag->Emit(kRuleHeaderGuard, static_cast<int>(i) + 1,
                 "#pragma once; use the include guard " + expected);
      return;
    }
    if (!StartsWith(line, "#ifndef")) continue;
    const std::string actual = Trim(line.substr(7));
    if (actual != expected) {
      diag->Emit(kRuleHeaderGuard, static_cast<int>(i) + 1,
                 "include guard '" + actual + "' should be '" + expected +
                     "'");
      return;
    }
    // The matching #define must follow on the next code line.
    for (size_t j = i + 1; j < file.code.size(); ++j) {
      const std::string next = Trim(file.code[j]);
      if (next.empty()) continue;
      if (next != "#define " + expected) {
        diag->Emit(kRuleHeaderGuard, static_cast<int>(j) + 1,
                   "#ifndef " + expected + " must be followed by #define " +
                       expected);
      }
      return;
    }
    return;
  }
  diag->Emit(kRuleHeaderGuard, 1, "missing include guard " + expected);
}

void CheckUsingNamespace(const FileText& file, FileDiagnostics* diag) {
  for (size_t i = 0; i < file.code.size(); ++i) {
    size_t pos = FindToken(file.code[i], "using", 0);
    if (pos == std::string::npos) continue;
    size_t next = SkipSpace(file.code[i], pos + 5);
    if (FindToken(file.code[i], "namespace", next) == next) {
      diag->Emit(kRuleUsingNamespace, static_cast<int>(i) + 1,
                 "'using namespace' in a header leaks into every includer");
    }
  }
}

// ---------------------------------------------------------------------------
// metric-name (telemetry contract)

struct MetricUse {
  std::string file;
  int line = 0;
  std::string name;
  bool is_prefix = false;   // literal is a dynamic prefix ("pool/x/" + i)
  size_t sink_index = 0;    // the owning file's FileDiagnostics
};

/// Extracts string literals passed directly to the registry getters. Runs
/// on comment-stripped text (literals intact), joined back into one buffer
/// so a call whose literal sits on the following line still resolves.
/// Non-literal first arguments cannot be checked statically and are
/// ignored.
void CollectMetricUses(const FileText& file, std::vector<MetricUse>* out) {
  const std::vector<std::string> getters = {
      std::string("Get") + "Counter",
      std::string("Get") + "Gauge",
      std::string("Get") + "Histogram",
  };
  std::string buffer;
  for (const std::string& line : file.text) {
    buffer += line;
    buffer += '\n';
  }
  auto line_of = [&buffer](size_t pos) {
    return static_cast<int>(std::count(buffer.begin(), buffer.begin() + pos,
                                       '\n')) +
           1;
  };
  for (const std::string& getter : getters) {
    size_t pos = FindToken(buffer, getter, 0);
    while (pos != std::string::npos) {
      size_t open = SkipSpace(buffer, pos + getter.size());
      if (open < buffer.size() && buffer[open] == '(') {
        size_t quote = SkipSpace(buffer, open + 1);
        if (quote < buffer.size() && buffer[quote] == '"') {
          std::string name;
          size_t j = quote + 1;
          while (j < buffer.size() && buffer[j] != '"') {
            if (buffer[j] == '\\' && j + 1 < buffer.size()) ++j;
            name += buffer[j];
            ++j;
          }
          size_t after = SkipSpace(buffer, j + 1);
          const bool concatenated = after < buffer.size() &&
                                    buffer[after] == '+';
          if (!name.empty()) {
            out->push_back(MetricUse{file.rel_path, line_of(quote), name,
                                     concatenated || name.back() == '/'});
          }
        }
      }
      pos = FindToken(buffer, getter, pos + getter.size());
    }
  }
}

struct DocEntry {
  int line = 0;
  std::string name;        // exact documented name
  bool is_prefix = false;  // documented as NAME/N
  bool used = false;
};

/// Parses the backticked names out of the first column of the "Metric name
/// contract" table. `pool/worker_busy_seconds/N` documents the dynamic
/// `pool/worker_busy_seconds/` prefix; any other name is exact.
std::vector<DocEntry> ParseMetricDocs(const std::vector<std::string>& lines,
                                      int* section_line) {
  std::vector<DocEntry> out;
  *section_line = 0;
  bool in_section = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (StartsWith(line, "#")) {
      const bool is_contract =
          line.find("Metric name contract") != std::string::npos;
      if (is_contract) *section_line = static_cast<int>(i) + 1;
      in_section = is_contract;
      continue;
    }
    if (!in_section || line.empty() || line[0] != '|') continue;
    const size_t cell_end = line.find('|', 1);
    if (cell_end == std::string::npos) continue;
    const std::string cell = line.substr(1, cell_end - 1);
    size_t tick = cell.find('`');
    while (tick != std::string::npos) {
      size_t close = cell.find('`', tick + 1);
      if (close == std::string::npos) break;
      std::string name = cell.substr(tick + 1, close - tick - 1);
      const int doc_line = static_cast<int>(i) + 1;
      if (name.size() > 2 && name.compare(name.size() - 2, 2, "/N") == 0) {
        out.push_back(
            DocEntry{doc_line, name.substr(0, name.size() - 1), true});
      } else if (!name.empty()) {
        out.push_back(DocEntry{doc_line, name, false});
      }
      tick = cell.find('`', close + 1);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driver

bool ReadFile(const fs::path& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *content = buffer.str();
  return true;
}

std::string RelPath(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  fs::path use = (ec || rel.empty() || *rel.begin() == "..") ? path : rel;
  return use.generic_string();
}

bool HasLintableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

std::vector<fs::path> DefaultScan(const fs::path& root, std::string* error) {
  std::vector<fs::path> files;
  const fs::path fixtures = root / "tests" / "lint" / "fixtures";
  for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        *error = "cannot walk " + base.string() + ": " + ec.message();
        return {};
      }
      if (it->is_directory() && it->path() == fixtures) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && HasLintableExtension(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

const std::vector<std::string>& KnownRules() {
  static const std::vector<std::string>* rules = new std::vector<std::string>{
      kRuleBannedApi,  kRuleRawThread,      kRuleMutexGuard,
      kRuleMetricName, kRuleSleepPoll,      kRuleHeaderGuard,
      kRuleUsingNamespace, kRuleSuppression,
      kRuleRawMutex,   kRuleLockOrder,      kRuleLockBlocking,
      kRuleRawSimd};
  return *rules;
}

std::string FormatDiagnostic(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": [" +
         diagnostic.rule + "] " + diagnostic.message;
}

bool RunLint(const LintConfig& config, std::vector<Diagnostic>* diagnostics,
             std::string* error) {
  diagnostics->clear();
  std::string walk_error;
  std::vector<fs::path> files = config.sources;
  if (files.empty()) {
    files = DefaultScan(config.root, &walk_error);
    if (!walk_error.empty()) {
      *error = walk_error;
      return false;
    }
  }

  std::vector<MetricUse> metric_uses;
  // Sinks stay alive until after the global metric-name and lock-graph
  // passes so their findings go through each file's suppression table too.
  std::vector<std::unique_ptr<FileDiagnostics>> sinks;
  std::map<std::string, size_t> sink_by_path;
  LockAnalyzer lock_analyzer;
  for (const fs::path& path : files) {
    std::string content;
    if (!ReadFile(path, &content)) {
      *error = "cannot read " + path.string();
      return false;
    }
    const FileText file = SplitFile(RelPath(path, config.root), content);
    sinks.push_back(std::make_unique<FileDiagnostics>(
        file.rel_path, ParseSuppressions(file), diagnostics));
    sink_by_path[file.rel_path] = sinks.size() - 1;
    FileDiagnostics& diag = *sinks.back();
    const bool is_header = path.extension() == ".h";
    CheckBannedApi(file, &diag);
    CheckRawThread(file, &diag);
    CheckSleepPoll(file, &diag);
    CheckRawSimd(file, &diag);
    CheckMutexGuard(file, &diag);
    CheckRawMutex(file, &diag);
    if (is_header) {
      CheckHeaderGuard(file, &diag);
      CheckUsingNamespace(file, &diag);
    }
    // The lock-order graph covers src/ — tests may hold ad-hoc local locks
    // (and the fixture root maps its files under src/ deliberately).
    if (PathIsUnder(file.rel_path, "src/")) {
      lock_analyzer.AddFile(file);
    }
    // tests/ may use scratch metric names; the contract binds src, tools,
    // bench, and examples.
    if (!PathIsUnder(file.rel_path, "tests/")) {
      std::vector<MetricUse> uses;
      CollectMetricUses(file, &uses);
      for (MetricUse& use : uses) {
        use.sink_index = sinks.size() - 1;
        metric_uses.push_back(std::move(use));
      }
    }
  }

  std::vector<LockFinding> lock_findings;
  lock_analyzer.Finish(&lock_findings);
  for (LockFinding& finding : lock_findings) {
    auto it = sink_by_path.find(finding.file);
    if (it != sink_by_path.end()) {
      sinks[it->second]->Emit(finding.rule, finding.line,
                              std::move(finding.message));
    } else {
      diagnostics->push_back(Diagnostic{finding.file, finding.line,
                                        finding.rule,
                                        std::move(finding.message)});
    }
  }
  if (!config.lock_graph_out.empty()) {
    const fs::path dot_path = config.lock_graph_out.is_absolute()
                                  ? config.lock_graph_out
                                  : fs::current_path() / config.lock_graph_out;
    std::ofstream dot(dot_path, std::ios::binary);
    if (!dot) {
      *error = "cannot write lock graph to " + dot_path.string();
      return false;
    }
    dot << lock_analyzer.ToDot();
  }

  if (!config.doc_path.empty()) {
    const fs::path doc = config.doc_path.is_absolute()
                             ? config.doc_path
                             : config.root / config.doc_path;
    std::string content;
    if (!ReadFile(doc, &content)) {
      *error = "cannot read metric contract doc " + doc.string();
      return false;
    }
    std::vector<std::string> lines;
    std::istringstream stream(content);
    for (std::string line; std::getline(stream, line);) {
      lines.push_back(line);
    }
    int section_line = 0;
    std::vector<DocEntry> entries = ParseMetricDocs(lines, &section_line);
    const std::string doc_rel = RelPath(doc, config.root);
    if (section_line == 0) {
      diagnostics->push_back(
          Diagnostic{doc_rel, 1, kRuleMetricName,
                     "no 'Metric name contract' section found"});
    }
    for (const MetricUse& use : metric_uses) {
      bool documented = false;
      for (DocEntry& entry : entries) {
        const bool match =
            use.is_prefix
                ? (entry.is_prefix && entry.name == use.name)
                : (entry.is_prefix ? StartsWith(use.name, entry.name)
                                   : entry.name == use.name);
        if (match) {
          entry.used = true;
          documented = true;
        }
      }
      if (!documented) {
        sinks[use.sink_index]->Emit(
            kRuleMetricName, use.line,
            "metric name \"" + use.name + "\" is not documented in " +
                doc_rel + " (\"Metric name contract\")");
      }
    }
    for (const DocEntry& entry : entries) {
      if (!entry.used) {
        diagnostics->push_back(Diagnostic{
            doc_rel, entry.line, kRuleMetricName,
            "documented metric \"" + entry.name +
                "\" is no longer referenced by any registry call; update "
                "the contract table"});
      }
    }
  }

  for (const std::unique_ptr<FileDiagnostics>& sink : sinks) {
    sink->FinishSuppressions();
  }

  std::sort(diagnostics->begin(), diagnostics->end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return true;
}

}  // namespace landmark_lint
