// ddcverify — the repo's static analyzer: determinism and protocol
// invariants in one compiler-free pass.
//
// The headline guarantee is bit-identical runs at any thread count, SIMD
// tier, shard count and transport. Example-based tests catch a breakage
// only on the configurations they run; this analyzer catches the source
// *pattern* at review time. Four rule families:
//
//   determinism     raw-rand, nonportable-engine, unordered-iter,
//                   wall-clock and float-reorder: the hazards that
//                   silently break bit-reproducibility for every seed
//                   (unseeded randomness, implementation-defined
//                   engines, hash iteration order, real time, reordered
//                   float accumulation). Mention-level: naming a hazard
//                   in a scanned file is itself worth an audited marker.
//
//   wire-taint      In transport-facing code, any buffer originating
//                   from Transport::receive()/frame payloads (tainted:
//                   byte spans, Packet/Frame/Batch/BatchRecord
//                   variables, recv-filled buffers) must flow only
//                   through the bounds-checked wire::Decoder / framing
//                   readers. Raw memcpy/memmove, reinterpret_cast,
//                   direct indexing and pointer arithmetic on tainted
//                   bytes are flagged. The sanctioned readers
//                   themselves carry audited allow markers — the
//                   markers *document the trust boundary*.
//
//   hot-path-alloc  Functions reachable (same-file call graph) from a
//                   root annotated `// ddcverify: hotpath` must not
//                   allocate: no new/malloc/make_unique/make_shared,
//                   no local owning std containers (vector, string,
//                   map, ...). This locks in the scratch-reuse
//                   discipline of the merge/EM/SoA/shard hot paths.
//
//   simd-parity     Every kernel registered in the linalg::simd
//                   dispatch seam (--simd-dispatch files) must have a
//                   bit-exact scalar twin (name pairing: X_avx2* needs
//                   X_scalar), and every dispatch accessor (functions
//                   returning a *Fn kernel pointer) must be referenced
//                   by the equivalence tests (--simd-tests files), so
//                   a kernel cannot be wired into dispatch without a
//                   reference implementation and cross-tier coverage.
//
// Usage:
//   ddcverify [--self-test] [--list-rules]
//             [--simd-dispatch <f1,f2>] [--simd-tests <f1,f2>]
//             <file-or-dir>...
//
// Findings print one per line:
//
//   src/net/src/udp.cpp:162: [wire-taint] raw memory operation on ...
//
// Exit status: 0 clean, 1 violations found, 2 usage/IO error.
//
// Suppressions: `// ddcverify: allow(<rule>)` on the same line or the
// line directly above. Every marker is an *audited* exception and must
// carry a justification in the surrounding comment. `allow(*)`
// suppresses all rules on that line.
//
// The analyzer is deliberately compiler-free: one lexer strips comments
// and string literals, a lightweight parser finds function definitions
// and call sites, and everything else is token-level pattern matching.
// No compile database, builds in seconds, runs in milliseconds — and the
// price (it reasons about tokens, not types) is the right bias for a
// gate: code too clever for the analyzer to follow deserves either
// simplification or an audited allow marker explaining itself.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

constexpr std::string_view kAllowMarker = "ddcverify: allow(";
constexpr std::string_view kHotpathMarker = "ddcverify: hotpath";

// ---------------------------------------------------------------------------
// Shared lexer: comment/string stripping with cross-line state.
// ---------------------------------------------------------------------------

/// Returns the code portion of `line`: // and /* */ comments and
/// string/char literals are blanked (byte-for-byte, so columns and
/// offsets survive). `in_block_comment` carries /* */ state.
std::string code_portion(const std::string& line, bool& in_block_comment) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size();) {
    if (in_block_comment) {
      if (line.compare(i, 2, "*/") == 0) {
        in_block_comment = false;
        out += "  ";
        i += 2;
      } else {
        out += ' ';
        ++i;
      }
      continue;
    }
    if (line.compare(i, 2, "//") == 0) {
      out.append(line.size() - i, ' ');
      break;
    }
    if (line.compare(i, 2, "/*") == 0) {
      in_block_comment = true;
      out += "  ";
      i += 2;
      continue;
    }
    if (line[i] == '"' || line[i] == '\'') {
      const char quote = line[i];
      out += ' ';
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          out += "  ";
          i += 2;
          continue;
        }
        const bool closing = line[i] == quote;
        out += ' ';
        ++i;
        if (closing) break;
      }
      continue;
    }
    out += line[i];
    ++i;
  }
  return out;
}

/// One lexed source text: raw lines (for allow markers and reports) and
/// blanked code lines, plus the code joined for multi-line parsing.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::string joined;                    ///< code lines joined with '\n'
  std::vector<std::size_t> line_start;   ///< joined offset of each line
};

SourceFile lex(const std::string& path, const std::string& text) {
  SourceFile f;
  f.path = path;
  std::istringstream stream(text);
  std::string line;
  bool in_block = false;
  while (std::getline(stream, line)) {
    f.raw.push_back(line);
    f.code.push_back(code_portion(line, in_block));
  }
  std::size_t offset = 0;
  for (const std::string& c : f.code) {
    f.line_start.push_back(offset);
    f.joined += c;
    f.joined += '\n';
    offset += c.size() + 1;
  }
  return f;
}

/// 1-based line number of a joined-text offset.
std::size_t line_of(const SourceFile& f, std::size_t offset) {
  const auto it = std::upper_bound(f.line_start.begin(), f.line_start.end(),
                                   offset);
  return static_cast<std::size_t>(it - f.line_start.begin());
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Whole-token occurrence of `tok` in `text` at/after `from`; npos if
/// absent. Boundaries are checked only on sides where `tok` itself
/// starts/ends with an identifier character.
std::size_t find_token(std::string_view text, std::string_view tok,
                       std::size_t from = 0) {
  while (from <= text.size()) {
    const std::size_t pos = text.find(tok, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = !ident_char(tok.front()) || pos == 0 ||
                         !ident_char(text[pos - 1]);
    const bool right_ok = !ident_char(tok.back()) ||
                          pos + tok.size() >= text.size() ||
                          !ident_char(text[pos + tok.size()]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
  return std::string_view::npos;
}

bool has_token(std::string_view text, std::string_view tok) {
  return find_token(text, tok) != std::string_view::npos;
}

std::size_t skip_ws(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  return i;
}

std::string read_ident(std::string_view text, std::size_t i) {
  std::size_t e = i;
  while (e < text.size() && ident_char(text[e])) ++e;
  return std::string(text.substr(i, e - i));
}

// ---------------------------------------------------------------------------
// Allow markers and findings.
// ---------------------------------------------------------------------------

/// True when `line` carries an allow marker for `rule` (searched on the
/// raw line — markers live in comments).
bool has_allow(const std::string& line, std::string_view rule) {
  std::size_t pos = line.find(kAllowMarker);
  while (pos != std::string::npos) {
    const std::size_t open = pos + kAllowMarker.size();
    const std::size_t close = line.find(')', open);
    if (close == std::string::npos) return false;
    const std::string_view inside{line.data() + open, close - open};
    if (inside == rule || inside == "*") return true;
    pos = line.find(kAllowMarker, close);
  }
  return false;
}

/// Allow marker on the finding's line or the line directly above it.
bool allowed(const SourceFile& f, std::size_t lineno, std::string_view rule) {
  if (lineno >= 1 && lineno <= f.raw.size() &&
      has_allow(f.raw[lineno - 1], rule)) {
    return true;
  }
  return lineno >= 2 && has_allow(f.raw[lineno - 2], rule);
}

struct Finding {
  std::string file;
  std::size_t line;
  std::string_view rule;
  std::string message;
};

void report(std::vector<Finding>& findings, const SourceFile& f,
            std::size_t lineno, std::string_view rule, std::string message) {
  if (allowed(f, lineno, rule)) return;
  findings.push_back(Finding{f.path, lineno, rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// Function extraction + same-file call graph (shared by hot-path-alloc).
// ---------------------------------------------------------------------------

const std::set<std::string, std::less<>>& keywords() {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if",       "else",     "for",      "while",    "do",
      "switch",   "case",     "return",   "sizeof",   "alignof",
      "decltype", "new",      "delete",   "throw",    "catch",
      "constexpr", "static_assert", "template", "using", "typedef",
      "operator", "requires", "noexcept", "alignas",  "co_await",
      "co_yield", "co_return"};
  return kKeywords;
}

struct FunctionDef {
  std::string name;
  std::size_t signature_line;  ///< 1-based line of the opening name
  std::size_t body_begin;      ///< joined offset just after '{'
  std::size_t body_end;        ///< joined offset of the matching '}'
};

/// Scans forward from the ')' of a candidate signature; returns the
/// offset of the body's '{' or npos when the construct is not a
/// function definition (declaration, call, initializer, ...).
std::size_t find_body_brace(std::string_view text, std::size_t i) {
  for (;;) {
    i = skip_ws(text, i);
    if (i >= text.size()) return std::string_view::npos;
    const char c = text[i];
    if (c == '{') return i;
    if (c == ';' || c == ',' || c == ')' || c == '=' || c == '}') {
      return std::string_view::npos;
    }
    if (c == ':') {
      // Constructor initializer list: scan at paren depth 0 for the
      // body brace (member brace-init is not used in this codebase).
      int depth = 0;
      for (++i; i < text.size(); ++i) {
        const char d = text[i];
        if (d == '(') ++depth;
        if (d == ')') --depth;
        if (d == '{' && depth == 0) return i;
        if (d == ';' && depth == 0) return std::string_view::npos;
      }
      return std::string_view::npos;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      // Trailing return type: skip to the body brace or statement end.
      const std::size_t brace = text.find_first_of("{;", i);
      if (brace == std::string_view::npos || text[brace] == ';') {
        return std::string_view::npos;
      }
      return brace;
    }
    if (c == '&') {
      ++i;  // ref-qualifier
      continue;
    }
    if (ident_char(c)) {
      const std::string word = read_ident(text, i);
      if (word == "const" || word == "override" || word == "final" ||
          word == "mutable" || word == "try") {
        i += word.size();
        continue;
      }
      if (word == "noexcept") {
        i += word.size();
        i = skip_ws(text, i);
        if (i < text.size() && text[i] == '(') {
          int depth = 0;
          for (; i < text.size(); ++i) {
            if (text[i] == '(') ++depth;
            if (text[i] == ')' && --depth == 0) {
              ++i;
              break;
            }
          }
        }
        continue;
      }
      return std::string_view::npos;
    }
    return std::string_view::npos;
  }
}

std::vector<FunctionDef> find_functions(const SourceFile& f) {
  std::vector<FunctionDef> defs;
  const std::string_view text = f.joined;
  for (std::size_t i = 0; i < text.size();) {
    if (!ident_char(text[i])) {
      ++i;
      continue;
    }
    const std::string name = read_ident(text, i);
    const std::size_t name_at = i;
    i += name.size();
    if (keywords().count(name) != 0) continue;
    const std::size_t open = skip_ws(text, i);
    if (open >= text.size() || text[open] != '(') continue;
    // Matching ')': only parens matter (strings are already blanked).
    int depth = 0;
    std::size_t close = open;
    for (; close < text.size(); ++close) {
      if (text[close] == '(') ++depth;
      if (text[close] == ')' && --depth == 0) break;
    }
    if (close >= text.size()) break;
    const std::size_t brace = find_body_brace(text, close + 1);
    if (brace == std::string_view::npos) continue;
    // Matching '}' of the body.
    int braces = 0;
    std::size_t end = brace;
    for (; end < text.size(); ++end) {
      if (text[end] == '{') ++braces;
      if (text[end] == '}' && --braces == 0) break;
    }
    if (end >= text.size()) break;
    defs.push_back(FunctionDef{name, line_of(f, name_at), brace + 1, end});
    // Continue scanning INSIDE the body: nested definitions (local
    // structs) and the next member function both live past `brace`.
    i = brace + 1;
  }
  return defs;
}

// ---------------------------------------------------------------------------
// Rule 1: wire-taint.
// ---------------------------------------------------------------------------

constexpr std::string_view kWireTaintRule = "wire-taint";

/// Struct types whose instances carry transport-originated bytes.
const std::vector<std::string_view>& tainted_types() {
  static const std::vector<std::string_view> kTypes = {
      "Packet", "Frame", "Batch", "BatchRecord", "StoredRecord"};
  return kTypes;
}

/// Pass A: the file's tainted identifiers — byte spans, frame/packet
/// variables, recv-filled buffers, and locals initialized from taint
/// accessors.
std::set<std::string> collect_tainted(const SourceFile& f) {
  std::set<std::string> tainted;
  for (const std::string& code : f.code) {
    // std::span<const std::byte> NAME  /  std::span<std::byte> NAME
    for (const std::string_view span_type :
         {std::string_view("std::span<const std::byte>"),
          std::string_view("std::span<std::byte>")}) {
      std::size_t pos = 0;
      while ((pos = code.find(span_type, pos)) != std::string::npos) {
        std::size_t i = skip_ws(code, pos + span_type.size());
        if (i < code.size() && code[i] == '&') i = skip_ws(code, i + 1);
        const std::string name = read_ident(code, i);
        if (!name.empty()) tainted.insert(name);
        pos += span_type.size();
      }
    }
    // TaintedType [&] NAME  (skipping function declarations: NAME '(')
    for (const std::string_view type : tainted_types()) {
      std::size_t pos = 0;
      while ((pos = find_token(code, type, pos)) != std::string::npos) {
        std::size_t i = skip_ws(code, pos + type.size());
        if (i < code.size() && code[i] == '&') i = skip_ws(code, i + 1);
        const std::string name = read_ident(code, i);
        pos += type.size();
        if (name.empty() || keywords().count(name) != 0) continue;
        const std::size_t after = skip_ws(code, code.find(name, i) +
                                                    name.size());
        if (after < code.size() && code[after] == '(') continue;  // a decl
        tainted.insert(name);
      }
    }
    // auto NAME = <expr involving receive()/get_bytes()/.payload>
    std::size_t auto_pos = find_token(code, "auto");
    if (auto_pos != std::string::npos) {
      std::size_t i = skip_ws(code, auto_pos + 4);
      if (i < code.size() && code[i] == '&') i = skip_ws(code, i + 1);
      const std::string name = read_ident(code, i);
      if (!name.empty()) {
        const std::string_view rest =
            std::string_view(code).substr(i + name.size());
        if (rest.find(".receive()") != std::string_view::npos ||
            rest.find("get_bytes(") != std::string_view::npos ||
            rest.find(".payload") != std::string_view::npos) {
          tainted.insert(name);
        }
      }
    }
    // recv-filled buffers: on a recv/recvfrom line, any NAME.data()
    // argument is the kernel-written buffer.
    if (code.find("recvfrom(") != std::string::npos ||
        find_token(code, "recv") != std::string::npos) {
      std::size_t pos = 0;
      while ((pos = code.find(".data()", pos)) != std::string::npos) {
        std::size_t s = pos;
        while (s > 0 && ident_char(code[s - 1])) --s;
        const std::string name = code.substr(s, pos - s);
        if (!name.empty()) tainted.insert(name);
        pos += 7;
      }
    }
  }
  return tainted;
}

/// Pass B: raw memory operations in taint context.
void scan_wire_taint(const SourceFile& f, std::vector<Finding>& findings) {
  const std::set<std::string> tainted = collect_tainted(f);
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& code = f.code[n];
    bool ctx = code.find(".payload") != std::string::npos;
    for (const std::string& name : tainted) {
      if (ctx) break;
      ctx = has_token(code, name);
    }
    if (!ctx) continue;
    const std::size_t lineno = n + 1;
    if (has_token(code, "memcpy") || has_token(code, "memmove")) {
      report(findings, f, lineno, kWireTaintRule,
             "raw memcpy/memmove in transport-taint context (route the "
             "bytes through the bounds-checked wire::Decoder / framing "
             "readers, or allow-mark an audited trust boundary)");
      continue;
    }
    if (has_token(code, "reinterpret_cast")) {
      report(findings, f, lineno, kWireTaintRule,
             "reinterpret_cast in transport-taint context (decode "
             "transport bytes with the checked readers; an OS-API cast "
             "at the socket boundary needs an audited allow marker)");
      continue;
    }
    // Pointer arithmetic / unchecked indexing on a tainted identifier.
    bool arith = false;
    auto check_after = [&](std::size_t after) {
      if (after < code.size() && code[after] == '[') arith = true;
      for (const std::string_view acc :
           {std::string_view(".data()"), std::string_view(".begin()")}) {
        if (code.compare(after, acc.size(), acc) == 0) {
          const std::size_t next = skip_ws(code, after + acc.size());
          if (next < code.size() && (code[next] == '+' || code[next] == '-')) {
            arith = true;
          }
        }
      }
    };
    for (const std::string& name : tainted) {
      std::size_t pos = 0;
      while (!arith &&
             (pos = find_token(code, name, pos)) != std::string::npos) {
        check_after(pos + name.size());
        pos += name.size();
      }
      if (arith) break;
    }
    if (!arith) {
      std::size_t pos = 0;
      while (!arith &&
             (pos = code.find(".payload", pos)) != std::string::npos) {
        check_after(pos + 8);
        pos += 8;
      }
    }
    if (arith) {
      report(findings, f, lineno, kWireTaintRule,
             "pointer arithmetic / unchecked indexing on transport-"
             "tainted bytes (use wire::Decoder, std::span::subspan, or "
             "allow-mark an audited length-validated access)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: hot-path-alloc.
// ---------------------------------------------------------------------------

constexpr std::string_view kHotPathRule = "hot-path-alloc";

/// Owning std types whose *local declaration* (or temporary) allocates.
const std::vector<std::string_view>& owning_types() {
  static const std::vector<std::string_view> kTypes = {
      "vector",        "string",        "deque",      "list",
      "map",           "set",           "multimap",   "multiset",
      "unordered_map", "unordered_set", "basic_string",
      "ostringstream", "stringstream",  "istringstream", "function"};
  return kTypes;
}

/// True when line `code` declares (or constructs a temporary of) an
/// owning std:: type by value — `std::vector<T> x`, `std::string(...)`.
/// References and pointers (`const std::vector<T>&`) do not allocate.
bool owning_value_use(const std::string& code, std::string* which) {
  std::size_t pos = 0;
  while ((pos = code.find("std::", pos)) != std::string::npos) {
    const std::size_t name_at = pos + 5;
    const std::string name = read_ident(code, name_at);
    pos = name_at + name.size();
    bool owning = false;
    for (const std::string_view t : owning_types()) owning = owning || t == name;
    if (!owning) continue;
    std::size_t i = pos;
    if (i < code.size() && code[i] == '<') {
      int depth = 0;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
    }
    i = skip_ws(code, i);
    if (i >= code.size()) continue;
    if (code[i] == '&' || code[i] == '*' || code[i] == ':' ||
        code[i] == '>' || code[i] == ',' || code[i] == ';' ||
        code[i] == ')') {
      continue;  // reference/pointer/nested-template/type-only mention
    }
    if (code[i] == '(' || code[i] == '{' || ident_char(code[i])) {
      *which = "std::" + name;
      return true;
    }
  }
  return false;
}

void scan_hot_path_alloc(const SourceFile& f, std::vector<Finding>& findings) {
  // Roots: a hotpath marker attaches to the first function definition
  // on or within 6 lines below it (markers live in the doc comment).
  std::vector<std::size_t> marker_lines;
  for (std::size_t n = 0; n < f.raw.size(); ++n) {
    if (f.raw[n].find(kHotpathMarker) != std::string::npos) {
      marker_lines.push_back(n + 1);
    }
  }
  if (marker_lines.empty()) return;
  const std::vector<FunctionDef> defs = find_functions(f);
  std::map<std::string, const FunctionDef*> by_name;
  for (const FunctionDef& d : defs) {
    if (by_name.count(d.name) == 0) by_name[d.name] = &d;
  }
  std::map<std::string, std::string> root_of;  // reachable fn -> root name
  std::vector<const FunctionDef*> queue;
  for (const std::size_t marker : marker_lines) {
    const FunctionDef* best = nullptr;
    for (const FunctionDef& d : defs) {
      if (d.signature_line >= marker && d.signature_line <= marker + 6 &&
          (best == nullptr || d.signature_line < best->signature_line)) {
        best = &d;
      }
    }
    if (best == nullptr) {
      report(findings, f, marker, kHotPathRule,
             "hotpath marker with no function definition within 6 lines "
             "(move the marker onto the root's doc comment)");
      continue;
    }
    if (root_of.count(best->name) == 0) {
      root_of[best->name] = best->name;
      queue.push_back(best);
    }
  }
  // Same-file call-graph BFS from the roots.
  const std::string_view text = f.joined;
  while (!queue.empty()) {
    const FunctionDef* fn = queue.back();
    queue.pop_back();
    const std::string root = root_of[fn->name];
    const std::string_view body =
        text.substr(fn->body_begin, fn->body_end - fn->body_begin);
    for (const auto& [callee, def] : by_name) {
      if (root_of.count(callee) != 0) continue;
      std::size_t pos = 0;
      bool called = false;
      while (!called &&
             (pos = find_token(body, callee, pos)) != std::string_view::npos) {
        const std::size_t after = skip_ws(body, pos + callee.size());
        called = after < body.size() && body[after] == '(';
        pos += callee.size();
      }
      if (called) {
        root_of[callee] = root;
        queue.push_back(def);
      }
    }
  }
  // Scan every reachable body, line by line.
  for (const FunctionDef& d : defs) {
    const auto root_it = root_of.find(d.name);
    if (root_it == root_of.end()) continue;
    const std::size_t first = line_of(f, d.body_begin);
    const std::size_t last = line_of(f, d.body_end);
    for (std::size_t lineno = first; lineno <= last; ++lineno) {
      const std::string& code = f.code[lineno - 1];
      const std::string suffix =
          " in hot path (reachable from '" + root_it->second +
          "'; reuse a member scratch buffer, or allow-mark an audited "
          "bounded allocation)";
      std::size_t new_pos = find_token(code, "new");
      if (new_pos != std::string::npos) {
        const std::size_t after = skip_ws(code, new_pos + 3);
        if (after < code.size() &&
            (ident_char(code[after]) || code[after] == '(' ||
             code[after] == '[')) {
          report(findings, f, lineno, kHotPathRule,
                 "new-expression" + suffix);
          continue;
        }
      }
      if (has_token(code, "malloc") || has_token(code, "calloc") ||
          has_token(code, "realloc") || has_token(code, "strdup")) {
        report(findings, f, lineno, kHotPathRule, "raw allocation" + suffix);
        continue;
      }
      if (has_token(code, "make_unique") || has_token(code, "make_shared")) {
        report(findings, f, lineno, kHotPathRule,
               "smart-pointer allocation" + suffix);
        continue;
      }
      std::string which;
      if (owning_value_use(code, &which)) {
        report(findings, f, lineno, kHotPathRule,
               "local owning " + which + suffix);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: simd-parity.
// ---------------------------------------------------------------------------

constexpr std::string_view kSimdParityRule = "simd-parity";

struct SimdSymbol {
  std::string name;
  const SourceFile* file;
  std::size_t line;
};

/// Cross-references the dispatch seam against the equivalence tests:
/// every registered vector kernel needs a scalar twin, every dispatch
/// accessor needs a test reference.
void scan_simd_parity(const std::vector<SourceFile>& dispatch,
                      const std::vector<SourceFile>& tests,
                      std::vector<Finding>& findings) {
  if (dispatch.empty()) return;
  // Registered kernel symbols: address-of registrations `&name` /
  // `&detail::name` in the dispatch files.
  std::vector<SimdSymbol> kernels;
  std::set<std::string> kernel_names;
  // Dispatch accessors: functions whose return type token ends in "Fn".
  std::vector<SimdSymbol> accessors;
  std::set<std::string> seen_accessors;
  for (const SourceFile& f : dispatch) {
    for (std::size_t n = 0; n < f.code.size(); ++n) {
      const std::string& code = f.code[n];
      for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i] != '&' || !ident_char(code[i + 1])) continue;
        if (i > 0 && (ident_char(code[i - 1]) || code[i - 1] == '&')) {
          continue;  // binary '&' / '&&'
        }
        std::size_t s = i + 1;
        std::string name = read_ident(code, s);
        std::size_t e = s + name.size();
        while (code.compare(e, 2, "::") == 0) {  // qualified: keep the leaf
          s = e + 2;
          name = read_ident(code, s);
          e = s + name.size();
        }
        if (name.empty() || keywords().count(name) != 0) continue;
        if (e < code.size() && code[e] == '(') continue;  // call, not address
        kernels.push_back(SimdSymbol{name, &f, n + 1});
        kernel_names.insert(name);
      }
      // `SomethingFn accessor_name(` declarations/definitions.
      for (std::size_t i = 0; i < code.size();) {
        if (!ident_char(code[i])) {
          ++i;
          continue;
        }
        const std::string type = read_ident(code, i);
        i += type.size();
        if (type.size() < 3 || type.compare(type.size() - 2, 2, "Fn") != 0) {
          continue;
        }
        const std::size_t name_at = skip_ws(code, i);
        const std::string name = read_ident(code, name_at);
        if (name.empty() || keywords().count(name) != 0) continue;
        const std::size_t open = skip_ws(code, name_at + name.size());
        if (open >= code.size() || code[open] != '(') continue;
        if (seen_accessors.insert(name).second) {
          accessors.push_back(SimdSymbol{name, &f, n + 1});
        }
      }
    }
  }
  // (a) scalar twins for vector kernels.
  for (const SimdSymbol& k : kernels) {
    const std::size_t avx = k.name.find("_avx2");
    if (avx == std::string::npos) continue;
    const std::string twin = k.name.substr(0, avx) + "_scalar";
    if (kernel_names.count(twin) == 0) {
      report(findings, *k.file, k.line, kSimdParityRule,
             "SIMD kernel '" + k.name + "' registered without a scalar "
             "twin '" + twin + "' (every vector kernel needs a bit-exact "
             "scalar reference in the dispatch seam)");
    }
  }
  // (b) test references for dispatch accessors.
  for (const SimdSymbol& a : accessors) {
    bool referenced = false;
    for (const SourceFile& t : tests) {
      referenced = referenced || has_token(t.joined, a.name);
    }
    if (!referenced) {
      report(findings, *a.file, a.line, kSimdParityRule,
             "dispatch accessor '" + a.name + "' is not referenced by "
             "the equivalence tests (cover it in the --simd-tests suites "
             "so the kernel cannot drift from its scalar reference)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule family 4: determinism.
// ---------------------------------------------------------------------------

/// One determinism rule. A code line violates it when it holds one of
/// `tokens` as a whole token (find_token) or one of `fragments` as a
/// part of any name (the fast-math kernels are `*_fastmath`).
struct DeterminismRule {
  std::string_view name;
  std::vector<std::string_view> tokens;
  std::vector<std::string_view> fragments;
  std::string_view message;
};

const std::vector<DeterminismRule>& determinism_rules() {
  static const std::vector<DeterminismRule> kRules = {
      {"raw-rand",
       {"random_device", "rand(", "srand("},
       {},
       "raw C randomness / random_device (derive a ddc::stats::Rng "
       "stream via stats::derive_seed instead)"},
      {"nonportable-engine",
       {"default_random_engine", "knuth_b"},
       {},
       "implementation-defined random engine (its sequence differs across "
       "standard libraries; use ddc::stats::Rng / std::mt19937_64)"},
      {"unordered-iter",
       {"unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"},
       {},
       "unordered container (hash iteration order is unspecified and "
       "feeds ordered output; use std::map / std::set / a sorted vector, "
       "or justify a lookup-only use with an allow marker)"},
      {"wall-clock",
       {"steady_clock", "system_clock", "high_resolution_clock",
        "gettimeofday", "time(nullptr", "time(NULL", "clock()"},
       {},
       "wall-clock mention (real time must not steer a deterministic "
       "path; route timing probes through common/timing.hpp, or allow-"
       "mark a site that is nondeterministic by design)"},
      {"float-reorder",
       {"std::reduce", "std::execution", "atomic<double>", "atomic<float>",
        "_mm256_hadd_pd"},
       {"fastmath"},
       "accumulation-order hazard (float addition is not associative; "
       "reductions must run in a fixed sequential order — see "
       "exec/parallel_for.hpp — and fast-math / horizontal-add SIMD "
       "kernels re-associate by design, so every use needs an audited "
       "allow marker and error-bound tests, never golden digests)"},
  };
  return kRules;
}

void scan_determinism(const SourceFile& f, std::vector<Finding>& findings) {
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& code = f.code[n];
    // `#include <unordered_map>` is not a use; the use site still fires.
    if (code.compare(skip_ws(code, 0), 8, "#include") == 0) continue;
    for (const DeterminismRule& rule : determinism_rules()) {
      const bool hit =
          std::any_of(rule.tokens.begin(), rule.tokens.end(),
                      [&](std::string_view t) { return has_token(code, t); }) ||
          std::any_of(rule.fragments.begin(), rule.fragments.end(),
                      [&](std::string_view t) {
                        return code.find(t) != std::string::npos;
                      });
      if (hit) report(findings, f, n + 1, rule.name, std::string(rule.message));
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct RuleDoc {
  std::string_view name;
  std::string_view doc;
};

const std::vector<RuleDoc>& rules() {
  static const std::vector<RuleDoc> kRules = [] {
    std::vector<RuleDoc> all = {
        {kWireTaintRule,
         "transport-originated bytes (spans, Packet/Frame/Batch variables,\n"
         "    recv buffers) must flow through the bounds-checked\n"
         "    wire::Decoder readers; raw memcpy/reinterpret_cast/pointer\n"
         "    arithmetic on tainted bytes is flagged"},
        {kHotPathRule,
         "functions reachable (same-file call graph) from a\n"
         "    `// ddcverify: hotpath` root must not allocate: no new/malloc/\n"
         "    make_unique, no local owning std containers (scratch-reuse\n"
         "    discipline of the per-round hot paths)"},
        {kSimdParityRule,
         "every kernel registered in the linalg::simd dispatch seam needs a\n"
         "    scalar twin (X_avx2* pairs with X_scalar) and every dispatch\n"
         "    accessor must be referenced by the kernel-equivalence tests"},
    };
    for (const DeterminismRule& rule : determinism_rules()) {
      all.push_back(RuleDoc{rule.name, rule.message});
    }
    return all;
  }();
  return kRules;
}

bool is_source_file(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

bool load_file(const std::string& path, SourceFile& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = lex(path, buffer.str());
  return true;
}

int scan_paths(const std::vector<std::string>& paths,
               const std::vector<std::string>& dispatch_paths,
               const std::vector<std::string>& test_paths) {
  std::vector<std::filesystem::path> files;
  for (const std::string& p : paths) {
    const std::filesystem::path path(p);
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && is_source_file(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (std::filesystem::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      std::cerr << "ddcverify: no such file or directory: " << p << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  for (const auto& file : files) {
    SourceFile f;
    if (!load_file(file.string(), f)) {
      std::cerr << "ddcverify: cannot read " << file.string() << "\n";
      return 2;
    }
    scan_determinism(f, findings);
    scan_wire_taint(f, findings);
    scan_hot_path_alloc(f, findings);
  }

  std::vector<SourceFile> dispatch;
  std::vector<SourceFile> tests;
  for (const std::string& p : dispatch_paths) {
    SourceFile f;
    if (!load_file(p, f)) {
      std::cerr << "ddcverify: cannot read dispatch file " << p << "\n";
      return 2;
    }
    dispatch.push_back(std::move(f));
  }
  for (const std::string& p : test_paths) {
    SourceFile f;
    if (!load_file(p, f)) {
      std::cerr << "ddcverify: cannot read test file " << p << "\n";
      return 2;
    }
    tests.push_back(std::move(f));
  }
  scan_simd_parity(dispatch, tests, findings);

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  const std::size_t scanned = files.size() + dispatch.size();
  if (!findings.empty()) {
    std::cout << "ddcverify: " << findings.size() << " violation"
              << (findings.size() == 1 ? "" : "s") << " in " << scanned
              << " file" << (scanned == 1 ? "" : "s") << " scanned\n";
    return 1;
  }
  std::cout << "ddcverify: clean (" << scanned << " file"
            << (scanned == 1 ? "" : "s") << " scanned)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: one planted violation per rule, each with an allow-marked
// twin, plus benign shapes that must stay silent.
// ---------------------------------------------------------------------------

std::vector<Finding> findings_for(const std::string& text,
                                  std::string_view rule) {
  const SourceFile f = lex("<plant>", text);
  std::vector<Finding> findings;
  if (rule == kWireTaintRule) {
    scan_wire_taint(f, findings);
  } else if (rule == kHotPathRule) {
    scan_hot_path_alloc(f, findings);
  } else {
    scan_determinism(f, findings);
  }
  return findings;
}

int self_test() {
  std::size_t failures = 0;
  const auto expect_fires = [&](const std::string& text,
                                std::string_view rule, std::string_view what) {
    bool fired = false;
    for (const Finding& f : findings_for(text, rule)) {
      fired = fired || f.rule == rule;
    }
    if (!fired) {
      std::cerr << "self-test FAIL: " << rule << " did not fire on " << what
                << "\n";
      ++failures;
    }
  };
  const auto expect_clean = [&](const std::string& text,
                                std::string_view rule, std::string_view what) {
    if (!findings_for(text, rule).empty()) {
      std::cerr << "self-test FAIL: " << rule << " fired on " << what << "\n";
      ++failures;
    }
  };

  // --- wire-taint -----------------------------------------------------
  const std::string taint_memcpy =
      "void f(std::span<const std::byte> payload) {\n"
      "  std::memcpy(out, payload.data(), payload.size());\n"
      "}\n";
  expect_fires(taint_memcpy, kWireTaintRule, "tainted memcpy");
  expect_clean(
      "void f(std::span<const std::byte> payload) {\n"
      "  // audited: length validated above. ddcverify: allow(wire-taint)\n"
      "  std::memcpy(out, payload.data(), payload.size());\n"
      "}\n",
      kWireTaintRule, "allow-marked tainted memcpy");
  expect_fires(
      "void g(net::Transport& t) {\n"
      "  for (net::Packet& packet : t.receive()) {\n"
      "    const int* p = reinterpret_cast<const int*>(packet.bytes.data());\n"
      "  }\n"
      "}\n",
      kWireTaintRule, "reinterpret_cast of packet bytes");
  expect_fires(
      "void h(const wire::Frame& frame) {\n"
      "  auto body = frame.payload;\n"
      "  const std::byte b = body[7];\n"
      "}\n",
      kWireTaintRule, "unchecked indexing of a frame payload");
  expect_clean(
      "void ok(std::span<const std::byte> payload) {\n"
      "  wire::Decoder dec(payload);\n"
      "  const std::uint64_t round = dec.get_u64();\n"
      "}\n",
      kWireTaintRule, "decoder-routed payload (benign)");
  expect_clean(
      "double to_double(std::uint64_t bits) {\n"
      "  double v;\n"
      "  std::memcpy(&v, &bits, sizeof(v));\n"
      "  return v;\n"
      "}\n",
      kWireTaintRule, "scalar bit-copy with no taint (benign)");
  expect_clean(
      "// std::memcpy(out, payload.data(), n) would be flagged here\n"
      "const char* doc = \"std::span<const std::byte> payload\";\n",
      kWireTaintRule, "taint patterns in comment/string (benign)");

  // --- hot-path-alloc -------------------------------------------------
  const std::string hot_new =
      "// ddcverify: hotpath\n"
      "void begin_round() {\n"
      "  helper();\n"
      "}\n"
      "void helper() {\n"
      "  double* p = new double[8];\n"
      "}\n";
  expect_fires(hot_new, kHotPathRule, "transitive new in hot path");
  expect_fires(
      "// ddcverify: hotpath\n"
      "void prepare() {\n"
      "  std::vector<double> tmp(8);\n"
      "}\n",
      kHotPathRule, "local owning container in hot path");
  expect_clean(
      "// ddcverify: hotpath\n"
      "void prepare() {\n"
      "  // audited: one bounded frame per peer. ddcverify: allow(hot-path-alloc)\n"
      "  std::vector<double> tmp(8);\n"
      "}\n",
      kHotPathRule, "allow-marked hot-path allocation");
  expect_clean(
      "// ddcverify: hotpath\n"
      "void absorb(const std::vector<double>& in) {\n"
      "  scratch_.assign(in.begin(), in.end());\n"
      "}\n",
      kHotPathRule, "reference parameter + member reuse (benign)");
  expect_clean(
      "void not_hot() {\n"
      "  std::vector<double> tmp(8);\n"
      "  double* p = new double[8];\n"
      "}\n",
      kHotPathRule, "allocation outside any hot path (benign)");

  // --- simd-parity ----------------------------------------------------
  const auto simd_findings = [&](const std::string& dispatch_text,
                                 const std::string& test_text) {
    std::vector<SourceFile> dispatch{lex("<dispatch>", dispatch_text)};
    std::vector<SourceFile> tests{lex("<tests>", test_text)};
    std::vector<Finding> findings;
    scan_simd_parity(dispatch, tests, findings);
    return findings;
  };
  const std::string good_dispatch =
      "ScoreBatchFn scalar_score_kernel() noexcept {\n"
      "  return &score_batch_scalar;\n"
      "}\n"
      "ScoreBatchFn avx2_score_kernel() noexcept {\n"
      "  return &detail::score_batch_avx2_lanewise;\n"
      "}\n";
  const std::string good_tests =
      "check(scalar_score_kernel(), avx2_score_kernel());\n"
      "reference(score_batch_scalar, score_batch_avx2_lanewise);\n";
  if (!simd_findings(good_dispatch, good_tests).empty()) {
    std::cerr << "self-test FAIL: simd-parity fired on covered dispatch\n";
    ++failures;
  }
  const std::string orphan_kernel =
      "ScoreBatchFn scalar_score_kernel() noexcept {\n"
      "  return &score_batch_scalar;\n"
      "}\n"
      "NormBatchFn norm_kernel() noexcept {\n"
      "  return &detail::fused_norm_avx2_lanewise;\n"  // no fused_norm_scalar
      "}\n";
  const std::string orphan_tests =
      "check(scalar_score_kernel());\n"
      "check(norm_kernel());\n";
  {
    bool twin_fired = false;
    for (const Finding& f : simd_findings(orphan_kernel, orphan_tests)) {
      twin_fired = twin_fired ||
                   f.message.find("scalar twin") != std::string::npos;
    }
    if (!twin_fired) {
      std::cerr << "self-test FAIL: simd-parity missed a twinless kernel\n";
      ++failures;
    }
  }
  {
    bool ref_fired = false;
    for (const Finding& f :
         simd_findings(good_dispatch, "check(scalar_score_kernel());\n")) {
      ref_fired = ref_fired ||
                  f.message.find("not referenced") != std::string::npos;
    }
    if (!ref_fired) {
      std::cerr << "self-test FAIL: simd-parity missed an untested "
                   "accessor\n";
      ++failures;
    }
  }
  {
    const std::string allowed_kernel =
        "ScoreBatchFn scalar_score_kernel() noexcept {\n"
        "  return &score_batch_scalar;\n"
        "}\n"
        "NormBatchFn norm_kernel() noexcept {\n"
        "  // staged rollout, twin lands next PR. ddcverify: allow(simd-parity)\n"
        "  return &detail::fused_norm_avx2_lanewise;\n"
        "}\n";
    const std::string allowed_tests =
        "check(scalar_score_kernel());\ncheck(norm_kernel());\n";
    if (!simd_findings(allowed_kernel, allowed_tests).empty()) {
      std::cerr << "self-test FAIL: allow(simd-parity) did not suppress\n";
      ++failures;
    }
  }

  // --- determinism ----------------------------------------------------
  // Each plant's first line must fire; a same-line or preceding-line
  // marker must suppress it; the same text in comments and strings must
  // stay silent. `tail` is follow-on code that must not fire by itself.
  struct Plant {
    std::string_view rule;
    std::string_view hit;
    std::string_view tail;
  };
  const std::vector<Plant> plants = {
      {"raw-rand", "  std::random_device rd;", ""},
      {"raw-rand", "  int x = rand();", ""},
      {"raw-rand", "  std::srand(7);", ""},
      {"nonportable-engine", "  std::default_random_engine eng(7);", ""},
      {"unordered-iter", "  std::unordered_map<int, int> counts;", ""},
      {"wall-clock", "  auto t = std::chrono::steady_clock::now();", ""},
      {"wall-clock", "  using Clock = std::chrono::steady_clock;",
       "  const auto t = Clock::now();\n"},
      {"wall-clock", "  const std::time_t now = std::time(nullptr);", ""},
      {"float-reorder", "  double s = std::reduce(v.begin(), v.end(), 0.0);",
       ""},
      {"float-reorder", "  const __m256d h = _mm256_hadd_pd(acc, acc);", ""},
      {"float-reorder", "  out[i] = score_batch_avx2_fastmath(s, x);", ""},
  };
  for (const Plant& p : plants) {
    const std::string hit(p.hit);
    const std::string tail(p.tail);
    const std::string marker = "ddcverify: allow(" + std::string(p.rule) + ")";
    expect_fires(hit + "\n" + tail, p.rule, hit);
    expect_clean(hit + "  // " + marker + "\n" + tail, p.rule,
                 "same-line " + marker + ": " + hit);
    expect_clean("  // audited sink. " + marker + "\n" + hit + "\n" + tail,
                 p.rule, "preceding-line " + marker + ": " + hit);
    expect_clean("//" + hit + "\n/*" + hit + "\n*/\nconst char* s = \"" + hit +
                     "\";\n",
                 p.rule, "comment/string mention: " + hit);
  }
  // Token boundaries: names that merely contain a hazard stay silent.
  expect_clean(
      "  int operand(int x);\n"
      "  std::map<int, int> ordered;\n"
      "  std::chrono::duration<double> elapsed{0.0};\n"
      "  double runtime(double x);\n",
      "raw-rand", "hazard-like names (benign)");

  if (failures != 0) {
    std::cerr << "ddcverify self-test: " << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "ddcverify self-test: all rule families fire, suppress and "
               "stay silent on benign shapes\n";
  return 0;
}

void list_rules() {
  for (const RuleDoc& rule : rules()) {
    std::cout << rule.name << "\n    " << rule.doc << "\n";
  }
}

std::vector<std::string> split_csv(const std::string& arg) {
  std::vector<std::string> out;
  std::istringstream stream(arg);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

constexpr std::string_view kUsage =
    "usage: ddcverify [--self-test] [--list-rules]\n"
    "                 [--simd-dispatch <f1,f2>] [--simd-tests <f1,f2>]\n"
    "                 <file-or-dir>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> dispatch_paths;
  std::vector<std::string> test_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--list-rules") {
      list_rules();
      return 0;
    }
    if (arg == "--simd-dispatch" || arg == "--simd-tests") {
      if (i + 1 >= argc) {
        std::cerr << "ddcverify: " << arg << " needs a comma-separated "
                     "file list\n";
        return 2;
      }
      auto& target = arg == "--simd-dispatch" ? dispatch_paths : test_paths;
      for (std::string& p : split_csv(argv[++i])) {
        target.push_back(std::move(p));
      }
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "ddcverify: unknown flag " << arg << "\n";
      return 2;
    }
    paths.emplace_back(arg);
  }
  if (paths.empty() && dispatch_paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  return scan_paths(paths, dispatch_paths, test_paths);
}
