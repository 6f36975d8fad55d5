#include "protocol.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace gpumip::lint {
namespace {

constexpr std::size_t npos = std::string::npos;

/// True when the word occurrence at `at` is a member call (`.op` / `->op`).
bool is_member_call(const std::string& s, std::size_t at) {
  if (at == 0) return false;
  const char prev = s[at - 1];
  if (prev == '.') return !(at >= 2 && s[at - 2] == '.');  // not "..."
  return prev == '>' && at >= 2 && s[at - 2] == '-';
}

/// Whole-word presence of `word` inside [begin,end) of `f`.
bool word_in_extent(const Scanned& f, const std::string& word, std::size_t begin,
                    std::size_t end) {
  const std::vector<std::size_t>& sites = word_positions(f, word);
  auto it = std::lower_bound(sites.begin(), sites.end(), begin);
  return it != sites.end() && *it < end;
}

// ---- R14: tag-protocol coverage --------------------------------------------

/// The trailing identifier of a (possibly qualified) expression like
/// `kTagWork` or `Tag::kTagWork`; empty when the text is not a name.
std::string trailing_identifier(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && is_space(expr[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(expr[begin - 1])) --begin;
  if (begin == end) return "";
  // Reject anything with trailing operators/calls after the name.
  for (std::size_t i = 0; i < begin; ++i) {
    if (!is_space(expr[i]) && !is_ident_char(expr[i]) && expr[i] != ':') return "";
  }
  std::string name = expr.substr(begin, end - begin);
  if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) return "";
  return name;
}

/// One tag send site.
struct TagSite {
  std::string tag;
  std::size_t file = 0;
  int line = 0;
};

/// Collects `<obj>.send(dest, TAG, ...)` sites and the tag identifier of
/// each (qualified names keep their last component).
std::vector<TagSite> collect_send_tags(const std::vector<Scanned>& files) {
  std::vector<TagSite> out;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const Scanned& f = files[fi];
    const std::string& s = f.clean;
    for (std::size_t at : word_positions(f, "send")) {
      if (!is_member_call(s, at)) continue;
      std::size_t pos = skip_ws(s, at + 4);
      if (pos >= s.size() || s[pos] != '(') continue;
      // Split the argument list on depth-0 commas; the tag is argument 2.
      std::size_t arg_begin = pos + 1;
      int depth = 1;
      int arg_index = 0;
      std::string tag_text;
      for (std::size_t i = pos + 1; i < s.size() && depth > 0; ++i) {
        const char c = s[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') --depth;
        if ((c == ',' && depth == 1) || (depth == 0 && c == ')')) {
          if (arg_index == 1) tag_text = s.substr(arg_begin, i - arg_begin);
          ++arg_index;
          arg_begin = i + 1;
        }
      }
      const std::string tag = trailing_identifier(tag_text);
      if (tag.empty()) continue;  // literal or computed tag: not checkable
      out.push_back({tag, fi, line_of(f, at)});
    }
  }
  return out;
}

/// True when some occurrence of `tag` anywhere in the scanned set sits in a
/// handler context: compared with ==/!=, a case label, or inside a recv
/// call's statement.
bool tag_is_handled(const std::vector<Scanned>& files, const std::string& tag) {
  for (const Scanned& f : files) {
    const std::string& s = f.clean;
    for (std::size_t at : word_positions(f, tag)) {
      std::size_t q = at;
      while (q > 0 && is_space(s[q - 1])) --q;
      if (q >= 2 && s[q - 2] == '=' && s[q - 1] == '=') return true;  // x == TAG
      if (q >= 2 && s[q - 2] == '!' && s[q - 1] == '=') return true;  // x != TAG
      if (q >= 4 && s.compare(q - 4, 4, "case") == 0 &&
          (q == 4 || !is_ident_char(s[q - 5]))) {
        return true;  // case TAG:
      }
      std::size_t p = skip_ws(s, at + tag.size());
      if (p + 1 < s.size() && (s[p] == '=' || s[p] == '!') && s[p + 1] == '=') {
        return true;  // TAG == x
      }
      const std::string stmt = statement_around(s, at);
      if (stmt.find("recv") != npos && stmt.find(".send") == npos &&
          stmt.find("->send") == npos) {
        return true;  // recv(source, TAG)-style filtered receive
      }
    }
  }
  return false;
}

void check_r14_tags(const std::vector<Scanned>& files, std::vector<Finding>& findings) {
  std::set<std::string> reported;
  for (const TagSite& site : collect_send_tags(files)) {
    const Scanned& f = files[site.file];
    if (has_annotation(f, site.line, "wire-ok")) continue;
    if (tag_is_handled(files, site.tag)) continue;
    if (!reported.insert(site.tag).second) continue;
    findings.push_back(
        {f.src->path, site.line, "R14",
         "message tag '" + site.tag +
             "' is sent here but no receive/dispatch site ever examines it (no '== " +
             site.tag + "', 'case " + site.tag +
             ":', or filtered recv anywhere in the scanned set); a tag only ever sent is a "
             "dead or mistyped protocol leg (or annotate '// gpumip-lint: wire-ok(reason)')"});
  }
}

void check_r14_exhausted(const std::vector<Scanned>& files,
                         const std::vector<FunctionDecl>& functions,
                         std::vector<Finding>& findings) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const Scanned& f = files[fi];
    const std::string& s = f.clean;
    for (std::size_t at : word_positions(f, "ByteReader")) {
      // Skip type-position uses: class/ctor declarations, references,
      // template arguments, qualified member definitions.
      std::size_t q = at;
      while (q > 0 && is_space(s[q - 1])) --q;
      if (q > 0 && (s[q - 1] == '~' || is_ident_char(s[q - 1]))) {
        std::size_t r0 = q;
        while (r0 > 0 && is_ident_char(s[r0 - 1])) --r0;
        const std::string prev = s.substr(r0, q - r0);
        if (prev == "class" || prev == "struct" || prev == "explicit" || prev == "friend" ||
            prev == "typename" || prev == "using") {
          continue;
        }
      }
      bool is_decl_name = false;
      for (const FunctionDecl& fn : functions) {
        if (fn.file_index == static_cast<int>(fi) && fn.name_begin == at) {
          is_decl_name = true;  // the ByteReader ctor / a qualified member
          break;
        }
      }
      if (is_decl_name) continue;
      std::size_t pos = skip_ws(s, at + std::string("ByteReader").size());
      if (pos >= s.size()) continue;
      if (!is_ident_char(s[pos])) continue;  // refs, ByteReader::..., templates
      // `ByteReader r(...)` / `ByteReader r{...}` / `ByteReader r = ...`:
      // a top-level deserializer owns the payload view.
      const int fn_idx = enclosing_function(functions, static_cast<int>(fi), at);
      if (fn_idx < 0) continue;  // class-scope member declaration
      const FunctionDecl& fn = functions[static_cast<std::size_t>(fn_idx)];
      if (word_in_extent(f, "exhausted", fn.body_begin, fn.body_end)) continue;
      const int line = line_of(f, at);
      if (has_annotation(f, line, "wire-ok")) continue;
      findings.push_back(
          {f.src->path, line, "R14",
           "'" + fn.name +
               "' constructs a ByteReader but never checks exhausted(): a payload with "
               "trailing bytes (version skew, corrupted length header) decodes silently; "
               "end the deserializer with an exhausted() check that raises a typed "
               "protocol error (or annotate '// gpumip-lint: wire-ok(reason)')"});
    }
  }
}

}  // namespace

void check_protocol(const std::vector<Scanned>& files,
                    const std::vector<FunctionDecl>& functions,
                    std::vector<Finding>& findings) {
  check_r14_tags(files, findings);
  check_r14_exhausted(files, functions, findings);
}

}  // namespace gpumip::lint
