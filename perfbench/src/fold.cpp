#include "fold.hpp"

#include <cctype>
#include <vector>

namespace perfbench {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool opens(char c) { return c == '<' || c == '(' || c == '[' || c == '{'; }
bool closes(char c) { return c == '>' || c == ')' || c == ']' || c == '}'; }

// Length of an "operator..." token starting at s[i] ("operator()",
// "operator<<", "operator new"), or 0 when s[i] does not start one. The
// token's brackets must not count as nesting.
std::size_t operator_len(std::string_view s, std::size_t i) {
  constexpr std::string_view kOp = "operator";
  if (s.substr(i, kOp.size()) != kOp) return 0;
  if (i > 0 && is_ident(s[i - 1])) return 0;
  std::size_t j = i + kOp.size();
  if (j < s.size() && is_ident(s[j])) return 0;
  if (s.substr(j, 2) == "()") return j + 2 - i;
  while (j < s.size() && s[j] != '(') ++j;
  return j - i;
}

// Calls fn(i, c, depth) for every character outside operator tokens, with
// the bracket depth before c; stops early when fn returns false.
template <typename Fn>
void scan(std::string_view s, Fn fn) {
  int depth = 0;
  for (std::size_t i = 0; i < s.size();) {
    if (const std::size_t n = operator_len(s, i)) {
      i += n;
      continue;
    }
    const char c = s[i];
    if (!fn(i, c, depth)) return;
    if (opens(c)) {
      ++depth;
    } else if (closes(c) && depth > 0) {
      --depth;
    }
    ++i;
  }
}

// Splits at top-level "::".
std::vector<std::string_view> split_scope(std::string_view q) {
  std::vector<std::string_view> out;
  std::size_t begin = 0;
  scan(q, [&](std::size_t i, char c, int depth) {
    if (depth == 0 && c == ':' && i + 1 < q.size() && q[i + 1] == ':') {
      out.push_back(q.substr(begin, i - begin));
      begin = i + 2;
    }
    return true;
  });
  out.push_back(q.substr(begin));
  return out;
}

// Name of a scope component without its template arguments.
std::string_view bare(std::string_view comp) {
  const std::size_t lt = comp.find('<');
  return lt == std::string_view::npos ? comp : comp.substr(0, lt);
}

// Top-level template arguments of a component "name<a, b<c>, d>".
std::vector<std::string_view> template_args(std::string_view comp) {
  std::vector<std::string_view> out;
  const std::size_t lt = comp.find('<');
  if (lt == std::string_view::npos) return out;
  std::size_t begin = lt + 1;
  scan(comp.substr(lt), [&](std::size_t i, char c, int depth) {
    const std::size_t at = lt + i;
    if (depth == 1 && (c == ',' || c == '>')) {
      std::string_view arg = comp.substr(begin, at - begin);
      while (!arg.empty() && arg.front() == ' ') arg.remove_prefix(1);
      while (!arg.empty() && arg.back() == ' ') arg.remove_suffix(1);
      if (!arg.empty()) out.push_back(arg);
      begin = at + 1;
      return c == ',';
    }
    return true;
  });
  return out;
}

Layer layer_of_qualified(std::string_view q);

Layer layer_of_type(std::string_view type) {
  return layer_of_qualified(qualified_name(type));
}

// Library templates: the last template argument that names a project
// namespace, scanning scopes right to left.
Layer layer_of_library(const std::vector<std::string_view>& comps) {
  for (auto c = comps.rbegin(); c != comps.rend(); ++c) {
    const auto args = template_args(*c);
    for (auto a = args.rbegin(); a != args.rend(); ++a) {
      const Layer l = layer_of_type(*a);
      if (l != Layer::kOther) return l;
    }
  }
  return Layer::kOther;
}

Layer layer_of_sim(const std::vector<std::string_view>& comps) {
  if (comps.size() < 3) return Layer::kSim;
  const std::string_view cls = bare(comps[2]);
  if (cls == "UniqueFunction") {
    for (std::size_t i = 3; i < comps.size(); ++i) {
      if (bare(comps[i]) != "InlineOps") continue;
      const auto args = template_args(comps[i]);
      if (!args.empty()) {
        const Layer l = layer_of_type(args.front());
        if (l != Layer::kOther) return l;
      }
    }
    return Layer::kSim;
  }
  if (cls.starts_with("Process") || cls.starts_with("Fiber")) {
    return Layer::kFiber;
  }
  if (cls == "ShardGroup") {
    return comps.size() > 3 && bare(comps[3]) == "wait_epoch_"
               ? Layer::kShardWait
               : Layer::kShard;
  }
  if (cls == "SpscQueue") return Layer::kShard;
  return Layer::kSim;
}

Layer layer_of_qualified(std::string_view q) {
  const auto comps = split_scope(q);
  const std::string_view first = bare(comps.front());
  if (first.starts_with("sctpmpi_fiber_")) return Layer::kFiber;
  if (first == "sctpmpi" && comps.size() >= 2) {
    const std::string_view ns = bare(comps[1]);
    if (ns == "sim") return layer_of_sim(comps);
    if (ns == "net") return Layer::kNet;
    if (ns == "tcp") return Layer::kTcp;
    if (ns == "sctp") return Layer::kSctp;
    if (ns == "core") return Layer::kRpi;
    if (ns == "apps") return Layer::kApp;
    return Layer::kOther;
  }
  if (first == "perfbench") {
    return comps.size() >= 2 && bare(comps[1]) == "app" ? Layer::kApp
                                                        : Layer::kBench;
  }
  if (first == "std" || first == "__gnu_cxx") {
    // std::atomic<T>::wait: the shard driver's epoch futex.
    if (comps.size() >= 2 && bare(comps[1]).starts_with("__atomic_wait")) {
      return Layer::kShardWait;
    }
    return layer_of_library(comps);
  }
  return Layer::kOther;
}

}  // namespace

std::string qualified_name(std::string_view demangled) {
  for (const std::string_view thunk :
       {"non-virtual thunk to ", "virtual thunk to ",
        "covariant return thunk to "}) {
    if (demangled.starts_with(thunk)) demangled.remove_prefix(thunk.size());
  }
  std::string s(demangled);
  constexpr std::string_view kAnon = "(anonymous namespace)";
  for (std::size_t at = s.find(kAnon); at != std::string::npos;
       at = s.find(kAnon, at)) {
    s.replace(at, kAnon.size(), "{anon}");
  }
  std::size_t start = 0;
  std::size_t end = s.size();
  scan(s, [&](std::size_t i, char c, int depth) {
    if (depth != 0) return true;
    const std::string_view before = std::string_view(s).substr(0, i);
    if (c == '(' && before.ends_with("decltype")) return true;
    if (c == '(' || std::string_view(s).substr(i, 7) == " [clone") {
      end = i;
      return false;
    }
    if (c == ' ') {
      // Everything before a top-level space is the return type, unless
      // the space only precedes a qualifier ("ns::T const").
      const std::string_view rest = std::string_view(s).substr(i + 1);
      const bool qualifier = rest.starts_with("const") ||
                             rest.starts_with("volatile") ||
                             rest.starts_with("&") || rest.starts_with("*");
      if (!qualifier) start = i + 1;
    }
    return true;
  });
  if (start > end) start = end;
  return s.substr(start, end - start);
}

Layer layer_of_symbol(std::string_view demangled) {
  return layer_of_qualified(qualified_name(demangled));
}

Layer layer_of_shared(std::string_view object, std::string_view symbol) {
  const auto has = [symbol](std::string_view part) {
    return symbol.find(part) != std::string_view::npos;
  };
  if (has("futex") || has("nanosleep") || symbol == "syscall" ||
      symbol == "sched_yield" || symbol.starts_with("pthread_cond") ||
      symbol.starts_with("__lll_")) {
    return Layer::kShardWait;
  }
  const std::size_t slash = object.rfind('/');
  const std::string_view base =
      slash == std::string_view::npos ? object : object.substr(slash + 1);
  // The simulator calls libc for copies, comparisons and allocation only;
  // the copy routines themselves are IFUNC targets without exported names.
  if (base.starts_with("libc.so") || base.starts_with("libc-")) {
    return Layer::kMem;
  }
  if (base.starts_with("libstdc++")) {
    if (symbol.starts_with("operator new") ||
        symbol.starts_with("operator delete")) {
      return Layer::kMem;
    }
    return layer_of_symbol(symbol);
  }
  return Layer::kOther;
}

}  // namespace perfbench
