#!/usr/bin/env python3
"""Unit tests for tools/analyze/cpplex.py — the shared C++ lexer under
every pass of the static auditor.

Covers the guarantees the passes rely on: line-structure-preserving
comment/string/raw-string stripping, brace-scope matching that survives
nested templates and uniform-init braces, function-header
classification, and balanced-argument extraction.

Run directly (python3 tests/analyze/cpplex_test.py) or via ctest.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "tools",
    "analyze"))

import cpplex  # noqa: E402


class StripTest(unittest.TestCase):
    def test_preserves_line_structure(self):
        text = 'int a; // hides "quote\nconst char* s = "b{r}ace";\n/* {\n} */ int b;\n'
        clean = cpplex.strip_comments_and_strings(text)
        self.assertEqual(clean.count("\n"), text.count("\n"))
        self.assertEqual(
            [len(l) for l in clean.splitlines()],
            [len(l) for l in text.splitlines()])
        self.assertNotIn("quote", clean)
        self.assertNotIn("b{r}ace", clean)
        self.assertIn("int a;", clean)
        self.assertIn("int b;", clean)

    def test_escaped_quotes(self):
        clean = cpplex.strip_comments_and_strings(r'x = "a\"b{"; y = 1;')
        self.assertNotIn("{", clean)
        self.assertIn("y = 1;", clean)

    def test_raw_string(self):
        text = 'auto j = R"json({"k": [1, 2}})json"; int z;\n'
        clean = cpplex.strip_comments_and_strings(text)
        self.assertNotIn("{", clean)
        self.assertNotIn("[", clean)
        self.assertIn("int z;", clean)

    def test_raw_string_multiline_keeps_lines(self):
        text = 'auto s = R"(line1\nline2 { \nline3)"; int q;\n'
        clean = cpplex.strip_comments_and_strings(text)
        self.assertEqual(clean.count("\n"), text.count("\n"))
        self.assertNotIn("{", clean)
        self.assertIn("int q;", clean)

    def test_plain_R_identifier_untouched(self):
        clean = cpplex.strip_comments_and_strings("int R = 2; Reg r(R);")
        self.assertIn("int R = 2; Reg r(R);", clean)


class ScopeTest(unittest.TestCase):
    SRC = """
namespace n {
template <typename T>
class Reg final : public Base<std::pair<T, T>> {
 public:
  Reg() : v_{0} {}
  int get() const noexcept { return v_; }
  void set(std::map<int, std::vector<T>> m) {
    if (m.empty()) { return; }
    auto f = [&]() { return 1; };
    v_ = f();
  }
 private:
  int v_{0};
};
}  // namespace n
"""

    def setUp(self):
        self.src = cpplex.SourceFile("<test>", self.SRC)

    def test_function_classification(self):
        names = sorted(s.name for s in self.src.fn_scopes)
        self.assertEqual(names, ["Reg", "get", "set"])

    def test_nested_templates_do_not_break_scopes(self):
        # Every scope closes; the class scope spans the whole body.
        recs = dict(self.src.records)
        self.assertIn("Reg", recs)
        self.assertEqual(recs["Reg"].start, 4)
        self.assertEqual(recs["Reg"].end, 15)

    def test_enclosing_function_innermost(self):
        # Line inside the lambda attributes to set(), the enclosing fn.
        set_scope = next(s for s in self.src.fn_scopes if s.name == "set")
        self.assertEqual(self.src.enclosing_function(10).name, "set")
        self.assertEqual(self.src.enclosing_function(set_scope.end).name,
                         "set")

    def test_ctor_detection(self):
        ctor = next(s for s in self.src.fn_scopes if s.name == "Reg")
        self.assertTrue(self.src.is_ctor_or_dtor(ctor))
        get = next(s for s in self.src.fn_scopes if s.name == "get")
        self.assertFalse(self.src.is_ctor_or_dtor(get))

    def test_member_outside_functions(self):
        self.assertIsNone(self.src.enclosing_function(14))


class BalancedArgsTest(unittest.TestCase):
    def test_nested_parens_and_lines(self):
        clean = "x.store(\n  f(a, g(b)),\n  std::memory_order_relaxed);"
        open_idx = clean.index("(")
        end, args = cpplex.balanced_args(clean, open_idx)
        self.assertIn("memory_order_relaxed", args)
        self.assertEqual(clean[end - 1], ")")
        self.assertEqual(clean[end:], ";")

    def test_unbalanced_returns_rest(self):
        clean = "f(a, b"
        end, args = cpplex.balanced_args(clean, 1)
        self.assertEqual(end, len(clean))
        self.assertEqual(args, "a, b")


class FunctionNameTest(unittest.TestCase):
    def test_qualified_and_template_headers(self):
        self.assertEqual(
            cpplex.function_name("std::uint64_t Foo::bar(int x)"), "bar")
        self.assertEqual(
            cpplex.function_name(
                "std::vector<std::pair<int, int>> scan(int id)"), "scan")
        self.assertEqual(cpplex.function_name("~Foo()"), "~Foo")
        self.assertIsNone(cpplex.function_name("int x = 3"))

    def test_decltype_return_types(self):
        self.assertEqual(
            cpplex.function_name(
                "template <class F> decltype(auto) read(int j, F&& f)"),
            "read")
        self.assertEqual(
            cpplex.function_name("decltype(a + b) sum(int a, int b)"), "sum")
        self.assertEqual(
            cpplex.function_name("auto get(int x) -> decltype(x)"), "get")
        self.assertIsNone(cpplex.function_name("decltype(auto)"))

    def test_decltype_auto_member_is_a_function_scope(self):
        src = cpplex.SourceFile("<test>", """
struct Cell {
  template <class F>
  decltype(auto) read(int j, F&& f) {
    for (;;) {
      if (p_.load() == j) return f(j);
    }
  }
};
""")
        self.assertEqual([s.name for s in src.fn_scopes], ["read"])
        self.assertEqual(src.enclosing_function(6).name, "read")


if __name__ == "__main__":
    unittest.main(verbosity=2)
