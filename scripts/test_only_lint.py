#!/usr/bin/env python3
"""Test-only symbol lint: no production code exists that only tests use.

Lists every public function or class declared in a src/**/*.hpp header
whose name occurs nowhere in the production tree (src/, tools/, bench/,
examples/, perfbench/) apart from its own declarations and definitions,
but does occur under tests/.  Such a symbol is either dead code kept
alive by its tests, or code whose production caller is missing.

The scan is lexical and toolchain-free: comments, string literals and
preprocessor lines are dropped, and a small scope tracker tells a
declaration or definition of a name (`Foo f(...)`, `Foo::f(...) {`,
`class Foo {`, `struct Foo;`, the `Foo::` qualifier of an out-of-line
member) from a use of it.  Matching is by unqualified name, so a test-only
member whose name some other production symbol shares is not caught.

Usage: scripts/test_only_lint.py [ROOT]   (exit 1 when anything is flagged)
"""
import re
import sys
from pathlib import Path

PRODUCTION = ("src", "tools", "bench", "examples", "perfbench")
TESTS = ("tests",)
EXTS = {".hpp", ".cpp", ".h", ".cc"}

# Referees, ground truth and test hooks: production code on purpose, with
# tests as their only callers.  Each pattern matches the end of a qualified
# name ("ExactStats::*" matches every member of flymon::ExactStats); an
# entry that matches no flagged symbol is reported as stale.
ALLOWLIST = {
    "ExactStats::*":
        "ground truth: exact per-flow statistics the accuracy tests score "
        "sketches against",
    "ZipfSampler::probability":
        "ground truth: the exact pmf the sampler's draws are tested against",
    "trace::set_clock":
        "test hook: a deterministic clock for span timing tests",
    "crc_set_impl_override":
        "test hook: pins one CRC dispatch level so each kernel runs on any CPU",
    "crc_supported_impl":
        "test hook: the strongest level this CPU runs, to undo the override",
    "CrcKernel::k_fold*":
        "test hook: derived PCLMUL folding constants, pinned to published values",
    "CrcKernel::barrett_*":
        "test hook: derived Barrett constants, pinned to published values",
    "LockWitness::inject_sequence":
        "test hook: feeds a seeded acquisition order to the witness",
}

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "else", "enum",
    "explicit", "export", "extern", "false", "float", "for", "friend", "goto",
    "if", "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "private", "protected", "public", "requires",
    "return", "short", "signed", "sizeof", "static", "static_assert",
    "struct", "switch", "template", "this", "throw", "true", "try", "typedef",
    "typename", "union", "unsigned", "using", "virtual", "void", "volatile",
    "while", "override", "final",
}

TOKEN = re.compile(
    r"[A-Za-z_]\w*|::|->|\d[\w.']*|\S")
STRIP = re.compile(
    r'//[^\n]*|/\*.*?\*/|R"(\w*)\(.*?\)\1"|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'|^[ \t]*#(?:\\\n|[^\n])*",
    re.S | re.M)


def tokens(text):
    """Identifier/punctuation tokens with line numbers, code only."""
    def blank(m):
        s = m.group(0)
        keep = '""' if s[:1] in '"R' and not s.startswith("//") else " "
        return keep + "\n" * s.count("\n")
    code = STRIP.sub(blank, text)
    out, line, pos = [], 1, 0
    for m in TOKEN.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        out.append((m.group(0), line))
    return out


def is_ident(t):
    return re.match(r"[A-Za-z_]\w*$", t) is not None


def skip_template(toks, i):
    """Index past a `template <...>` prefix starting at i (else i)."""
    if i < len(toks) and toks[i] == "template" and toks[i + 1:i + 2] == ["<"]:
        depth, i = 0, i + 1
        while i < len(toks):
            depth += {"<": 1, ">": -1}.get(toks[i], 0)
            i += 1
            if depth == 0:
                break
    return i


class Scanner:
    """Declaration sites and public declared symbols of one file."""

    def __init__(self, toks, header):
        self.toks = [t for t, _ in toks]
        self.lines = [ln for _, ln in toks]
        self.header = header
        self.decl_sites = set()  # token indices that declare/define a name
        self.symbols = []        # (name, qualified name, line)
        self.scan()

    def scan(self):
        toks = self.toks
        # scope: [kind, name, public, owners]; kinds ns/class/block/init.
        # `owners` are the classes whose own definition the scope is part
        # of: a class body, or the body of an out-of-line member.
        scopes = [["ns", "", True, ()]]
        stmt, paren = [], 0
        for i, t in enumerate(toks):
            kind, owners = scopes[-1][0], scopes[-1][3]
            if t in owners:
                self.decl_sites.add(i)  # a class naming itself
            if kind == "block":
                if t == "{":
                    scopes.append(["block", "", False, owners])
                elif t == "}":
                    scopes.pop()
                    if scopes[-1][0] != "block" and scopes[-1][0] != "init":
                        stmt, paren = [], 0
                continue
            if kind == "init":
                if t == "{":
                    scopes.append(["init", "", False, owners])
                elif t == "}":
                    scopes.pop()
                continue
            # namespace or class scope
            if t in ("(", "["):
                paren += 1
            elif t in (")", "]"):
                paren -= 1
            if kind == "class" and t in ("public", "private", "protected") \
                    and toks[i + 1:i + 2] == [":"] and not stmt:
                scopes[-1][2] = t == "public"
                continue
            if kind == "class" and t == ":" and not stmt:
                continue
            if t == ";" and paren == 0:
                self.declaration(stmt, scopes)
                stmt = []
                continue
            if t == "}":
                scopes.pop()
                stmt, paren = ([], 0) if not stmt else (stmt, paren)
                continue
            if t == "{":
                opened = self.opens(stmt, scopes, paren)
                if opened[0] == "block":
                    opened[3] = owners + self.declaration(stmt, scopes)
                scopes.append(opened)
                if opened[0] != "init":
                    stmt, paren = [], 0
                continue
            stmt.append(i)

    def opens(self, stmt, scopes, paren):
        """The scope a `{` opens after statement `stmt`."""
        toks = self.toks
        words = [toks[j] for j in stmt]
        k = skip_template(words, 0)
        head = words[k:]
        owners = scopes[-1][3]
        if head[:1] == ["namespace"] or head[:2] == ["extern", '""']:
            name = "::".join(w for w in head[1:] if is_ident(w))
            return ["ns", name, scopes[-1][2], owners]
        if paren > 0 or "=" in self.top_level(stmt) or head[:1] == ["enum"]:
            return ["init", "", False, owners]
        if head[:1] in (["class"], ["struct"], ["union"]):
            public = self.public(scopes)
            name_at = self.class_name(stmt, k + 1)
            if name_at is None:
                return ["block", "", False, owners]
            name = toks[name_at]
            self.decl_sites.add(name_at)
            if self.header and public:
                self.symbols.append(
                    (name, self.qualify(scopes, name), self.lines[name_at]))
            return ["class", name, head[0] != "class" and public,
                    owners + (name,)]
        if "(" in words:
            return ["block", "", False, owners]
        return ["init", "", False, owners]

    def top_level(self, stmt):
        """The tokens of `stmt` outside any parentheses or brackets."""
        out, depth = [], 0
        for j in stmt:
            t = self.toks[j]
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif depth == 0:
                out.append(t)
        return out

    def class_name(self, stmt, k):
        """Token index of the class name in `class [[x]] alignas(n) Foo`."""
        toks = self.toks
        depth = 0
        for j in stmt[k:]:
            t = toks[j]
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif depth == 0 and is_ident(t) and t not in KEYWORDS:
                return j
            elif depth == 0 and t in (":", "{"):
                return None
        return None

    @staticmethod
    def public(scopes):
        return all(s[2] for s in scopes if s[0] == "class")

    @staticmethod
    def qualify(scopes, name):
        parts = [s[1] for s in scopes if s[1]]
        return "::".join(parts + [name])

    def declaration(self, stmt, scopes):
        """Record the name a namespace- or class-scope statement declares.

        Returns the classes an out-of-line member definition belongs to
        (`A::B::f(...)` -> ("A", "B")), whose names its body may use freely.
        """
        toks = self.toks
        words = [toks[j] for j in stmt]
        k = skip_template(words, 0)
        if k >= len(words) or words[k] in (
                "using", "typedef", "friend", "static_assert"):
            return ()
        if words[k] in ("class", "struct", "union", "enum"):
            # forward declaration: `struct Foo;`
            for j in stmt[k + 1:]:
                if is_ident(toks[j]) and toks[j] not in KEYWORDS:
                    self.decl_sites.add(j)
                    break
            return ()
        angle = 0
        for n, j in enumerate(stmt[k:], start=k):
            t = toks[j]
            if t == "<":
                angle += 1
            elif t == ">":
                angle = max(0, angle - 1)
            elif t in ("=", "{"):
                return ()
            elif t == "(" and angle == 0:
                break
        else:
            return ()
        if n == k:
            return ()
        name_at = stmt[n - 1]
        name = toks[name_at]
        if not is_ident(name) or name in KEYWORDS or name.isupper():
            return ()
        # the qualifiers of an out-of-line definition `A::B::name(`
        q, quals = n - 1, []
        while q >= k + 2 and words[q - 1] == "::" and is_ident(words[q - 2]):
            quals.insert(0, words[q - 2])
            q -= 2
        if q >= k + 1 and words[q - 1] == "operator":
            return ()
        self.decl_sites.add(name_at)
        for j in stmt:
            if toks[j] in quals:
                self.decl_sites.add(j)  # `Foo Foo::make(` names Foo twice
        ctor = name == scopes[-1][1] or (quals and quals[-1] == name)
        dtor = q > k and words[q - 1] == "~"
        if self.header and self.public(scopes) and not (ctor or dtor or quals):
            self.symbols.append(
                (name, self.qualify(scopes, name), self.lines[name_at]))
        return tuple(quals)


def files(root, dirs):
    for d in dirs:
        base = root / d
        if base.is_dir():
            yield from sorted(p for p in base.rglob("*") if p.suffix in EXTS)


def allowed(qualified):
    for pat in ALLOWLIST:
        rx = re.escape(pat).replace(r"\*", ".*")
        if re.search(r"(^|::)" + rx + "$", qualified):
            return pat
    return None


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    symbols, prod_refs = [], {}
    for path in files(root, PRODUCTION):
        toks = tokens(path.read_text(encoding="utf-8", errors="replace"))
        rel = path.relative_to(root).as_posix()
        sc = Scanner(toks, rel.startswith("src/") and path.suffix == ".hpp")
        for name, qual, line in sc.symbols:
            symbols.append((name, qual, rel, line))
        for j, (t, _) in enumerate(toks):
            if j not in sc.decl_sites and is_ident(t):
                prod_refs[t] = prod_refs.get(t, 0) + 1
    test_refs = set()
    for path in files(root, TESTS):
        text = path.read_text(encoding="utf-8", errors="replace")
        test_refs.update(t for t, _ in tokens(text) if is_ident(t))

    flagged, used_patterns, seen = [], set(), set()
    for name, qual, rel, line in symbols:
        if prod_refs.get(name) or name not in test_refs or qual in seen:
            continue
        seen.add(qual)
        pat = allowed(qual)
        if pat:
            used_patterns.add(pat)
            continue
        flagged.append(f"{rel}:{line}: {qual} is referenced only under tests/")
    stale = [f"allowlist entry '{p}' matches no test-only symbol; remove it"
             for p in ALLOWLIST if p not in used_patterns]
    for e in flagged + stale:
        print("test-only: " + e, file=sys.stderr)
    print(f"test-only lint: {len(symbols)} public symbol(s), "
          f"{len(used_patterns)} allowlist entr(ies) in use, "
          f"{len(flagged) + len(stale)} error(s)")
    return 1 if flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())
