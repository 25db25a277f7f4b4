#!/usr/bin/env python3
"""C++ lexing layer for fp_lint.py, the determinism lint.

The lint needs ground truth about C++ source text: what is code versus
what is a comment, a string literal, a char literal, a raw string, or
a preprocessor line. Regexes per line get this wrong in well-known
ways (multi-line /* */ blocks, R"(...)"s spanning lines, '"' inside
char literals), so the partitioning lives here as a small character
scanner with no dependencies.

Two views of a translation unit are exported:

  scrub(text)            -> list of lines, same count and column layout
                            as the input, with comments blanked, string
                            literals collapsed to "" and char literals
                            to '', so line-oriented regex rules never
                            match inside quoted or commented text.
                            `// fp-lint:` marker comments survive
                            verbatim (the waiver idiom lives in
                            comments by design).
  project_includes(text) -> the quoted (project-local) include paths in
                            order, for folding declarations across a
                            translation-unit pair.

The scanner is deliberately not a preprocessor: macros are not
expanded, so the lint sees FP_GUARDED_BY and friends as written.
"""

import re

# Region kinds produced by _regions().
CODE = "code"
LINE_COMMENT = "line_comment"
BLOCK_COMMENT = "block_comment"
STRING = "string"
CHAR = "char"
PP = "pp"

_RAW_PREFIXES = ("R", "uR", "UR", "LR", "u8R")
_ENC_PREFIXES = ("u8", "u", "U", "L")

_FP_MARKER = re.compile(r"//\s*fp-lint:")


def _ident_run_start(text, end):
    """Start index of the [A-Za-z0-9_] run ending just before `end`."""
    i = end
    while i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
        i -= 1
    return i


def _regions(text):
    """Partition `text` into (kind, start, end) half-open regions.

    Every character belongs to exactly one region; CODE regions hold
    everything that is neither comment, literal, nor preprocessor line.
    Unterminated constructs extend to end-of-input rather than raising.
    """
    out = []
    i, n = 0, len(text)
    code_start = 0
    at_line_start = True  # only whitespace seen since the last newline

    def flush(upto):
        if upto > code_start:
            out.append((CODE, code_start, upto))

    while i < n:
        c = text[i]
        if c == "\n":
            at_line_start = True
            i += 1
            continue
        if at_line_start and c == "#":
            # Preprocessor line, honoring backslash-newline continuation.
            flush(i)
            start = i
            while i < n:
                if text[i] == "\n":
                    j = i - 1
                    if j >= start and text[j] == "\r":
                        j -= 1
                    if j >= start and text[j] == "\\":
                        i += 1
                        continue
                    break
                i += 1
            out.append((PP, start, i))
            code_start = i
            continue
        if not c.isspace():
            at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            flush(i)
            start = i
            end = text.find("\n", i)
            i = n if end == -1 else end
            out.append((LINE_COMMENT, start, i))
            code_start = i
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            flush(i)
            start = i
            end = text.find("*/", i + 2)
            i = n if end == -1 else end + 2
            out.append((BLOCK_COMMENT, start, i))
            code_start = i
            continue
        if c == '"':
            prefix_start = _ident_run_start(text, i)
            prefix = text[prefix_start:i]
            if prefix in _RAW_PREFIXES:
                # R"delim( ... )delim"
                flush(prefix_start)
                start = prefix_start
                paren = text.find("(", i + 1)
                if paren == -1:
                    out.append((STRING, start, n))
                    i = code_start = n
                    continue
                delim = text[i + 1:paren]
                close = text.find(")" + delim + '"', paren + 1)
                i = n if close == -1 else close + len(delim) + 2
                out.append((STRING, start, i))
                code_start = i
                continue
            start = prefix_start if prefix in _ENC_PREFIXES else i
            flush(start)
            i += 1
            while i < n and text[i] != '"' and text[i] != "\n":
                i += 2 if text[i] == "\\" else 1
            i = min(i + 1, n)
            out.append((STRING, start, i))
            code_start = i
            continue
        if c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() or prev == "_":
                # Digit separator (1'000'000) or suffix context: code.
                i += 1
                continue
            flush(i)
            start = i
            i += 1
            while i < n and text[i] != "'" and text[i] != "\n":
                i += 2 if text[i] == "\\" else 1
            i = min(i + 1, n)
            out.append((CHAR, start, i))
            code_start = i
            continue
        i += 1
    flush(n)
    return out


def scrub(text):
    """Line-aligned, noise-free view of `text` as a list of lines.

    The output has exactly as many lines as the input and preserves
    column positions of code: comments become spaces (except
    `// fp-lint:` markers, kept verbatim), string literals collapse to
    `""` padded with spaces, char literals to `''`. Newlines inside
    blanked regions survive, so multi-line comments and raw strings
    stay line-aligned.
    """
    chars = list(text)

    def blank(start, end, replacement=""):
        for idx in range(start, end):
            if chars[idx] != "\n":
                chars[idx] = " "
        for idx, ch in enumerate(replacement):
            if start + idx < end and chars[start + idx] != "\n":
                chars[start + idx] = ch

    for kind, start, end in _regions(text):
        if kind == CODE or kind == PP:
            continue
        if kind == LINE_COMMENT and _FP_MARKER.match(text, start):
            continue
        if kind == STRING:
            blank(start, end, '""')
        elif kind == CHAR:
            blank(start, end, "''")
        else:
            blank(start, end)
    return "".join(chars).split("\n")


_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')


def project_includes(text):
    """Quoted #include paths in order (angle includes are external)."""
    paths = []
    for kind, start, end in _regions(text):
        if kind != PP:
            continue
        m = _INCLUDE.match(text, start, end)
        if m:
            paths.append(m.group(1))
    return paths
