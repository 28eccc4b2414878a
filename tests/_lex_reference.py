"""The assertion lexer as a hand-written scanner, frozen as a reference.

`test_syntax.py` compares the package's regex lexer with it on random
strings: same tokens, lines and columns, or the same `ParseError` text.
"""

from amscheck.errors import ParseError
from amscheck.parser import _Tok

_SYMBOLS = (
    "|->",
    "&&",
    "||",
    ">=",
    "<=",
    "==",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "*",
    ":",
    ";",
    ",",
    "@",
    "+",
    "-",
    "/",
    ">",
    "<",
    "~",
    "=",
)



def reference_lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("##", i) and i + 2 < n and text[i + 2] == "[":
            toks.append(_Tok("##", "##", line, col))
            i, col = i + 2, col + 2
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(_Tok("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Tok(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    return toks
