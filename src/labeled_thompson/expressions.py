"""Inline element expressions.

Grammar (left-to-right evaluation, matching the right-action composition):

    expr    := term (('*' | '.') term)*
    term    := atom ('^' int)?
    atom    := 'iota(' label ')' | 'lambda(' word ',' label ')'
             | 'a_g(' label ')'  | 'comm(' expr ',' expr ')'
             | 'conj(' expr ',' expr ')' | 'file(' path ')' | 'id'
             | '[' columns ']' | '(' expr ')'
    columns := dom '|' label '|' ran (';' dom '|' label '|' ran)*

Words are strings over 0/1, with 'eps' for the empty word; labels are
backend tokens resolved against the context.  conj(a, b) is b^-1 * a * b.
"""

from __future__ import annotations

from . import elements, splinter
from .diagrams import Context
from .elements import VPhiElement
from .serialize import element_from_json, load_json


class ExpressionError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_DELIMS = set("()[]|;,*.^")


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.pos = 0

    # -- lexing helpers ------------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self._skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise ExpressionError(f"expected {ch!r}", self.pos)
        self.pos += len(ch)

    def token(self) -> str:
        """A maximal run of non-delimiter, non-space characters."""
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in _DELIMS or c.isspace():
                break
            self.pos += 1
        if self.pos == start:
            raise ExpressionError("expected a token", start)
        return self.text[start:self.pos]

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ExpressionError("expected an integer", start)
        return int(self.text[start:self.pos])

    # -- grammar ---------------------------------------------------------

    def parse(self) -> VPhiElement:
        out = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExpressionError("trailing input", self.pos)
        return out

    def expr(self) -> VPhiElement:
        out = self.term()
        while self.peek() in ("*", "."):
            self.pos += 1
            out = out * self.term()
        return out

    def term(self) -> VPhiElement:
        out = self.atom()
        if self.peek() == "^":
            self.pos += 1
            out = out ** self.integer()
        return out

    def atom(self) -> VPhiElement:
        self._skip_ws()
        start = self.pos
        c = self.peek()
        if c == "(":
            self.take("(")
            out = self.expr()
            self.take(")")
            return out
        if c == "[":
            return self.matrix()
        name = self.token()
        if name == "id":
            return elements.identity(self.ctx)
        if name in ("iota", "a_g"):
            self.take("(")
            g = self.label(self.token())
            self.take(")")
            if name == "iota":
                return elements.iota(self.ctx, g)
            return splinter.a_g(self.ctx, g)
        if name == "lambda":
            self.take("(")
            w = self.word(self.token())
            self.take(",")
            g = self.label(self.token())
            self.take(")")
            return elements.lambda_u(self.ctx, w, g)
        if name in ("comm", "conj"):
            self.take("(")
            x = self.expr()
            self.take(",")
            y = self.expr()
            self.take(")")
            return elements.commutator(x, y) if name == "comm" else x.conjugate(y)
        if name == "file":
            self.take("(")
            self._skip_ws()
            end = self.text.find(")", self.pos)
            if end < 0:
                raise ExpressionError("expected ')'", len(self.text))
            path = self.text[self.pos:end].strip()
            self.pos = end + 1
            loaded = load_json(path, lambda data: element_from_json(self.ctx, data))
            if not isinstance(loaded, VPhiElement):
                raise ExpressionError("file does not hold a tree element", start)
            return loaded
        raise ExpressionError(f"unknown atom {name!r}", start)

    def matrix(self) -> VPhiElement:
        self.take("[")
        doms, labels, rans = [], [], []
        while True:
            doms.append(self.word(self.token()))
            self.take("|")
            labels.append(self.label(self.token()))
            self.take("|")
            rans.append(self.word(self.token()))
            if self.peek() == ";":
                self.pos += 1
                continue
            break
        self.take("]")
        return elements.element(self.ctx, doms, labels, rans)

    # -- leaves ------------------------------------------------------------

    def word(self, tok: str) -> str:
        if tok == "eps":
            return ""
        if not all(c in "01" for c in tok):
            raise ExpressionError(f"not a binary word: {tok!r}", self.pos)
        return tok

    def label(self, tok: str):
        try:
            return self.ctx.parse_label(tok)
        except Exception as exc:
            raise ExpressionError(f"bad label {tok!r}: {exc}", self.pos) from exc


def parse_expression(text: str, ctx: Context) -> VPhiElement:
    return _Parser(text, ctx).parse()
