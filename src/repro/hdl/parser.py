"""Recursive-descent parser for the mini-Verilog subset.

Accepts both ANSI-style headers (``module m(input [7:0] a, output reg q);``)
and the classic non-ANSI form with directions declared in the body, because
LLM-generated Verilog (this repo's main source of input) mixes both styles.
"""

from __future__ import annotations

from .ast import (
    Always, Assign, Binary, Block, Case, CaseItem, Concat, ContinuousAssign,
    Delay, EventWait, Expr, For, Function, FunctionCall, Identifier, If,
    Index, Initial, Instance, LValue, Module, Net, Number, Parameter, Port,
    Range, Repeat, Replicate, Slice, SourceFile, Stmt, StringLit, SysTask,
    SystemCall, Ternary, Unary, While,
)
from .errors import ParseError
from .lexer import TokKind, Token, tokenize

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = {"~", "!", "-", "+", "&", "|", "^"}


class Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        self.i = 0

    # -- token helpers -------------------------------------------------------

    # The stream ends with EOF and `_next` never moves past it, so
    # `self.toks[self.i]` is always the current token.

    def _peek(self) -> Token:
        return self.toks[self.i]

    def _next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokKind.EOF:
            self.i += 1
        return tok

    def _at(self, kind: TokKind, text: str | None = None) -> bool:
        tok = self.toks[self.i]
        return tok.kind is kind and (text is None or tok.text == text)

    def _accept(self, kind: TokKind, text: str | None = None) -> Token | None:
        if self._at(kind, text):
            return self._next()
        return None

    def _expect(self, kind: TokKind, text: str | None = None) -> Token:
        tok = self.toks[self.i]
        if not self._at(kind, text):
            want = text or kind.name.lower()
            raise ParseError(f"expected '{want}' but found '{tok.text or 'EOF'}'", tok.loc)
        return self._next()

    def _kw(self, word: str) -> bool:
        return self._at(TokKind.KEYWORD, word)

    def _accept_kw(self, word: str) -> bool:
        return self._accept(TokKind.KEYWORD, word) is not None

    def _expect_kw(self, word: str) -> Token:
        return self._expect(TokKind.KEYWORD, word)

    # -- entry points ---------------------------------------------------------

    def parse_source(self) -> SourceFile:
        out = SourceFile()
        while not self._at(TokKind.EOF):
            out.add(self.parse_module())
        return out

    # -- module ----------------------------------------------------------------

    def parse_module(self) -> Module:
        loc = self._peek().loc
        self._expect_kw("module")
        name = self._expect(TokKind.IDENT).text

        parameters: list[Parameter] = []
        if self._accept(TokKind.OP, "#"):
            self._expect(TokKind.OP, "(")
            while not self._at(TokKind.OP, ")"):
                self._accept_kw("parameter")
                pname = self._expect(TokKind.IDENT).text
                self._expect(TokKind.OP, "=")
                parameters.append(Parameter(pname, self.parse_expr()))
                if not self._accept(TokKind.OP, ","):
                    break
            self._expect(TokKind.OP, ")")

        ports: list[Port] = []
        port_order: list[str] = []
        if self._accept(TokKind.OP, "("):
            last_dir: str | None = None
            last_rng: Range | None = None
            last_reg = False
            while not self._at(TokKind.OP, ")"):
                ploc = self._peek().loc
                direction = None
                for d in ("input", "output", "inout"):
                    if self._accept_kw(d):
                        direction = d
                        break
                if direction is not None:
                    is_reg = self._accept_kw("reg")
                    self._accept_kw("wire")
                    self._accept_kw("signed")
                    rng = self._parse_optional_range()
                    pname = self._expect(TokKind.IDENT).text
                    ports.append(Port(pname, direction, rng, is_reg, ploc))
                    port_order.append(pname)
                    last_dir, last_rng, last_reg = direction, rng, is_reg
                else:
                    pname = self._expect(TokKind.IDENT).text
                    if last_dir is not None and self.toks[self.i - 2].text == ",":
                        # Continuation of an ANSI group: input [7:0] a, b, c
                        ports.append(Port(pname, last_dir, last_rng, last_reg, ploc))
                    else:
                        ports.append(Port(pname, "", None, False, ploc))  # non-ANSI
                    port_order.append(pname)
                if not self._accept(TokKind.OP, ","):
                    break
            self._expect(TokKind.OP, ")")
        self._expect(TokKind.OP, ";")

        nets: list[Net] = []
        assigns: list[ContinuousAssign] = []
        always_blocks: list[Always] = []
        initial_blocks: list[Initial] = []
        instances: list[Instance] = []
        functions: list[Function] = []
        port_by_name = {p.name: i for i, p in enumerate(ports)}

        while not self._kw("endmodule"):
            if self._at(TokKind.EOF):
                raise ParseError(f"unexpected end of file inside module '{name}'", self._peek().loc)
            tok = self._peek()
            if tok.kind is TokKind.KEYWORD and tok.text in ("input", "output", "inout"):
                self._parse_body_ports(ports, port_by_name)
            elif tok.kind is TokKind.KEYWORD and tok.text in ("wire", "reg", "integer", "genvar"):
                nets.extend(self._parse_net_decl())
            elif tok.kind is TokKind.KEYWORD and tok.text in ("parameter", "localparam"):
                local = tok.text == "localparam"
                self._next()
                self._parse_optional_range()
                while True:
                    pname = self._expect(TokKind.IDENT).text
                    self._expect(TokKind.OP, "=")
                    parameters.append(Parameter(pname, self.parse_expr(), local=local))
                    if not self._accept(TokKind.OP, ","):
                        break
                self._expect(TokKind.OP, ";")
            elif self._accept_kw("assign"):
                while True:
                    target = self._parse_lvalue()
                    self._expect(TokKind.OP, "=")
                    assigns.append(ContinuousAssign(target, self.parse_expr(), tok.loc))
                    if not self._accept(TokKind.OP, ","):
                        break
                self._expect(TokKind.OP, ";")
            elif self._accept_kw("always"):
                always_blocks.append(self._parse_always(tok.loc))
            elif self._accept_kw("initial"):
                initial_blocks.append(Initial(self.parse_stmt(), tok.loc))
            elif self._accept_kw("function"):
                functions.append(self._parse_function())
            elif tok.kind is TokKind.KEYWORD and tok.text == "generate":
                raise ParseError("generate blocks are not supported by this subset", tok.loc)
            elif tok.kind is TokKind.IDENT:
                instances.append(self._parse_instance())
            else:
                raise ParseError(f"unexpected token '{tok.text}' in module body", tok.loc)

        self._expect_kw("endmodule")
        return Module(
            name=name,
            ports=tuple(ports),
            parameters=tuple(parameters),
            nets=tuple(nets),
            assigns=tuple(assigns),
            always_blocks=tuple(always_blocks),
            initial_blocks=tuple(initial_blocks),
            instances=tuple(instances),
            functions=tuple(functions),
            loc=loc,
        )

    def _parse_body_ports(self, ports: list[Port], port_by_name: dict[str, int]) -> None:
        """Non-ANSI direction declaration in the module body."""
        direction = self._next().text
        is_reg = self._accept_kw("reg")
        self._accept_kw("wire")
        self._accept_kw("signed")
        rng = self._parse_optional_range()
        while True:
            tok = self._expect(TokKind.IDENT)
            if tok.text not in port_by_name:
                raise ParseError(f"'{tok.text}' declared {direction} but not in port list", tok.loc)
            idx = port_by_name[tok.text]
            ports[idx] = Port(tok.text, direction, rng, is_reg, tok.loc)
            if not self._accept(TokKind.OP, ","):
                break
        self._expect(TokKind.OP, ";")

    def _parse_optional_range(self) -> Range | None:
        if not self._at(TokKind.OP, "["):
            return None
        self._next()
        msb = self.parse_expr()
        self._expect(TokKind.OP, ":")
        lsb = self.parse_expr()
        self._expect(TokKind.OP, "]")
        return Range(msb, lsb)

    def _parse_net_decl(self) -> list[Net]:
        kind = self._next().text
        if kind == "genvar":
            kind = "integer"
        self._accept_kw("signed")
        rng = self._parse_optional_range()
        out: list[Net] = []
        while True:
            tok = self._expect(TokKind.IDENT)
            if self._at(TokKind.OP, "["):
                raise ParseError("memories/arrays are not supported by this subset", tok.loc)
            init = None
            if self._accept(TokKind.OP, "="):
                init = self.parse_expr()
            out.append(Net(tok.text, kind, rng, init, tok.loc))
            if not self._accept(TokKind.OP, ","):
                break
        self._expect(TokKind.OP, ";")
        return out

    def _parse_always(self, loc) -> Always:
        edges: list[tuple[str, str]] = []
        if self._accept(TokKind.OP, "@"):
            if self._accept(TokKind.OP, "*"):
                pass  # @* star form
            else:
                self._expect(TokKind.OP, "(")
                if self._accept(TokKind.OP, "*"):
                    self._expect(TokKind.OP, ")")
                else:
                    while True:
                        kind = "any"
                        if self._accept_kw("posedge"):
                            kind = "posedge"
                        elif self._accept_kw("negedge"):
                            kind = "negedge"
                        sig = self._expect(TokKind.IDENT).text
                        edges.append((kind, sig))
                        if self._accept(TokKind.OP, ",") or self._accept_kw("or"):
                            continue
                        break
                    self._expect(TokKind.OP, ")")
        body = self.parse_stmt()
        return Always(tuple(edges), body, loc)

    def _parse_function(self) -> Function:
        rng = self._parse_optional_range()
        name = self._expect(TokKind.IDENT).text
        args: list[tuple[str, Range | None]] = []
        locals_: list[Net] = []
        if self._accept(TokKind.OP, "("):
            while not self._at(TokKind.OP, ")"):
                self._accept_kw("input")
                arng = self._parse_optional_range()
                args.append((self._expect(TokKind.IDENT).text, arng))
                if not self._accept(TokKind.OP, ","):
                    break
            self._expect(TokKind.OP, ")")
        self._expect(TokKind.OP, ";")
        while self._kw("input") or self._kw("integer") or self._kw("reg"):
            if self._accept_kw("input"):
                arng = self._parse_optional_range()
                while True:
                    args.append((self._expect(TokKind.IDENT).text, arng))
                    if not self._accept(TokKind.OP, ","):
                        break
                self._expect(TokKind.OP, ";")
            else:
                locals_.extend(self._parse_net_decl())
        body = self.parse_stmt()
        self._expect_kw("endfunction")
        return Function(name, rng, tuple(args), tuple(locals_), body)

    def _parse_instance(self) -> Instance:
        loc = self._peek().loc
        module = self._expect(TokKind.IDENT).text
        params: list[tuple[str | None, Expr]] = []
        if self._accept(TokKind.OP, "#"):
            self._expect(TokKind.OP, "(")
            while not self._at(TokKind.OP, ")"):
                if self._accept(TokKind.OP, "."):
                    pname = self._expect(TokKind.IDENT).text
                    self._expect(TokKind.OP, "(")
                    params.append((pname, self.parse_expr()))
                    self._expect(TokKind.OP, ")")
                else:
                    params.append((None, self.parse_expr()))
                if not self._accept(TokKind.OP, ","):
                    break
            self._expect(TokKind.OP, ")")
        name = self._expect(TokKind.IDENT).text
        self._expect(TokKind.OP, "(")
        conns: list[tuple[str | None, Expr | None]] = []
        while not self._at(TokKind.OP, ")"):
            if self._accept(TokKind.OP, "."):
                pname = self._expect(TokKind.IDENT).text
                self._expect(TokKind.OP, "(")
                expr = None if self._at(TokKind.OP, ")") else self.parse_expr()
                self._expect(TokKind.OP, ")")
                conns.append((pname, expr))
            else:
                conns.append((None, self.parse_expr()))
            if not self._accept(TokKind.OP, ","):
                break
        self._expect(TokKind.OP, ")")
        self._expect(TokKind.OP, ";")
        return Instance(module, name, tuple(conns), tuple(params), loc)

    # -- statements --------------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        tok = self._peek()

        if self._accept_kw("begin"):
            if self._accept(TokKind.OP, ":"):
                self._expect(TokKind.IDENT)  # named block label — ignored
            stmts: list[Stmt] = []
            while not self._kw("end"):
                if self._at(TokKind.EOF):
                    raise ParseError("unexpected EOF inside begin/end", tok.loc)
                if self._at(TokKind.KEYWORD, "integer") or self._at(TokKind.KEYWORD, "reg"):
                    raise ParseError("declarations inside begin/end are not supported; "
                                     "declare at module scope", self._peek().loc)
                stmts.append(self.parse_stmt())
            self._expect_kw("end")
            return Block(tuple(stmts))

        if self._accept_kw("if"):
            self._expect(TokKind.OP, "(")
            cond = self.parse_expr()
            self._expect(TokKind.OP, ")")
            then = self.parse_stmt()
            other = self.parse_stmt() if self._accept_kw("else") else None
            return If(cond, then, other)

        if self._kw("case") or self._kw("casez"):
            wildcard = self._next().text == "casez"
            self._expect(TokKind.OP, "(")
            subject = self.parse_expr()
            self._expect(TokKind.OP, ")")
            items: list[CaseItem] = []
            while not self._kw("endcase"):
                if self._accept_kw("default"):
                    self._accept(TokKind.OP, ":")
                    items.append(CaseItem(None, self.parse_stmt()))
                else:
                    labels = [self.parse_expr()]
                    while self._accept(TokKind.OP, ","):
                        labels.append(self.parse_expr())
                    self._expect(TokKind.OP, ":")
                    items.append(CaseItem(tuple(labels), self.parse_stmt()))
            self._expect_kw("endcase")
            return Case(subject, tuple(items), wildcard)

        if self._accept_kw("for"):
            self._expect(TokKind.OP, "(")
            init = self._parse_assignment(require_blocking=True)
            self._expect(TokKind.OP, ";")
            cond = self.parse_expr()
            self._expect(TokKind.OP, ";")
            step = self._parse_assignment(require_blocking=True)
            self._expect(TokKind.OP, ")")
            return For(init, cond, step, self.parse_stmt())

        if self._accept_kw("while"):
            self._expect(TokKind.OP, "(")
            cond = self.parse_expr()
            self._expect(TokKind.OP, ")")
            return While(cond, self.parse_stmt())

        if self._accept_kw("repeat"):
            self._expect(TokKind.OP, "(")
            count = self.parse_expr()
            self._expect(TokKind.OP, ")")
            return Repeat(count, self.parse_stmt())

        if self._accept(TokKind.OP, "#"):
            amount = self._parse_primary()
            if self._accept(TokKind.OP, ";"):
                return Delay(amount, None)
            return Delay(amount, self.parse_stmt())

        if self._accept(TokKind.OP, "@"):
            edges: list[tuple[str, str]] = []
            self._expect(TokKind.OP, "(")
            while True:
                kind = "any"
                if self._accept_kw("posedge"):
                    kind = "posedge"
                elif self._accept_kw("negedge"):
                    kind = "negedge"
                edges.append((kind, self._expect(TokKind.IDENT).text))
                if self._accept(TokKind.OP, ",") or self._accept_kw("or"):
                    continue
                break
            self._expect(TokKind.OP, ")")
            self._accept(TokKind.OP, ";")
            return EventWait(tuple(edges))

        if tok.kind is TokKind.SYSTASK:
            self._next()
            args: list[Expr] = []
            if self._accept(TokKind.OP, "("):
                while not self._at(TokKind.OP, ")"):
                    if self._at(TokKind.STRING):
                        args.append(StringLit(self._next().value))
                    else:
                        args.append(self.parse_expr())
                    if not self._accept(TokKind.OP, ","):
                        break
                self._expect(TokKind.OP, ")")
            self._expect(TokKind.OP, ";")
            return SysTask(tok.text, tuple(args), tok.loc)

        if self._accept(TokKind.OP, ";"):
            return Block(())

        stmt = self._parse_assignment()
        self._expect(TokKind.OP, ";")
        return stmt

    def _parse_lvalue(self) -> LValue:
        if self._at(TokKind.OP, "{"):
            raise ParseError("concatenation lvalues are not supported by this subset",
                             self._peek().loc)
        tok = self._expect(TokKind.IDENT)
        if self._accept(TokKind.OP, "["):
            first = self.parse_expr()
            if self._accept(TokKind.OP, ":"):
                lsb = self.parse_expr()
                self._expect(TokKind.OP, "]")
                return LValue(tok.text, None, first, lsb, tok.loc)
            self._expect(TokKind.OP, "]")
            return LValue(tok.text, first, None, None, tok.loc)
        return LValue(tok.text, None, None, None, tok.loc)

    def _parse_assignment(self, require_blocking: bool = False) -> Assign:
        loc = self._peek().loc
        target = self._parse_lvalue()
        if self._accept(TokKind.OP, "="):
            blocking = True
        elif not require_blocking and self._accept(TokKind.OP, "<="):
            blocking = False
        else:
            tok = self._peek()
            raise ParseError(f"expected assignment operator, found '{tok.text}'", tok.loc)
        return Assign(target, self.parse_expr(), blocking, loc)

    # -- expressions ----------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(1)
        if self._accept(TokKind.OP, "?"):
            if_true = self._parse_ternary()
            self._expect(TokKind.OP, ":")
            if_false = self._parse_ternary()
            return Ternary(cond, if_true, if_false)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind is not TokKind.OP:
                return left
            prec = _PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self._next()
            op = {"<<<": "<<", ">>>": ">>", "===": "==", "!==": "!="}.get(tok.text, tok.text)
            right = self._parse_binary(prec + 1)
            left = Binary(op, left, right)

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokKind.OP and tok.text in _UNARY_OPS:
            self._next()
            return Unary(tok.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self._peek()

        if tok.kind is TokKind.NUMBER:
            self._next()
            return Number(32, tok.value)
        if tok.kind is TokKind.SIZED_NUMBER:
            self._next()
            width, value, xmask = tok.value
            return Number(width, value, xmask, sized=True)
        if tok.kind is TokKind.STRING:
            self._next()
            return StringLit(tok.value)
        if tok.kind is TokKind.SYSTASK:
            self._next()
            args: list[Expr] = []
            if self._accept(TokKind.OP, "("):
                while not self._at(TokKind.OP, ")"):
                    args.append(self.parse_expr())
                    if not self._accept(TokKind.OP, ","):
                        break
                self._expect(TokKind.OP, ")")
            return SystemCall(tok.text, tuple(args))
        if self._accept(TokKind.OP, "("):
            inner = self.parse_expr()
            self._expect(TokKind.OP, ")")
            return inner
        if self._accept(TokKind.OP, "{"):
            first = self.parse_expr()
            if self._accept(TokKind.OP, "{"):
                # Replication {N{expr}}
                inner = self.parse_expr()
                self._expect(TokKind.OP, "}")
                self._expect(TokKind.OP, "}")
                return Replicate(first, inner)
            parts = [first]
            while self._accept(TokKind.OP, ","):
                parts.append(self.parse_expr())
            self._expect(TokKind.OP, "}")
            return Concat(tuple(parts))
        if tok.kind is TokKind.IDENT:
            self._next()
            if self._accept(TokKind.OP, "("):
                args = []
                while not self._at(TokKind.OP, ")"):
                    args.append(self.parse_expr())
                    if not self._accept(TokKind.OP, ","):
                        break
                self._expect(TokKind.OP, ")")
                return FunctionCall(tok.text, tuple(args), tok.loc)
            if self._accept(TokKind.OP, "["):
                first = self.parse_expr()
                if self._accept(TokKind.OP, ":"):
                    lsb = self.parse_expr()
                    self._expect(TokKind.OP, "]")
                    return Slice(tok.text, first, lsb, tok.loc)
                self._expect(TokKind.OP, "]")
                return Index(tok.text, first, tok.loc)
            return Identifier(tok.text, tok.loc)

        raise ParseError(f"unexpected token '{tok.text or 'EOF'}' in expression", tok.loc)


def parse(source: str) -> SourceFile:
    """Parse mini-Verilog source into a :class:`SourceFile`."""
    return Parser(source).parse_source()


def parse_module(source: str, name: str | None = None) -> Module:
    """Parse source and return one module (the named one, or the only one)."""
    sf = parse(source)
    if name is not None:
        if name not in sf.modules:
            raise ParseError(f"module '{name}' not found in source")
        return sf.modules[name]
    if len(sf.modules) != 1:
        raise ParseError(f"expected exactly one module, found {len(sf.modules)}")
    return next(iter(sf.modules.values()))
