package query

import "repro/internal/sink"

// parser is a recursive-descent parser over the lexer's token stream with
// one token of lookahead.
type parser struct {
	lex *lexer
	src string
	tok token // current token
	err *Error
}

// Parse parses one rule. The returned error, if any, is a *Error carrying the
// 1-based line/column of the offending token.
func Parse(src string) (*Query, error) {
	p := &parser{lex: newLexer(src), src: src}
	p.next()
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	q.Src = src
	return q, nil
}

// next advances to the following token; lexical errors latch into p.err and
// surface at the next expectation check.
func (p *parser) next() {
	if p.err != nil {
		return
	}
	tok, err := p.lex.next()
	if err != nil {
		p.err = err
		p.tok = token{kind: tokEOF, pos: err.Pos}
		return
	}
	p.tok = tok
}

// errf builds a positioned error unless a lexical error already latched.
func (p *parser) errf(pos Pos, format string, args ...any) *Error {
	if p.err != nil {
		return p.err
	}
	return errf(p.src, pos, format, args...)
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokKind, what string) (token, *Error) {
	if p.err != nil {
		return token{}, p.err
	}
	if p.tok.kind != kind {
		return token{}, p.errf(p.tok.pos, "unexpected %s, expected %s", p.tok.describe(), what)
	}
	tok := p.tok
	p.next()
	return tok, nil
}

// parseQuery parses `head :- clause {, clause} [.]` to end of input.
func (p *parser) parseQuery() (*Query, *Error) {
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokImplies, "':-'"); err != nil {
		return nil, err
	}
	q := &Query{Head: *head}
	for {
		clause, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		q.Body = append(q.Body, clause)
		if p.tok.kind != tokComma {
			break
		}
		p.next()
	}
	if p.tok.kind == tokDot {
		p.next()
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf(p.tok.pos, "unexpected %s after the rule", p.tok.describe())
	}
	return q, nil
}

// parseClause dispatches on the leading token: `|` starts a band predicate,
// `agg` an aggregate, an identifier a pattern atom, and a variable or number
// a comparison.
func (p *parser) parseClause() (Clause, *Error) {
	if p.err != nil {
		return nil, p.err
	}
	switch p.tok.kind {
	case tokPipe:
		return p.parseBand()
	case tokIdent:
		if p.tok.text == "agg" {
			return p.parseAgg()
		}
		return p.parseAtom()
	case tokVar, tokNumber:
		return p.parseCompare()
	default:
		return nil, p.errf(p.tok.pos,
			"unexpected %s, expected a pattern, comparison, band predicate or aggregate", p.tok.describe())
	}
}

// parseAtom parses `ident(term {, term})`.
func (p *parser) parseAtom() (*Atom, *Error) {
	name, err := p.expect(tokIdent, "a relation name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	a := &Atom{Name: name.text, Pos: name.pos}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		a.Args = append(a.Args, t)
		if p.tok.kind != tokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return a, nil
}

// parseTerm parses a variable, wildcard or number.
func (p *parser) parseTerm() (Term, *Error) {
	if p.err != nil {
		return Term{}, p.err
	}
	tok := p.tok
	switch tok.kind {
	case tokVar:
		p.next()
		return Term{Kind: TermVar, Name: tok.text, Pos: tok.pos}, nil
	case tokWildcard:
		p.next()
		return Term{Kind: TermWildcard, Pos: tok.pos}, nil
	case tokNumber:
		p.next()
		return Term{Kind: TermNumber, Num: tok.num, Pos: tok.pos}, nil
	default:
		return Term{}, p.errf(tok.pos, "unexpected %s, expected a variable, '_' or a number", tok.describe())
	}
}

// parseOperand parses a comparison operand: a variable or number.
func (p *parser) parseOperand() (Term, *Error) {
	if p.err != nil {
		return Term{}, p.err
	}
	tok := p.tok
	switch tok.kind {
	case tokVar:
		p.next()
		return Term{Kind: TermVar, Name: tok.text, Pos: tok.pos}, nil
	case tokNumber:
		p.next()
		return Term{Kind: TermNumber, Num: tok.num, Pos: tok.pos}, nil
	default:
		return Term{}, p.errf(tok.pos, "unexpected %s, expected a variable or a number", tok.describe())
	}
}

// cmpOpOf maps a token to its comparison operator.
func cmpOpOf(kind tokKind) (CmpOp, bool) {
	switch kind {
	case tokEQ:
		return OpEQ, true
	case tokNE:
		return OpNE, true
	case tokLT:
		return OpLT, true
	case tokLE:
		return OpLE, true
	case tokGT:
		return OpGT, true
	case tokGE:
		return OpGE, true
	default:
		return 0, false
	}
}

// parseCompare parses `operand op operand`.
func (p *parser) parseCompare() (*Compare, *Error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	op, ok := cmpOpOf(p.tok.kind)
	if !ok {
		return nil, p.errf(p.tok.pos, "unexpected %s, expected a comparison operator", p.tok.describe())
	}
	pos := p.tok.pos
	p.next()
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &Compare{Left: left, Op: op, Right: right, Pos: pos}, nil
}

// parseBand parses `|Var - Var| <= number`.
func (p *parser) parseBand() (*Band, *Error) {
	open, err := p.expect(tokPipe, "'|'")
	if err != nil {
		return nil, err
	}
	x, err := p.expect(tokVar, "a variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokMinus, "'-'"); err != nil {
		return nil, err
	}
	y, err := p.expect(tokVar, "a variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPipe, "'|'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLE, "'<='"); err != nil {
		return nil, err
	}
	w, err := p.expect(tokNumber, "a number")
	if err != nil {
		return nil, err
	}
	return &Band{
		X:     Term{Kind: TermVar, Name: x.text, Pos: x.pos},
		Y:     Term{Kind: TermVar, Name: y.text, Pos: y.pos},
		Width: Term{Kind: TermNumber, Num: w.num, Pos: w.pos},
		Pos:   open.pos,
	}, nil
}

// parseAgg parses `agg fn(Var | *)`.
func (p *parser) parseAgg() (*Agg, *Error) {
	kw, err := p.expect(tokIdent, "'agg'")
	if err != nil {
		return nil, err
	}
	fn, err := p.expect(tokIdent, "an aggregate function (sum, min, max, count)")
	if err != nil {
		return nil, err
	}
	var f sink.Agg
	switch fn.text {
	case "sum":
		f = sink.AggSum
	case "min":
		f = sink.AggMin
	case "max":
		f = sink.AggMax
	case "count":
		f = sink.AggCount
	default:
		return nil, p.errf(fn.pos, "unknown aggregate %q (sum, min, max, count)", fn.text)
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var arg Term
	switch p.tok.kind {
	case tokStar, tokWildcard:
		arg = Term{Kind: TermWildcard, Pos: p.tok.pos}
		p.next()
	case tokVar:
		arg = Term{Kind: TermVar, Name: p.tok.text, Pos: p.tok.pos}
		p.next()
	default:
		return nil, p.errf(p.tok.pos, "unexpected %s, expected a variable or '*'", p.tok.describe())
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return &Agg{Func: f, Arg: arg, Pos: kw.pos}, nil
}
