package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sink"
)

// TermKind is the kind of one atom argument or comparison operand.
type TermKind int

const (
	// TermVar is a variable (uppercase- or underscore-led identifier).
	TermVar TermKind = iota
	// TermNumber is an unsigned integer constant.
	TermNumber
	// TermWildcard is the anonymous variable `_` (or `*` in count(*)).
	TermWildcard
)

// Term is one argument of an atom, comparison or aggregate.
type Term struct {
	Kind TermKind
	Name string // TermVar: the variable name
	Num  uint64 // TermNumber: the constant
	Pos  Pos
}

// String renders the term canonically.
func (t Term) String() string {
	switch t.Kind {
	case TermVar:
		return t.Name
	case TermNumber:
		return strconv.FormatUint(t.Num, 10)
	default:
		return "_"
	}
}

// Clause is one body element of a rule: *Atom, *Compare, *Band or *Agg.
type Clause interface {
	fmt.Stringer
	clausePos() Pos
}

// Atom is a pattern rel(Key, Payload) — or the rule head.
type Atom struct {
	Name string
	Args []Term
	Pos  Pos
}

func (a *Atom) clausePos() Pos { return a.Pos }

// String renders the atom canonically.
func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Name + "(" + strings.Join(parts, ", ") + ")"
}

// CmpOp is a comparison operator.
type CmpOp int

const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String renders the operator canonically (`=` for equality).
func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// flip mirrors the operator so that `c op X` becomes `X (flip op) c`.
func (op CmpOp) flip() CmpOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default: // = and != are symmetric
		return op
	}
}

// Eval applies the operator to (v, c).
func (op CmpOp) Eval(v, c uint64) bool {
	switch op {
	case OpEQ:
		return v == c
	case OpNE:
		return v != c
	case OpLT:
		return v < c
	case OpLE:
		return v <= c
	case OpGT:
		return v > c
	default:
		return v >= c
	}
}

// Compare is a comparison clause between a variable and a constant.
type Compare struct {
	Left  Term
	Op    CmpOp
	Right Term
	Pos   Pos
}

func (c *Compare) clausePos() Pos { return c.Pos }

// String renders the comparison canonically.
func (c *Compare) String() string {
	// Canonical form puts the variable first: "10 <= K" renders as
	// "K >= 10", so equivalent spellings share one canonical text (and one
	// plan-cache entry).
	if c.Left.Kind == TermNumber && c.Right.Kind == TermVar {
		return fmt.Sprintf("%s %s %s", c.Right, c.Op.flip(), c.Left)
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// Band is a band predicate |X - Y| <= Width over two key variables.
type Band struct {
	X, Y  Term
	Width Term
	Pos   Pos
}

func (b *Band) clausePos() Pos { return b.Pos }

// String renders the band predicate canonically.
func (b *Band) String() string {
	return fmt.Sprintf("|%s - %s| <= %s", b.X, b.Y, b.Width)
}

// Agg is an aggregate clause `agg f(V)`; a TermWildcard argument is count(*).
// Func is the executor's aggregate, whose String is the function's name in
// the query text.
type Agg struct {
	Func sink.Agg
	Arg  Term
	Pos  Pos
}

func (a *Agg) clausePos() Pos { return a.Pos }

// String renders the aggregate canonically (wildcard arguments as `*`).
func (a *Agg) String() string {
	arg := a.Arg.String()
	if a.Arg.Kind == TermWildcard {
		arg = "*"
	}
	return fmt.Sprintf("agg %s(%s)", a.Func, arg)
}

// Query is one parsed rule.
type Query struct {
	Head Atom
	Body []Clause
	// Src is the original source, kept so semantic errors can annotate it.
	Src string
}

// String renders the rule in canonical form — normalized spacing, `=` for
// equality, a trailing period — which re-parses to an identical AST. The
// canonical form is the normalized text that keys the service plan cache.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Head.String())
	b.WriteString(" :- ")
	for i, c := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteByte('.')
	return b.String()
}
