package query

import (
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/sink"
)

// Resolver maps a relation name to the relation it denotes.
type Resolver func(name string) (*relation.Relation, bool)

// Cmp is one residual comparison a scan evaluates as an opaque predicate:
// key or payload against a constant.
type Cmp struct {
	Op    CmpOp
	Const uint64
	OnKey bool
}

// Compiled is a query compiled to the executor's operator DAG.
type Compiled struct {
	// Query is the parsed rule.
	Query *Query
	// Text is the canonical pretty-printed form of the rule: the normalized
	// query text that keys the service plan cache.
	Text string
	// HeadName and Columns name the output relation and its two columns.
	HeadName string
	Columns  [2]string
	// Plan is the operator DAG; its last node is the root. A join node
	// carries only its band width (JoinOptions.Band, 0 for an equi-join):
	// the caller configures everything else about the join.
	Plan *exec.Plan
}

// Compile parses and compiles one rule against the resolver.
func Compile(src string, resolve Resolver) (*Compiled, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileQuery(q, resolve)
}

// atomInfo is one resolved pattern.
type atomInfo struct {
	atom    *Atom
	rel     *relation.Relation
	keyVar  string
	payload Term
	// meta facts, derived from rel.Meta: schema-encoded at all, and if so
	// whether the uint64 prefix is exact or a tie-break prefix.
	schema bool
	exact  bool
	sig    string
}

// varBinding records where a variable is bound.
type varBinding struct {
	// key lists the indices of atoms binding the variable in key position.
	key []int
	// payload is the index of the atom binding it in payload position (-1).
	payload int
	pos     Pos
}

// compiler carries the state of one compilation.
type compiler struct {
	q       *Query
	resolve Resolver
	atoms   []*atomInfo
	cmps    []*Compare
	band    *Band
	agg     *Agg
	vars    map[string]*varBinding
}

// errf builds a positioned semantic error against the query source.
func (c *compiler) errf(pos Pos, format string, args ...any) error {
	return errf(c.q.Src, pos, format, args...)
}

// CompileQuery compiles a parsed rule against the resolver. Semantic errors
// are *Error values positioned at the offending clause or term.
func CompileQuery(q *Query, resolve Resolver) (*Compiled, error) {
	c := &compiler{q: q, resolve: resolve, vars: map[string]*varBinding{}}
	ranges, residual, err := c.analyze()
	if err != nil {
		return nil, err
	}
	p, err := c.emit(ranges, residual)
	if err != nil {
		return nil, err
	}
	out := &Compiled{
		Query:    q,
		Text:     q.String(),
		HeadName: q.Head.Name,
		Plan:     p,
	}
	for i, t := range q.Head.Args {
		out.Columns[i] = t.Name
	}
	return out, nil
}

// analyze validates the rule, orders its patterns and resolves its
// comparisons onto the scans: the key range and the residual comparisons of
// each pattern, indexed in join order.
func (c *compiler) analyze() (map[int]*exec.KeyRange, map[int][]Cmp, error) {
	if err := c.collect(); err != nil {
		return nil, nil, err
	}
	if err := c.checkJoinKeys(); err != nil {
		return nil, nil, err
	}
	if err := c.checkMeta(); err != nil {
		return nil, nil, err
	}
	c.placeProjected()
	return c.compileComparisons()
}

// collect splits the body into atoms/comparisons/band/aggregate, resolves
// every pattern against the resolver and builds the variable binding table.
func (c *compiler) collect() error {
	for _, cl := range c.q.Body {
		switch cl := cl.(type) {
		case *Atom:
			if err := c.addAtom(cl); err != nil {
				return err
			}
		case *Compare:
			c.cmps = append(c.cmps, cl)
		case *Band:
			if c.band != nil {
				return c.errf(cl.Pos, "at most one band predicate is supported")
			}
			c.band = cl
		case *Agg:
			if c.agg != nil {
				return c.errf(cl.Pos, "at most one aggregate clause is supported")
			}
			c.agg = cl
		}
	}
	if len(c.atoms) == 0 {
		return c.errf(c.q.Head.Pos, "a query needs at least one pattern in its body")
	}
	if len(c.q.Head.Args) != 2 {
		return c.errf(c.q.Head.Pos, "the head takes exactly two arguments (key, value), got %d", len(c.q.Head.Args))
	}
	for _, t := range c.q.Head.Args {
		if t.Kind != TermVar {
			return c.errf(t.Pos, "head arguments must be variables")
		}
	}
	return nil
}

// addAtom resolves one pattern and registers its variable bindings.
func (c *compiler) addAtom(a *Atom) error {
	rel, ok := c.resolve(a.Name)
	if !ok || rel == nil {
		return c.errf(a.Pos, "unknown relation %q", a.Name)
	}
	if len(a.Args) != 2 {
		return c.errf(a.Pos, "pattern %s takes (key, payload), got %d arguments", a.Name, len(a.Args))
	}
	key, payload := a.Args[0], a.Args[1]
	switch key.Kind {
	case TermVar:
	case TermNumber:
		return c.errf(key.Pos, "the key position of %s must be a variable; constrain it with a comparison (e.g. K = %d)", a.Name, key.Num)
	default:
		return c.errf(key.Pos, "the key position of %s must be a variable, not a wildcard", a.Name)
	}
	info := &atomInfo{atom: a, rel: rel, keyVar: key.Name, payload: payload}
	if rel.Meta != nil {
		info.schema = true
		info.exact = rel.Meta.Exact()
		info.sig = rel.Meta.Signature()
	}
	idx := len(c.atoms)
	c.atoms = append(c.atoms, info)

	kb := c.binding(key.Name, key.Pos)
	if kb.payload >= 0 {
		return c.errf(key.Pos, "variable %s is already a payload of %s; a variable cannot name both a key and a payload",
			key.Name, c.atoms[kb.payload].atom.Name)
	}
	kb.key = append(kb.key, idx)

	if payload.Kind == TermVar {
		pb := c.binding(payload.Name, payload.Pos)
		if len(pb.key) > 0 {
			return c.errf(payload.Pos, "variable %s is already a key of %s; a variable cannot name both a key and a payload",
				payload.Name, c.atoms[pb.key[0]].atom.Name)
		}
		if pb.payload >= 0 {
			return c.errf(payload.Pos, "variable %s is already the payload of %s; joins match keys, not payloads",
				payload.Name, c.atoms[pb.payload].atom.Name)
		}
		pb.payload = idx
	}
	return nil
}

// binding returns (creating if needed) the binding record of a variable.
func (c *compiler) binding(name string, pos Pos) *varBinding {
	b, ok := c.vars[name]
	if !ok {
		b = &varBinding{payload: -1, pos: pos}
		c.vars[name] = b
	}
	return b
}

// checkJoinKeys enforces the join structure: without a band predicate, every
// pattern shares one key variable (the equi-join key); with one, exactly two
// patterns with distinct key variables linked by the band's endpoints.
func (c *compiler) checkJoinKeys() error {
	if c.band == nil {
		want := c.atoms[0].keyVar
		for _, a := range c.atoms[1:] {
			if a.keyVar != want {
				return c.errf(a.atom.Args[0].Pos,
					"pattern %s has key variable %s but %s joins on %s; MPSM joins are equi-joins, so all patterns must share one key variable (or use a band predicate |%s - %s| <= c)",
					a.atom.Name, a.keyVar, c.atoms[0].atom.Name, want, want, a.keyVar)
			}
		}
		return nil
	}
	if len(c.atoms) != 2 {
		return c.errf(c.band.Pos, "a band predicate joins exactly two patterns, got %d", len(c.atoms))
	}
	x, y := c.band.X.Name, c.band.Y.Name
	if x == y {
		return c.errf(c.band.Y.Pos, "band endpoints must be distinct variables")
	}
	k0, k1 := c.atoms[0].keyVar, c.atoms[1].keyVar
	if k0 == k1 {
		return c.errf(c.band.Pos, "the two patterns already share key variable %s; a band predicate needs distinct key variables", k0)
	}
	if !(x == k0 && y == k1) && !(x == k1 && y == k0) {
		return c.errf(c.band.Pos, "band endpoints must be the key variables of the two patterns (%s and %s)", k0, k1)
	}
	// The head key names the output key, which is the build (left) pattern's
	// key; put that pattern first.
	headKey := c.q.Head.Args[0].Name
	switch headKey {
	case k0:
	case k1:
		c.atoms[0], c.atoms[1] = c.atoms[1], c.atoms[0]
		c.rebind()
	default:
		return c.errf(c.q.Head.Args[0].Pos,
			"the head key of a band query must be one of the patterns' key variables (%s or %s), got %s", k0, k1, headKey)
	}
	return nil
}

// rebind recomputes the variable bindings' atom indices after the atom order
// changed (band orientation, projected-pattern placement).
func (c *compiler) rebind() {
	for _, b := range c.vars {
		b.key = b.key[:0]
		b.payload = -1
	}
	for i, a := range c.atoms {
		kb := c.vars[a.keyVar]
		kb.key = append(kb.key, i)
		if a.payload.Kind == TermVar {
			c.vars[a.payload.Name].payload = i
		}
	}
}

// checkMeta enforces the schema-key composition rules at compile time, with
// positions, instead of letting the executor reject the compiled plan.
func (c *compiler) checkMeta() error {
	var sig string
	var sigAtom *atomInfo
	for _, a := range c.atoms {
		if !a.schema {
			continue
		}
		if c.band != nil {
			return c.errf(a.atom.Pos,
				"band predicates require raw integer keys; %s is schema-encoded (%s) and its normalized key bytes do not measure distance", a.atom.Name, a.sig)
		}
		if sig == "" {
			sig, sigAtom = a.sig, a
		} else if a.sig != sig {
			return c.errf(a.atom.Pos, "patterns %s and %s join on different key schemas ([%s] vs [%s])",
				sigAtom.atom.Name, a.atom.Name, sig, a.sig)
		}
		if a.exact {
			continue
		}
		// Tie-break (inexact) relations: their uint64 keys are prefixes and
		// their payloads are internal row indices, so they are only readable
		// through a single verifying join.
		if len(c.atoms) == 1 {
			return c.errf(a.atom.Pos,
				"pattern %s reads a tie-break (inexact-key) relation outside a join; its payloads are internal row indices — join it against another pattern", a.atom.Name)
		}
		if len(c.atoms) > 2 {
			return c.errf(a.atom.Pos,
				"tie-break relation %s supports a single two-way join; a third pattern would join over unverifiable prefix keys", a.atom.Name)
		}
		if c.agg != nil {
			return c.errf(c.agg.Pos,
				"aggregates over tie-break relation %s are not supported (grouping by the key prefix would merge distinct groups)", a.atom.Name)
		}
		if a.payload.Kind == TermNumber {
			return c.errf(a.payload.Pos,
				"the payloads of tie-break relation %s are internal row indices; payload constants are not supported", a.atom.Name)
		}
	}
	return nil
}

// projectedVar is the payload variable whose value the query emits: the agg
// argument for sum/min/max, otherwise the head's value variable when it is a
// payload. Empty when the query emits the default pair projection, the key,
// or a count.
func (c *compiler) projectedVar() string {
	if c.agg != nil {
		if c.agg.Func != sink.AggCount && c.agg.Arg.Kind == TermVar {
			return c.agg.Arg.Name
		}
		return ""
	}
	name := c.q.Head.Args[1].Name
	if b := c.bound(name); b != nil && b.payload >= 0 {
		return name
	}
	return ""
}

// bound returns the binding of a variable some pattern binds, or nil.
func (c *compiler) bound(name string) *varBinding {
	if b, ok := c.vars[name]; ok && (len(b.key) > 0 || b.payload >= 0) {
		return b
	}
	return nil
}

// placeProjected moves the pattern supplying the projected payload to the
// end of the join chain, where its payload is still addressable above the
// top join. Inner equi-joins are commutative and associative over the shared
// key, so the move never changes the result multiset (and the cost-based
// optimizer reorders the chain again anyway). An unbound variable stays
// where it is for emitAggregate to report.
func (c *compiler) placeProjected() {
	if c.band != nil || len(c.atoms) < 3 {
		return
	}
	b := c.bound(c.projectedVar())
	if b == nil || b.payload < 0 || b.payload == len(c.atoms)-1 {
		return
	}
	moved := c.atoms[b.payload]
	c.atoms = append(c.atoms[:b.payload], c.atoms[b.payload+1:]...)
	c.atoms = append(c.atoms, moved)
	c.rebind()
}

// scanFilter accumulates the filters of one scan.
type scanFilter struct {
	rng  *exec.KeyRange
	cmps []Cmp
}

// keyBounds folds a key variable's comparisons into one half-open range.
type keyBounds struct {
	lo, hi       uint64
	loSet, hiSet bool
	empty        bool
	residual     []Cmp
}

// add folds one comparison into the bounds; unfoldable ones stay residual.
func (b *keyBounds) add(op CmpOp, k uint64) {
	switch op {
	case OpGE:
		if !b.loSet || k > b.lo {
			b.lo, b.loSet = k, true
		}
	case OpGT:
		if k == math.MaxUint64 {
			b.empty = true
			return
		}
		if !b.loSet || k+1 > b.lo {
			b.lo, b.loSet = k+1, true
		}
	case OpLT:
		if !b.hiSet || k < b.hi {
			b.hi, b.hiSet = k, true
		}
	case OpLE:
		if k == math.MaxUint64 {
			return // always true for uint64 keys
		}
		if !b.hiSet || k+1 < b.hi {
			b.hi, b.hiSet = k+1, true
		}
	case OpEQ:
		if k == math.MaxUint64 {
			// [k, k+1) is unrepresentable in a half-open uint64 range.
			b.residual = append(b.residual, Cmp{Op: OpEQ, Const: k, OnKey: true})
			return
		}
		b.add(OpGE, k)
		b.add(OpLT, k+1)
	case OpNE:
		b.residual = append(b.residual, Cmp{Op: OpNE, Const: k, OnKey: true})
	}
}

// filters converts the folded bounds into a scan's range + residual form.
// A fully bounded interval becomes a branch-free KeyRange; a half-bounded one
// stays an opaque predicate (the executor's KeyRange is half-open over uint64
// and cannot express "everything above k" including MaxUint64).
func (b *keyBounds) filters() scanFilter {
	if b.empty {
		return scanFilter{rng: &exec.KeyRange{}}
	}
	f := scanFilter{cmps: b.residual}
	switch {
	case b.loSet && b.hiSet:
		hi := b.hi
		if hi < b.lo {
			hi = b.lo // empty range, normalized
		}
		f.rng = &exec.KeyRange{Low: b.lo, High: hi}
	case b.loSet:
		f.cmps = append(f.cmps, Cmp{Op: OpGE, Const: b.lo, OnKey: true})
	case b.hiSet:
		f.cmps = append(f.cmps, Cmp{Op: OpLT, Const: b.hi, OnKey: true})
	}
	return f
}

// compileComparisons resolves every comparison clause onto the scans it
// filters: key-variable comparisons fold into per-variable ranges applied to
// every pattern binding that variable, payload comparisons (and payload
// constants) become per-scan residual predicates.
func (c *compiler) compileComparisons() (map[int]*exec.KeyRange, map[int][]Cmp, error) {
	bounds := map[string]*keyBounds{}
	residual := map[int][]Cmp{}

	for _, cmp := range c.cmps {
		v, op, k, err := c.normalizeCompare(cmp)
		if err != nil {
			return nil, nil, err
		}
		b := c.vars[v.Name]
		switch {
		case len(b.key) > 0:
			for _, i := range b.key {
				if c.atoms[i].schema {
					return nil, nil, c.errf(cmp.Pos,
						"comparisons on %s are not supported: it is the schema-encoded key of %s, and normalized key bytes do not compare as integers",
						v.Name, c.atoms[i].atom.Name)
				}
			}
			kb, ok := bounds[v.Name]
			if !ok {
				kb = &keyBounds{}
				bounds[v.Name] = kb
			}
			kb.add(op, k)
		default:
			i := b.payload
			a := c.atoms[i]
			if a.schema && !a.exact {
				return nil, nil, c.errf(cmp.Pos,
					"comparisons on %s are not supported: the payloads of tie-break relation %s are internal row indices",
					v.Name, a.atom.Name)
			}
			residual[i] = append(residual[i], Cmp{Op: op, Const: k})
		}
	}

	// Payload constants in patterns are equality filters.
	for i, a := range c.atoms {
		if a.payload.Kind == TermNumber {
			residual[i] = append(residual[i], Cmp{Op: OpEQ, Const: a.payload.Num})
		}
	}

	ranges := map[int]*exec.KeyRange{}
	for name, kb := range bounds {
		f := kb.filters()
		for _, i := range c.vars[name].key {
			if f.rng != nil {
				ranges[i] = f.rng
			}
			residual[i] = append(residual[i], f.cmps...)
		}
	}
	return ranges, residual, nil
}

// normalizeCompare orients a comparison as (variable, op, constant) and
// checks that the variable is bound by a pattern.
func (c *compiler) normalizeCompare(cmp *Compare) (Term, CmpOp, uint64, error) {
	l, r := cmp.Left, cmp.Right
	op := cmp.Op
	if l.Kind == TermNumber && r.Kind == TermVar {
		l, r = r, l
		op = op.flip()
	}
	if l.Kind != TermVar || r.Kind != TermNumber {
		if l.Kind == TermVar && r.Kind == TermVar {
			return Term{}, 0, 0, c.errf(cmp.Pos,
				"comparisons between two variables are not supported; join on a shared key variable or use a band predicate")
		}
		return Term{}, 0, 0, c.errf(cmp.Pos, "a comparison needs one variable and one constant")
	}
	if _, ok := c.vars[l.Name]; !ok {
		if c.agg != nil && l.Name == c.q.Head.Args[1].Name {
			return Term{}, 0, 0, c.errf(l.Pos,
				"comparisons on the aggregate result %s are not supported (there is no HAVING); filter the inputs instead", l.Name)
		}
		return Term{}, 0, 0, c.errf(l.Pos, "comparison references unbound variable %s", l.Name)
	}
	return l, op, r.Num, nil
}

// emit writes the validated rule into an executor plan: one scan per
// pattern, a left-deep join chain over them in pattern order, then the
// head's shaping above the top join (or the single scan).
func (c *compiler) emit(ranges map[int]*exec.KeyRange, residual map[int][]Cmp) (*exec.Plan, error) {
	p := new(exec.Plan)
	for i, a := range c.atoms {
		p.AddScanRange(a.rel, ranges[i], cmpPredicate(residual[i]))
	}
	root := exec.NodeID(0)
	if len(c.atoms) > 1 {
		var band core.Options
		if c.band != nil {
			band.Band = c.band.Width.Num
		}
		root = p.AddJoin(0, 1, exec.AlgorithmPMPSM, band, core.DiskOptions{})
		for i := 2; i < len(c.atoms); i++ {
			root = p.AddJoin(root, exec.NodeID(i), exec.AlgorithmPMPSM, core.Options{}, core.DiskOptions{})
		}
	}
	if err := c.emitHead(p, root); err != nil {
		return nil, err
	}
	return p, nil
}

// emitHead appends the head shaping — the value column, or the aggregation —
// above root.
func (c *compiler) emitHead(p *exec.Plan, root exec.NodeID) error {
	headKey, headVal := c.q.Head.Args[0], c.q.Head.Args[1]
	keyVar := c.atoms[0].keyVar // equi: the shared key; band: the build key

	if headKey.Name != keyVar {
		if c.band != nil {
			return c.errf(headKey.Pos,
				"the head key of a band query must be a pattern key variable, got %s", headKey.Name)
		}
		return c.errf(headKey.Pos,
			"the head key must be the join key variable %s, got %s", keyVar, headKey.Name)
	}
	if c.agg != nil {
		return c.emitAggregate(p, root, headVal)
	}
	if c.bound(headVal.Name) == nil {
		return c.errf(headVal.Pos, "head variable %s is not bound by any pattern", headVal.Name)
	}
	_, err := c.emitValue(p, root, headVal)
	return err
}

// emitAggregate appends the aggregate: count aggregates the join's pair
// stream (or the scan) directly; sum/min/max aggregate the value column of
// their argument.
func (c *compiler) emitAggregate(p *exec.Plan, root exec.NodeID, headVal Term) error {
	if c.bound(headVal.Name) != nil {
		return c.errf(headVal.Pos,
			"head variable %s is already bound in the body; with an aggregate the head's second argument is a fresh variable naming the aggregate result", headVal.Name)
	}
	agg := c.agg
	switch {
	case agg.Func == sink.AggCount:
		if agg.Arg.Kind == TermVar && c.bound(agg.Arg.Name) == nil {
			return c.errf(agg.Arg.Pos, "count references unbound variable %s", agg.Arg.Name)
		}
	case agg.Arg.Kind != TermVar:
		return c.errf(agg.Arg.Pos, "%s takes a payload variable (only count takes *)", agg.Func)
	case c.bound(agg.Arg.Name) == nil:
		return c.errf(agg.Arg.Pos, "%s references unbound variable %s", agg.Func, agg.Arg.Name)
	default:
		var err error
		if root, err = c.emitValue(p, root, agg.Arg); err != nil {
			return err
		}
	}
	p.AddGroupAggregate(root, agg.Func)
	return nil
}

// emitValue makes the bound variable v the value column above root and
// returns the node that produces it. A single pattern's payload is the
// scan's own, and its key takes a key-as-payload Map; above a join, a
// projection names the build or probe side's key or payload (the output key
// is always the build key). The projections go into the plan by name, so the
// group-by kernel folds whole match ranges over them, and they pin the
// optimizer's build/probe choice for the join, so the addressed side stays
// the addressed side under auto-planning. Aggregating the key per key group
// is degenerate (every group aggregates copies of its own key) but
// well-defined.
func (c *compiler) emitValue(p *exec.Plan, root exec.NodeID, v Term) (exec.NodeID, error) {
	b := c.vars[v.Name]
	single := len(c.atoms) == 1
	if len(b.key) > 0 {
		switch {
		case single:
			return p.AddMap(root, keyAsPayload), nil
		case c.band != nil && v.Name == c.atoms[1].keyVar:
			// The probe pattern's key of a band query is not the build key.
			return p.AddProjectValue(root, sink.ValueProbeKey), nil
		default:
			return p.AddProjectValue(root, sink.ValueBuildKey), nil
		}
	}
	switch {
	case single:
		return root, nil
	case b.payload == len(c.atoms)-1:
		return p.AddProjectValue(root, sink.ValueProbePayload), nil
	case b.payload == 0 && len(c.atoms) == 2:
		return p.AddProjectValue(root, sink.ValueBuildPayload), nil
	}
	// placeProjected joins the owner last in chains of three or more
	// patterns, so this is unreachable; the error guards future reordering.
	return 0, c.errf(v.Pos,
		"variable %s is the payload of an inner pattern and is not addressable above the top join", v.Name)
}

// cmpPredicate closes a scan's residual comparisons into one predicate; nil
// when there are none.
func cmpPredicate(cmps []Cmp) exec.Predicate {
	if len(cmps) == 0 {
		return nil
	}
	return func(t relation.Tuple) bool {
		for _, c := range cmps {
			v := t.Payload
			if c.OnKey {
				v = t.Key
			}
			if !c.Op.Eval(v, c.Const) {
				return false
			}
		}
		return true
	}
}

// keyAsPayload is the Map of a single pattern whose key is the value column.
func keyAsPayload(t relation.Tuple) relation.Tuple {
	return relation.Tuple{Key: t.Key, Payload: t.Key}
}
