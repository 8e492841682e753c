// Package query is the Datalog-style front-end of the engine: a lexer, a
// recursive-descent parser and a compiler that turn one non-recursive rule
// over named relations into the operator DAG the executor runs.
//
// A query is a single rule:
//
//	ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y).
//
// The head names the output relation and its two columns. The body is a
// comma-separated list of clauses:
//
//   - Pattern atoms rel(Key, Payload) bind variables to a relation's key and
//     payload columns. The key position must be a variable; the payload may
//     be a variable, a wildcard _ or an integer constant (an equality
//     filter). A variable in the key position of a schema-encoded relation
//     (internal/keys) stands for the whole multi-column key and routes
//     through the schema: join compatibility is checked by schema signature.
//   - Patterns sharing their key variable join on it (the MPSM equi-join);
//     the join chain is left-deep in pattern order, except that the pattern
//     supplying the projected or aggregated payload is joined last so its
//     payload is still addressable above the top join.
//   - Comparisons Var op Const (op one of = == != < <= > >=) filter during
//     the scans. Fully bounded key ranges (and equalities) compile to the
//     branch-free KeyRange scan path; everything else becomes an opaque
//     predicate.
//   - Band predicates |X - Y| <= c join two patterns with distinct key
//     variables within absolute key distance c (the paper's band join).
//   - At most one aggregate clause `agg f(V)` (f one of sum, min, max,
//     count; count takes * or any bound variable) groups the result by key;
//     the head's second argument then names the aggregate and must be a
//     fresh variable.
//
// Queries have bag (multiset) semantics, matching the engine: duplicates
// join pairwise and are not eliminated.
//
// Errors carry the 1-based line and column of the offending token (type
// *Error); Annotate renders them with the source line and a caret. The
// compiled form is the executor's own plan (Compiled.Plan, an exec.Plan),
// built with its Add* methods — each clause maps straight onto an operator,
// with no intermediate representation — plus the canonical pretty-printed
// text that keys the service plan cache. Its joins carry only their band
// width; the public repro package configures them.
package query
