// Package query defines the structural-query model of SciHadoop/SIDR: an
// operator applied to every extraction-shape tile of a coordinate subset
// of one variable. A small text syntax makes queries expressible on a
// command line:
//
//	median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}
//	filter_gt temp[0,0,0 : 365,250,200] es {1,1,1} param 40
//	avg temp[0,0,0 : 364,250,200] es {7,5,1} stride {7,5,1} keep-partial
//
// The bracket holds "corner : shape". The extraction shape follows `es`;
// `stride`, `param` and `keep-partial` are optional.
//
// A structural join reads two variables — typically from two registered
// datasets — and combines co-keyed tiles of a shared extraction shape:
//
//	join jsum a[0,0 : 512,512] es {16,16} with b[0,0 : 512,512] es {16,16}
//
// Both sides must declare the same extraction (shape and stride); the
// join keyspace is the intersection of the two sides' tile ranges.
package query

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sidr/internal/coords"
	"sidr/internal/ops"
)

// ErrNaNParam rejects a NaN operator parameter, in either slot. No
// operator gives it a meaning — percentile would take the rank of a NaN,
// an integer conversion Go leaves implementation-defined. ±Inf keeps its
// meaning (a filter bound, a percentile clamped to 0 or 100) and is
// accepted.
var ErrNaNParam = errors.New("query: param is NaN")

// Query is a validated structural query.
type Query struct {
	// Operator is the registered operator name (see package ops).
	Operator string
	// Param is the operator parameter (e.g. filter threshold, or the
	// lower bound of a two-parameter operator).
	Param float64
	// Param2 is the second operator parameter (e.g. filter_range's
	// upper bound); meaningful only when HasParam2 is set.
	Param2 float64
	// HasParam2 records that the query's param clause carried two
	// values ("param lo,hi") — kept explicit so a zero second bound
	// still renders and round-trips.
	HasParam2 bool
	// Variable names the dataset variable the query reads.
	Variable string
	// Input is the coordinate subset of the variable forming the query
	// input set T.
	Input coords.Slab
	// Extraction is the extraction shape tiling Input; each tile is one
	// intermediate key.
	Extraction coords.Extraction
	// KeepPartial keeps trailing partial tiles instead of discarding
	// them (the paper discards the 365th day in its example).
	KeepPartial bool
	// Join marks a two-input structural join; Operator then names a join
	// operator (ops.LookupJoin) and the fields below describe side B.
	Join bool
	// Variable2 names side B's variable (join queries only).
	Variable2 string
	// Input2 is side B's coordinate subset (join queries only).
	Input2 coords.Slab
	// Extraction2 is side B's declared extraction; Validate requires it
	// to equal Extraction so both sides tile into one shared keyspace.
	Extraction2 coords.Extraction
}

// Validate checks the query against itself and, if varShape is non-nil,
// against the (side A) variable's declared shape. Join queries validate
// side B's slab against its variable with ValidateSecond.
func (q *Query) Validate(varShape coords.Shape) error {
	if q.Join {
		return q.validateJoin(varShape)
	}
	if q.Variable == "" {
		return fmt.Errorf("query: missing variable name")
	}
	op, err := ops.Lookup(q.Operator)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if n := ops.NumParams(op); q.HasParam2 && n < 2 {
		return fmt.Errorf("query: operator %s takes at most %d parameter(s), got 2", q.Operator, n)
	} else if n == 2 && !q.HasParam2 {
		return fmt.Errorf("query: operator %s needs two parameters (param lo,hi)", q.Operator)
	}
	if math.IsNaN(q.Param) || math.IsNaN(q.Param2) {
		return ErrNaNParam
	}
	if q.HasParam2 && q.Param > q.Param2 {
		return fmt.Errorf("query: empty param range [%g, %g]", q.Param, q.Param2)
	}
	if err := q.Input.Shape.Validate(); err != nil {
		return fmt.Errorf("query: input slab: %w", err)
	}
	if q.Input.Rank() != q.Extraction.Rank() {
		return fmt.Errorf("query: input rank %d != extraction rank %d", q.Input.Rank(), q.Extraction.Rank())
	}
	for i, c := range q.Input.Corner {
		if c < 0 {
			return fmt.Errorf("query: negative input corner in dim %d", i)
		}
	}
	if varShape != nil {
		full := coords.Slab{Corner: make(coords.Coord, varShape.Rank()), Shape: varShape}
		if varShape.Rank() != q.Input.Rank() {
			return fmt.Errorf("query: input rank %d != variable rank %d", q.Input.Rank(), varShape.Rank())
		}
		if !full.ContainsSlab(q.Input) {
			return fmt.Errorf("query: input %v exceeds variable shape %v", q.Input, varShape)
		}
	}
	return nil
}

// validateJoin checks a two-input join query; varShape, if non-nil,
// constrains side A only.
func (q *Query) validateJoin(varShape coords.Shape) error {
	if q.Variable == "" || q.Variable2 == "" {
		return fmt.Errorf("query: join needs a variable on both sides")
	}
	if _, err := ops.LookupJoin(q.Operator); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if q.Param != 0 || q.HasParam2 {
		return fmt.Errorf("query: join operators take no parameters")
	}
	if q.KeepPartial {
		return fmt.Errorf("query: keep-partial is not supported in join queries")
	}
	for side, in := range map[string]coords.Slab{"A": q.Input, "B": q.Input2} {
		if err := in.Shape.Validate(); err != nil {
			return fmt.Errorf("query: side %s input slab: %w", side, err)
		}
		for i, c := range in.Corner {
			if c < 0 {
				return fmt.Errorf("query: side %s: negative input corner in dim %d", side, i)
			}
		}
	}
	if q.Input.Rank() != q.Input2.Rank() {
		return fmt.Errorf("query: side ranks differ: %d vs %d", q.Input.Rank(), q.Input2.Rank())
	}
	if q.Input.Rank() != q.Extraction.Rank() {
		return fmt.Errorf("query: input rank %d != extraction rank %d", q.Input.Rank(), q.Extraction.Rank())
	}
	if !shapeEqual(q.Extraction.Shape, q.Extraction2.Shape) || !shapeEqual(q.Extraction.EffectiveStride(), q.Extraction2.EffectiveStride()) {
		return fmt.Errorf("query: join sides declare different extractions (%v vs %v)", q.Extraction, q.Extraction2)
	}
	if _, err := q.IntermediateSpace(); err != nil {
		return err
	}
	if varShape != nil {
		if err := slabWithin(q.Input, varShape); err != nil {
			return fmt.Errorf("query: side A: %w", err)
		}
	}
	return nil
}

// ValidateSecond checks side B's slab against its variable's declared
// shape; single-input queries have no side B and always pass.
func (q *Query) ValidateSecond(varShape coords.Shape) error {
	if !q.Join || varShape == nil {
		return nil
	}
	if err := slabWithin(q.Input2, varShape); err != nil {
		return fmt.Errorf("query: side B: %w", err)
	}
	return nil
}

func slabWithin(in coords.Slab, varShape coords.Shape) error {
	if varShape.Rank() != in.Rank() {
		return fmt.Errorf("input rank %d != variable rank %d", in.Rank(), varShape.Rank())
	}
	full := coords.Slab{Corner: make(coords.Coord, varShape.Rank()), Shape: varShape}
	if !full.ContainsSlab(in) {
		return fmt.Errorf("input %v exceeds variable shape %v", in, varShape)
	}
	return nil
}

func shapeEqual(a, b coords.Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Op resolves the query's operator.
func (q *Query) Op() (ops.Operator, error) {
	return ops.Lookup(q.Operator)
}

// JoinOp resolves a join query's operator.
func (q *Query) JoinOp() (ops.JoinOperator, error) {
	if !q.Join {
		return nil, fmt.Errorf("query: %q is not a join query", q.Operator)
	}
	return ops.LookupJoin(q.Operator)
}

// Params returns the operator parameters in positional order, ready to
// splat into ops.Operator.Apply.
func (q *Query) Params() []float64 {
	if q.HasParam2 {
		return []float64{q.Param, q.Param2}
	}
	return []float64{q.Param}
}

// IntermediateSpace returns the query's intermediate keyspace K'^T as a
// slab in K' (SIDR §3, Area 3). The slab's corner is the tile index of
// the input corner; its shape is the tiled extent of the input. For a
// join it is the intersection of the two sides' tile ranges — the join
// keyspace.
func (q *Query) IntermediateSpace() (coords.Slab, error) {
	if !q.Join {
		return q.Extraction.TileRange(q.Input)
	}
	ta, err := q.Extraction.TileRange(q.Input)
	if err != nil {
		return coords.Slab{}, err
	}
	tb, err := q.Extraction.TileRange(q.Input2)
	if err != nil {
		return coords.Slab{}, err
	}
	inter, ok := ta.Intersect(tb)
	if !ok {
		return coords.Slab{}, fmt.Errorf("query: join sides share no tiles (%v vs %v)", ta, tb)
	}
	return inter, nil
}

// String renders the query in the package's text syntax. It is the
// canonical form: trivially different spellings of one query — extra
// whitespace, spaces inside bracket groups, "40.0" vs "40", "+1e1" vs
// "10" — parse to queries that render as one string. The job manager
// replaces each request's query text with it before any cache or
// collapse key is taken, so textual variants share entries.
func (q *Query) String() string {
	var b strings.Builder
	if q.Join {
		fmt.Fprintf(&b, "join %s %s with %s", q.Operator,
			renderSide(q.Variable, q.Input, q.Extraction),
			renderSide(q.Variable2, q.Input2, q.Extraction2))
		return b.String()
	}
	fmt.Fprintf(&b, "%s %s[%s : %s] es %s",
		q.Operator, q.Variable,
		joinInts(q.Input.Corner), joinInts(coords.Coord(q.Input.Shape)),
		"{"+joinInts(coords.Coord(q.Extraction.Shape))+"}")
	if q.Extraction.Stride != nil {
		fmt.Fprintf(&b, " stride {%s}", joinInts(coords.Coord(q.Extraction.Stride)))
	}
	if q.HasParam2 {
		fmt.Fprintf(&b, " param %g,%g", q.Param, q.Param2)
	} else if q.Param != 0 {
		fmt.Fprintf(&b, " param %g", q.Param)
	}
	if q.KeepPartial {
		b.WriteString(" keep-partial")
	}
	return b.String()
}

func renderSide(variable string, in coords.Slab, es coords.Extraction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s : %s] es %s", variable,
		joinInts(in.Corner), joinInts(coords.Coord(in.Shape)),
		"{"+joinInts(coords.Coord(es.Shape))+"}")
	if es.Stride != nil {
		fmt.Fprintf(&b, " stride {%s}", joinInts(coords.Coord(es.Stride)))
	}
	return b.String()
}

func joinInts(xs coords.Coord) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(parts, ",")
}

// Parse parses the text syntax described in the package comment.
func Parse(s string) (*Query, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	if len(toks) < 3 {
		return nil, fmt.Errorf("query: too few tokens in %q", s)
	}
	if toks[0] == "join" {
		return parseJoin(toks)
	}
	q := &Query{Operator: toks[0]}
	// Second token: var[corner : shape]
	q.Variable, q.Input, err = parseVarSlab(toks[1])
	if err != nil {
		return nil, err
	}

	var esShape, esStride coords.Shape
	i := 2
	for i < len(toks) {
		switch toks[i] {
		case "es":
			if i+1 >= len(toks) {
				return nil, fmt.Errorf("query: es needs a shape")
			}
			esShape, err = coords.ParseShape(toks[i+1])
			if err != nil {
				return nil, err
			}
			i += 2
		case "stride":
			if i+1 >= len(toks) {
				return nil, fmt.Errorf("query: stride needs a shape")
			}
			esStride, err = coords.ParseShape(toks[i+1])
			if err != nil {
				return nil, err
			}
			i += 2
		case "param":
			if i+1 >= len(toks) {
				return nil, fmt.Errorf("query: param needs a number")
			}
			// One value ("param 40") or two comma-separated bounds
			// ("param 10,20") for two-parameter operators.
			parts := strings.Split(toks[i+1], ",")
			if len(parts) > 2 {
				return nil, fmt.Errorf("query: param takes at most two values, got %q", toks[i+1])
			}
			q.Param, err = strconv.ParseFloat(parts[0], 64)
			if err != nil {
				return nil, fmt.Errorf("query: bad param %q: %w", toks[i+1], err)
			}
			if len(parts) == 2 {
				q.Param2, err = strconv.ParseFloat(parts[1], 64)
				if err != nil {
					return nil, fmt.Errorf("query: bad param %q: %w", toks[i+1], err)
				}
				q.HasParam2 = true
			}
			i += 2
		case "keep-partial":
			q.KeepPartial = true
			i++
		default:
			return nil, fmt.Errorf("query: unexpected token %q", toks[i])
		}
	}
	if esShape == nil {
		return nil, fmt.Errorf("query: missing extraction shape (es {...})")
	}
	q.Extraction, err = coords.NewExtraction(esShape, esStride)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(nil); err != nil {
		return nil, err
	}
	return q, nil
}

// parseVarSlab parses a "var[corner : shape]" token.
func parseVarSlab(tok string) (string, coords.Slab, error) {
	open := strings.IndexByte(tok, '[')
	if open <= 0 || !strings.HasSuffix(tok, "]") {
		return "", coords.Slab{}, fmt.Errorf("query: expected var[corner : shape], got %q", tok)
	}
	inner := tok[open+1 : len(tok)-1]
	halves := strings.Split(inner, ":")
	if len(halves) != 2 {
		return "", coords.Slab{}, fmt.Errorf("query: expected corner : shape inside brackets, got %q", inner)
	}
	corner, err := coords.ParseCoord(halves[0])
	if err != nil {
		return "", coords.Slab{}, err
	}
	shape, err := coords.ParseShape(halves[1])
	if err != nil {
		return "", coords.Slab{}, err
	}
	slab, err := coords.NewSlab(corner, shape)
	if err != nil {
		return "", coords.Slab{}, fmt.Errorf("query: input slab: %w", err)
	}
	return tok[:open], slab, nil
}

// parseSide parses one join side: var[corner : shape] es {..} [stride {..}].
func parseSide(toks []string) (string, coords.Slab, coords.Extraction, error) {
	var es coords.Extraction
	if len(toks) == 0 {
		return "", coords.Slab{}, es, fmt.Errorf("query: join side is empty")
	}
	variable, slab, err := parseVarSlab(toks[0])
	if err != nil {
		return "", coords.Slab{}, es, err
	}
	var esShape, esStride coords.Shape
	for i := 1; i < len(toks); {
		switch toks[i] {
		case "es":
			if i+1 >= len(toks) {
				return "", coords.Slab{}, es, fmt.Errorf("query: es needs a shape")
			}
			if esShape, err = coords.ParseShape(toks[i+1]); err != nil {
				return "", coords.Slab{}, es, err
			}
			i += 2
		case "stride":
			if i+1 >= len(toks) {
				return "", coords.Slab{}, es, fmt.Errorf("query: stride needs a shape")
			}
			if esStride, err = coords.ParseShape(toks[i+1]); err != nil {
				return "", coords.Slab{}, es, err
			}
			i += 2
		default:
			return "", coords.Slab{}, es, fmt.Errorf("query: unexpected token %q in join side", toks[i])
		}
	}
	if esShape == nil {
		return "", coords.Slab{}, es, fmt.Errorf("query: missing extraction shape (es {...})")
	}
	if es, err = coords.NewExtraction(esShape, esStride); err != nil {
		return "", coords.Slab{}, es, err
	}
	return variable, slab, es, nil
}

// parseJoin parses "join <op> A[c : s] es {..} with B[c : s] es {..}".
func parseJoin(toks []string) (*Query, error) {
	if len(toks) < 7 {
		return nil, fmt.Errorf("query: too few tokens in join query")
	}
	with := -1
	for i, t := range toks {
		if t == "with" {
			with = i
			break
		}
	}
	if with < 0 {
		return nil, fmt.Errorf("query: join query missing 'with'")
	}
	q := &Query{Join: true, Operator: toks[1]}
	var err error
	if q.Variable, q.Input, q.Extraction, err = parseSide(toks[2:with]); err != nil {
		return nil, err
	}
	if q.Variable2, q.Input2, q.Extraction2, err = parseSide(toks[with+1:]); err != nil {
		return nil, err
	}
	if err := q.Validate(nil); err != nil {
		return nil, err
	}
	return q, nil
}

// tokenize splits on whitespace but keeps {...} and [...] groups (which
// may contain spaces) attached to a single token.
func tokenize(s string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	depth := 0
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch r {
		case '{', '[':
			depth++
			cur.WriteRune(r)
		case '}', ']':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("query: unbalanced brackets in %q", s)
			}
			cur.WriteRune(r)
		case ' ', '\t', '\n':
			if depth > 0 {
				continue // drop spaces inside groups
			}
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("query: unbalanced brackets in %q", s)
	}
	flush()
	return toks, nil
}
