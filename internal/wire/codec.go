package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// MarshalJSON writes p with its rows in the package's dense layout.
func (p partial) MarshalJSON() ([]byte, error) {
	return p.appendJSON(make([]byte, 0, 64+24*len(p.Values)))
}

func (p *partial) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"keyblock":`...)
	dst = strconv.AppendInt(dst, int64(p.Keyblock), 10)
	dst = append(dst, ',')
	dst, err := appendRows(dst, p.Keys, p.Values)
	if err != nil {
		return nil, err
	}
	at, err := p.At.MarshalJSON()
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"at":`...)
	dst = append(dst, at...)
	return append(dst, '}'), nil
}

// UnmarshalJSON reads p from the package's dense layout. Keys are
// windows of one array, and so are Values.
func (p *partial) UnmarshalJSON(b []byte) error {
	return unmarshalRows(b, &p.Keys, &p.Values, func(s *scanner, name []byte) error {
		switch string(name) {
		case "keyblock":
			kb, err := s.int()
			p.Keyblock = int(kb)
			return err
		case "at":
			return s.time(&p.At)
		}
		return s.skip()
	})
}

// MarshalJSON writes r with its rows in the package's dense layout.
func (r Result) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 160+24*len(r.Values)))
}

func (r *Result) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	dst, err := appendRows(dst, r.Keys, r.Values)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendInt(dst, int64(r.Rows), 10)
	dst = append(dst, `,"partials":`...)
	dst = strconv.AppendInt(dst, int64(r.Partials), 10)
	dst = append(dst, `,"first_result_ms":`...)
	if dst, err = appendFloat(dst, r.FirstMillis); err != nil {
		return nil, err
	}
	dst = append(dst, `,"elapsed_ms":`...)
	if dst, err = appendFloat(dst, r.ElapsedMS); err != nil {
		return nil, err
	}
	dst = append(dst, `,"connections":`...)
	dst = strconv.AppendInt(dst, r.Connections, 10)
	return append(dst, '}'), nil
}

// UnmarshalJSON reads r from the package's dense layout. Keys are
// windows of one array, and so are Values.
func (r *Result) UnmarshalJSON(b []byte) error {
	return unmarshalRows(b, &r.Keys, &r.Values, func(s *scanner, name []byte) error {
		var n int64
		var err error
		switch string(name) {
		case "rows":
			n, err = s.int()
			r.Rows = int(n)
		case "partials":
			n, err = s.int()
			r.Partials = int(n)
		case "first_result_ms":
			r.FirstMillis, err = s.float()
		case "elapsed_ms":
			r.ElapsedMS, err = s.float()
		case "connections":
			r.Connections, err = s.int()
		default:
			err = s.skip()
		}
		return err
	})
}

// unmarshalRows parses b, an object with the rows members, into keys and
// values, handing every other member to other with the scanner at its
// value. A null b leaves everything as it was.
func unmarshalRows(b []byte, keys *[][]int64, values *[][]float64, other func(s *scanner, name []byte) error) error {
	s := scanner{b: b}
	if s.null() {
		return s.end()
	}
	var rows rowsMembers
	err := s.object(func(name []byte) error {
		if ok, err := rows.member(&s, name); ok {
			return err
		}
		return other(&s, name)
	})
	if err == nil {
		err = s.end()
	}
	if err == nil {
		*keys, *values, err = rows.build()
	}
	return err
}

// appendRows appends the keys, counts and values members to dst, with no
// separator before the first.
func appendRows(dst []byte, keys [][]int64, values [][]float64) ([]byte, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("wire: %d keys but %d value rows", len(keys), len(values))
	}
	var corner, shape []int64
	if len(keys) > 0 {
		rank := len(keys[0])
		corner = append([]int64(nil), keys[0]...)
		shape = append([]int64(nil), keys[0]...) // the box's last cell until the loop below ends
		for _, k := range keys {
			if len(k) != rank {
				return nil, fmt.Errorf("wire: keys of rank %d and %d in one row set", rank, len(k))
			}
			for d, c := range k {
				corner[d] = min(corner[d], c)
				shape[d] = max(shape[d], c)
			}
		}
		volume := uint64(1)
		for d := range shape {
			span := uint64(shape[d]) - uint64(corner[d]) + 1 // hi ≥ lo, so this is exact modulo 2^64
			if span == 0 || span > math.MaxInt64 || volume > math.MaxInt64/span {
				return nil, errors.New("wire: keys span a box of more than 2^63 cells")
			}
			shape[d], volume = int64(span), volume*span
		}
	}
	dst = append(dst, `"keys":{"corner":`...)
	dst = appendInts(dst, corner)
	dst = append(dst, `,"shape":`...)
	dst = appendInts(dst, shape)
	dst = append(dst, `,"runs":[`...)
	var start, n int64
	for _, k := range keys {
		off := int64(0)
		for d, c := range k {
			off = off*shape[d] + c - corner[d]
		}
		if n > 0 && off == start+n {
			n++
			continue
		}
		if n > 0 {
			dst = appendRun(dst, start, n)
		}
		start, n = off, 1
	}
	if n > 0 {
		dst = appendRun(dst, start, n)
	}
	dst = append(dst, "]}"...)

	for _, v := range values {
		if len(v) != 1 {
			dst = append(dst, `,"counts":[`...)
			for i, v := range values {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(len(v)), 10)
			}
			dst = append(dst, ']')
			break
		}
	}
	dst = append(dst, `,"values":[`...)
	sep := false
	for _, v := range values {
		for _, f := range v {
			if sep {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloat(dst, f); err != nil {
				return nil, err
			}
			sep = true
		}
	}
	return append(dst, ']'), nil
}

// appendRun appends one run, preceded by a comma unless it is the first
// in the array.
func appendRun(dst []byte, off, n int64) []byte {
	if dst[len(dst)-1] != '[' {
		dst = append(dst, ',')
	}
	dst = strconv.AppendInt(dst, off, 10)
	dst = append(dst, ',')
	return strconv.AppendInt(dst, n, 10)
}

func appendInts(dst []byte, xs []int64) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, x, 10)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// text that reads back to f, in exponent form below 1e-6 and from 1e21
// on, with a one-digit negative exponent not zero-padded. NaN and ±Inf
// have no JSON form.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, nil
}

// rowsMembers collects the rows members of one object as they are parsed;
// build turns them into keys and values once the object has ended.
type rowsMembers struct {
	corner, shape, runs, counts []int64
	haveCounts                  bool
	values                      []float64
}

// member parses the value of the rows member name, reporting false when
// name is not one.
func (m *rowsMembers) member(s *scanner, name []byte) (bool, error) {
	var err error
	switch string(name) {
	case "keys":
		err = s.object(func(name []byte) (err error) {
			switch string(name) {
			case "corner":
				m.corner, err = array(s, nil, s.int)
			case "shape":
				m.shape, err = array(s, nil, s.int)
			case "runs":
				m.runs, err = array(s, nil, s.int)
			default:
				err = s.skip()
			}
			return err
		})
	case "counts":
		m.counts, err = array(s, nil, s.int)
		m.haveCounts = true
	case "values":
		m.values, err = array(s, nil, s.float)
	default:
		return false, nil
	}
	return true, err
}

// build checks the members against each other — the runs cover exactly
// as many keys as there are value rows, all inside the box — and only
// then materialises the keys: one backing array of rows × rank numbers
// that every key is a window of. Values are windows of the parsed array.
func (m *rowsMembers) build() ([][]int64, [][]float64, error) {
	rows := len(m.values)
	if m.haveCounts {
		rows = len(m.counts)
		total := 0
		for _, c := range m.counts {
			if c < 0 || c > int64(len(m.values)-total) {
				return nil, nil, fmt.Errorf("wire: counts describe more than the %d values", len(m.values))
			}
			total += int(c)
		}
		if total != len(m.values) {
			return nil, nil, fmt.Errorf("wire: counts describe %d values, not %d", total, len(m.values))
		}
	}
	rank := len(m.corner)
	if len(m.shape) != rank {
		return nil, nil, fmt.Errorf("wire: a key box with a corner of rank %d and a shape of rank %d", rank, len(m.shape))
	}
	volume := int64(1)
	for d, n := range m.shape {
		if n < 1 || m.corner[d] > math.MaxInt64-(n-1) || volume > math.MaxInt64/n {
			return nil, nil, errors.New("wire: the key box is empty or leaves the int64 range")
		}
		volume *= n
	}
	if len(m.runs)%2 != 0 {
		return nil, nil, errors.New("wire: runs must be offset and length pairs")
	}
	total := int64(0)
	for i := 0; i < len(m.runs); i += 2 {
		off, n := m.runs[i], m.runs[i+1]
		if off < 0 || n < 1 || off > volume-n {
			return nil, nil, fmt.Errorf("wire: run [%d,%d] leaves a key box of %d cells", off, n, volume)
		}
		if n > int64(rows)-total {
			return nil, nil, fmt.Errorf("wire: runs cover more keys than the %d value rows", rows)
		}
		total += n
	}
	if total != int64(rows) {
		return nil, nil, fmt.Errorf("wire: runs cover %d keys but there are %d value rows", total, rows)
	}

	keys := make([][]int64, rows)
	flat := make([]int64, rows*rank)
	i := 0
	for r := 0; r < len(m.runs); r += 2 {
		off, n := m.runs[r], m.runs[r+1]
		k := flat[i*rank : (i+1)*rank : (i+1)*rank]
		for d := rank - 1; d >= 0; d-- {
			k[d] = m.corner[d] + off%m.shape[d]
			off /= m.shape[d]
		}
		keys[i], i = k, i+1
		for ; n > 1; n-- { // the next cell in row-major order
			next := flat[i*rank : (i+1)*rank : (i+1)*rank]
			copy(next, k)
			for d := rank - 1; d >= 0; d-- {
				if next[d]-m.corner[d] < m.shape[d]-1 {
					next[d]++
					break
				}
				next[d] = m.corner[d]
			}
			keys[i], k, i = next, next, i+1
		}
	}

	values := make([][]float64, rows)
	vs := m.values
	if vs == nil {
		vs = []float64{}
	}
	at := 0
	for i := range values {
		n := 1
		if m.haveCounts {
			n = int(m.counts[i])
		}
		values[i] = vs[at : at+n : at+n]
		at += n
	}
	return keys, values, nil
}

// scanner reads the JSON this package writes — and any other spelling of
// it — without reflection. It never panics on malformed input.
type scanner struct {
	b []byte
	i int
}

var errSyntax = errors.New("wire: malformed JSON")

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// null consumes a JSON null, reporting whether the next value is one.
func (s *scanner) null() bool {
	s.ws()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// end reports an error unless only whitespace is left.
func (s *scanner) end() error {
	if s.ws(); s.i != len(s.b) {
		return errSyntax
	}
	return nil
}

// str returns the next value, a string, quotes included.
func (s *scanner) str() ([]byte, error) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, errSyntax
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch s.b[j] {
		case '\\':
			j++
		case '"':
			tok := s.b[s.i : j+1]
			s.i = j + 1
			return tok, nil
		}
	}
	return nil, errSyntax
}

// object parses an object, calling member for each member name with the
// scanner at its value.
func (s *scanner) object(member func(name []byte) error) error {
	if !s.consume('{') {
		return errSyntax
	}
	if s.consume('}') {
		return nil
	}
	for {
		tok, err := s.str()
		if err != nil {
			return err
		}
		name := tok[1 : len(tok)-1]
		if bytes.IndexByte(name, '\\') >= 0 {
			var unquoted string
			if err := json.Unmarshal(tok, &unquoted); err != nil {
				return err
			}
			name = []byte(unquoted)
		}
		if !s.consume(':') {
			return errSyntax
		}
		if err := member(name); err != nil {
			return err
		}
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return nil
		}
		return errSyntax
	}
}

// number returns the next value's text, which must be a JSON number's
// characters.
func (s *scanner) number() ([]byte, error) {
	s.ws()
	j := s.i
	if j < len(s.b) && s.b[j] == '-' {
		j++
	}
	if j >= len(s.b) || s.b[j] < '0' || s.b[j] > '9' {
		return nil, errSyntax
	}
	for j < len(s.b) {
		if c := s.b[j]; (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			j++
			continue
		}
		break
	}
	tok := s.b[s.i:j]
	s.i = j
	return tok, nil
}

func (s *scanner) int() (int64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	x, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: %q is not an int64", tok)
	}
	return x, nil
}

func (s *scanner) float() (float64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("wire: %q is not a float64", tok)
	}
	return f, nil
}

// array appends the elements of the next value, an array, to dst, reading
// each with elem.
func array[T any](s *scanner, dst []T, elem func() (T, error)) ([]T, error) {
	if !s.consume('[') {
		return nil, errSyntax
	}
	if s.consume(']') {
		return dst, nil
	}
	for {
		x, err := elem()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
		if s.consume(',') {
			continue
		}
		if s.consume(']') {
			return dst, nil
		}
		return nil, errSyntax
	}
}

// time parses the next value as time.Time's JSON form.
func (s *scanner) time(t *time.Time) error {
	if s.null() {
		return nil
	}
	tok, err := s.str()
	if err != nil {
		return err
	}
	return t.UnmarshalJSON(tok)
}

// skip steps over the next value, whatever it is: a member this package
// does not know.
func (s *scanner) skip() error {
	dec := json.NewDecoder(bytes.NewReader(s.b[s.i:]))
	var v json.RawMessage
	if err := dec.Decode(&v); err != nil {
		return err
	}
	s.i += int(dec.InputOffset())
	return nil
}
