package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRowsLayout pins the dense layout byte for byte: the bounding box,
// row-major runs, counts only when some key has other than one value,
// and the empty form.
func TestRowsLayout(t *testing.T) {
	for _, c := range []struct {
		keys   [][]int64
		values [][]float64
		want   string
	}{
		{[][]int64{}, [][]float64{}, `"keys":{"corner":[],"shape":[],"runs":[]},"values":[]`},
		// A dense 2×3 block is one run; the last dimension varies fastest.
		{[][]int64{{4, -1}, {4, 0}, {4, 1}, {5, -1}, {5, 0}, {5, 1}}, [][]float64{{1}, {2}, {3}, {4}, {5}, {6}},
			`"keys":{"corner":[4,-1],"shape":[2,3],"runs":[0,6]},"values":[1,2,3,4,5,6]`},
		// A hole, a step back and a repeat each start a run.
		{[][]int64{{0, 0}, {0, 2}, {1, 0}, {0, 1}, {0, 1}}, [][]float64{{0.5}, {math.Copysign(0, -1)}, {1e-7}, {1e21}, {math.MaxFloat64}},
			`"keys":{"corner":[0,0],"shape":[2,3],"runs":[0,1,2,2,1,1,1,1]},"values":[0.5,-0,1e-7,1e+21,1.7976931348623157e+308]`},
		// One key with two values and one with none: counts spell it out.
		{[][]int64{{-3}, {-2}}, [][]float64{{7, 8}, {}},
			`"keys":{"corner":[-3],"shape":[2],"runs":[0,2]},"counts":[2,0],"values":[7,8]`},
		// So does a single key with other than one value.
		{[][]int64{{0, 0, 5}, {0, 1, 5}, {1, 0, 5}}, [][]float64{{1}, {2, 3}, {4}},
			`"keys":{"corner":[0,0,5],"shape":[2,2,1],"runs":[0,3]},"counts":[1,2,1],"values":[1,2,3,4]`},
	} {
		got, err := appendRows(nil, c.keys, c.values)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("appendRows(%v, %v)\n = %s\nwant %s", c.keys, c.values, got, c.want)
		}
		var p partial
		if err := json.Unmarshal([]byte("{"+c.want+"}"), &p); err != nil {
			t.Fatal(err)
		}
		sameRows(t, c.want, c.keys, c.values, p.Keys, p.Values)
	}
}

// TestRowsRejectRunsBeforeKeys: runs that cover more keys than there are
// value rows are refused before a key is made — the first claims 2^60,
// the second wraps int64 back to the row count — and so is every other
// disagreement between the members.
func TestRowsRejectRunsBeforeKeys(t *testing.T) {
	for _, in := range []string{
		`{"keys":{"corner":[0,0,0],"shape":[1048576,1048576,1048576],"runs":[0,1152921504606846976]},"values":[1]}`,
		`{"keys":{"corner":[0],"shape":[9223372036854775807],"runs":[0,1,0,9223372036854775807,0,9223372036854775807,0,3]},"values":[1,2]}`,
		`{"keys":{"corner":[0],"shape":[4],"runs":[0,2]},"values":[1,2,3]}`,
		`{"keys":{"corner":[0],"shape":[4],"runs":[0,3]},"counts":[1,1],"values":[1,2]}`,
		`{"keys":{"corner":[0],"shape":[4],"runs":[3,2]},"values":[1,2]}`,
		`{"keys":{"corner":[0],"shape":[4],"runs":[0,1,1]},"values":[1]}`,
		`{"keys":{"corner":[0],"shape":[0],"runs":[]},"values":[]}`,
		`{"keys":{"corner":[9223372036854775807],"shape":[2],"runs":[0,1]},"values":[1]}`,
		`{"keys":{"corner":[0],"shape":[2],"runs":[0,2]},"counts":[3,-1],"values":[1,2]}`,
		`{"keys":{"corner":[0],"shape":[2],"runs":[0,1]},"values":[1e400]}`,
	} {
		var p partial
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Errorf("%s decoded to %v %v", in, p.Keys, p.Values)
		}
	}
}

// layout is the dense form read by reflection: the oracle's view of the
// wire, independent of the hand decoder.
type layout struct {
	Keys struct {
		Corner, Shape, Runs []int64
	} `json:"keys"`
	Counts []int64   `json:"counts"`
	Values []float64 `json:"values"`
}

// expand is the documented client recipe: key = corner + unravel(offset,
// shape), the last dimension varying fastest.
func (l *layout) expand() [][]int64 {
	var keys [][]int64
	for r := 0; r+1 < len(l.Keys.Runs); r += 2 {
		for off := l.Keys.Runs[r]; off < l.Keys.Runs[r]+l.Keys.Runs[r+1]; off++ {
			k := make([]int64, len(l.Keys.Corner))
			rest := off
			for d := len(k) - 1; d >= 0; d-- {
				k[d] = l.Keys.Corner[d] + rest%l.Keys.Shape[d]
				rest /= l.Keys.Shape[d]
			}
			keys = append(keys, k)
		}
	}
	return keys
}

// byteSource hands out a fuzz input's bytes, then zeros.
type byteSource []byte

func (s *byteSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

var specialFloats = []float64{0, math.Copysign(0, -1), 5e-324, -math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308 / 2,
	1e-7, -1e-6, 1e-6, 0.1, 1, -2.5, 123456.789, 1e20, 1e21, math.MaxFloat64, -math.MaxFloat64}

func (s *byteSource) float() float64 {
	if i := int(s.next()); i < len(specialFloats) {
		return specialFloats[i]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(s.next())
	}
	if f := math.Float64frombits(bits); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return 0
}

// genRows derives a row set from fuzz bytes: rank 1 to 4, corners that
// may be negative or at the ends of int64, runs broken by holes, jumps
// back and repeated keys, and — in half the inputs — any arity from 0 to
// 3.
func genRows(s *byteSource) ([][]int64, [][]float64) {
	rank := 1 + int(s.next()%4)
	flags := s.next()
	corner, box := make([]int64, rank), make([]int64, rank)
	for d := range corner {
		box[d] = 1 + int64(s.next()%5)
		corner[d] = int64(int8(s.next())) * int64(1+s.next()%3)
		switch {
		case flags&0x10 != 0 && d == 0:
			corner[d] = math.MinInt64 + corner[d]&0x7f
		case flags&0x20 != 0 && d == rank-1:
			corner[d] = math.MaxInt64 - box[d] + 1
		}
	}
	cell := make([]int64, rank) // offsets inside the box
	n := int(s.next() % 48)
	keys, values := make([][]int64, 0, n), make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			switch c := s.next(); {
			case c < 150: // the next cell, wrapping
				advance(cell, box)
			case c < 200: // anywhere in the box
				for d := range cell {
					cell[d] = int64(s.next()) % box[d]
				}
			case c < 225: // the same key again
			default: // a hole
				advance(cell, box)
				advance(cell, box)
			}
		}
		k := make([]int64, rank)
		for d := range k {
			k[d] = corner[d] + cell[d]
		}
		arity := 1
		if flags&1 != 0 {
			arity = int(s.next() % 4)
		}
		row := make([]float64, arity)
		for j := range row {
			row[j] = s.float()
		}
		keys, values = append(keys, k), append(values, row)
	}
	return keys, values
}

// advance moves cell to the next one in row-major order, wrapping to the
// first after the last.
func advance(cell, box []int64) {
	for d := len(cell) - 1; d >= 0; d-- {
		if cell[d]++; cell[d] < box[d] {
			return
		}
		cell[d] = 0
	}
}

func sameRows(t *testing.T, what string, keys [][]int64, values [][]float64, gotKeys [][]int64, gotValues [][]float64) {
	t.Helper()
	if len(gotKeys) != len(keys) || len(gotValues) != len(values) {
		t.Fatalf("%s: %d keys and %d value rows, want %d and %d", what, len(gotKeys), len(gotValues), len(keys), len(values))
	}
	for i := range keys {
		if len(gotKeys[i]) != len(keys[i]) || len(gotValues[i]) != len(values[i]) {
			t.Fatalf("%s: row %d is %v %v, want %v %v", what, i, gotKeys[i], gotValues[i], keys[i], values[i])
		}
		for d := range keys[i] {
			if gotKeys[i][d] != keys[i][d] {
				t.Fatalf("%s: key %d is %v, want %v", what, i, gotKeys[i], keys[i])
			}
		}
		for j := range values[i] {
			if math.Float64bits(gotValues[i][j]) != math.Float64bits(values[i][j]) {
				t.Fatalf("%s: row %d's value %d is %v, want %v", what, i, j, gotValues[i][j], values[i][j])
			}
		}
	}
}

// FuzzWireRows checks the dense codec against encoding/json and against
// the layout's own definition:
//   - rows derived from the input round-trip by Float64bits through
//     partial and Result, and the layout read by reflection and expanded
//     by the documented recipe gives the same rows back;
//   - every value's text is json.Marshal's, and NaN or ±Inf is an error;
//   - counts appear exactly when some key has other than one value;
//   - runs that disagree with the value rows are an error;
//   - the input taken as JSON never panics the decoders, and whatever they
//     accept re-encodes to rows that decode the same.
func FuzzWireRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 3, 0x80, 2, 4, 5, 1, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 0x30, 4, 1, 0, 2, 2, 0, 3, 3, 1, 40, 200, 7, 9, 230, 210, 1, 2, 3, 100, 101, 102})
	f.Add([]byte(`{"keyblock":3,"keys":{"corner":[-2,5],"shape":[2,2],"runs":[0,3,3,1]},"counts":[1,0,2,1],"values":[1.5,-0,1e-7,3],"at":"2026-10-04T12:00:00.123456789Z"}`))
	f.Add([]byte(`{"keys":{"corner":[0],"shape":[4],"runs":[0,4]},"values":[1,2,3,4],"rows":4,"partials":1,"first_result_ms":0.25,"elapsed_ms":3,"connections":9,"extra":[{"x":null}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input as JSON: no panic, and what decodes is stable.
		var p partial
		if err := p.UnmarshalJSON(data); err == nil {
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("re-encoding a decoded partial: %v", err)
			}
			var q partial
			if err := json.Unmarshal(b, &q); err != nil {
				t.Fatalf("decoding a re-encoded partial %s: %v", b, err)
			}
			sameRows(t, "re-decoded partial", p.Keys, p.Values, q.Keys, q.Values)
		}
		var r Result
		_ = r.UnmarshalJSON(data)
		var ev StreamEvent
		_ = json.Unmarshal(data, &ev)

		// The input as a generator of rows.
		src := byteSource(data)
		keys, values := genRows(&src)
		ones := true
		for _, row := range values {
			ones = ones && len(row) == 1
			for _, v := range row {
				want, _ := json.Marshal(v)
				if got, err := appendFloat(nil, v); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%v is written %q (%v), encoding/json writes %q", v, got, err, want)
				}
			}
		}
		at := time.Unix(0, int64(src.next())<<40|int64(src.next())).UTC()
		b, err := json.Marshal(partial{Keyblock: int(int8(src.next())), Keys: keys, Values: values, At: at})
		if err != nil {
			t.Fatal(err)
		}
		if hasCounts := bytes.Contains(b, []byte(`"counts"`)); hasCounts == ones && len(values) > 0 {
			t.Fatalf("counts written: %v, every key one value: %v\n%s", hasCounts, ones, b)
		}
		var gotP partial
		if err := json.Unmarshal(b, &gotP); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
		sameRows(t, "partial", keys, values, gotP.Keys, gotP.Values)
		if !gotP.At.Equal(at) {
			t.Fatalf("at %v, want %v", gotP.At, at)
		}

		var l layout
		if err := json.Unmarshal(b, &l); err != nil {
			t.Fatal(err)
		}
		if l.Counts != nil && len(l.Counts) != len(values) {
			t.Fatalf("%d counts for %d keys: %s", len(l.Counts), len(values), b)
		}
		oracleValues, next := make([][]float64, len(values)), 0
		for i := range oracleValues {
			n := 1
			if l.Counts != nil {
				n = int(l.Counts[i])
			}
			if n < 0 || n > len(l.Values)-next {
				t.Fatalf("counts overrun the values: %s", b)
			}
			oracleValues[i], next = l.Values[next:next+n], next+n
		}
		sameRows(t, "layout expanded by reflection", keys, values, l.expand(), oracleValues)

		res := &Result{Keys: keys, Values: values, Rows: len(keys), FirstMillis: values0(values), ElapsedMS: 1e-7}
		rb, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var gotR Result
		if err := json.Unmarshal(rb, &gotR); err != nil {
			t.Fatalf("decoding %s: %v", rb, err)
		}
		sameRows(t, "result", keys, values, gotR.Keys, gotR.Values)
		if gotR.Rows != res.Rows || math.Float64bits(gotR.FirstMillis) != math.Float64bits(res.FirstMillis) || gotR.ElapsedMS != res.ElapsedMS {
			t.Fatalf("result members %+v, want %+v", gotR, res)
		}

		if len(keys) == 0 {
			return
		}
		// Runs one key longer or shorter than the value rows.
		for _, delta := range []int64{1, -1} {
			m := l
			m.Keys.Runs = append([]int64(nil), l.Keys.Runs...)
			m.Keys.Runs[len(m.Keys.Runs)-1] += delta
			bad, _ := json.Marshal(m)
			if err := json.Unmarshal(bad, &gotP); err == nil {
				t.Fatalf("runs off by %d accepted: %s", delta, bad)
			}
		}
		// A value with no JSON form.
		for i, row := range values {
			if len(row) > 0 {
				saved := row[0]
				row[0] = [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
				if _, err := json.Marshal(partial{Keys: keys, Values: values}); err == nil || !strings.Contains(err.Error(), "unsupported value") {
					t.Fatalf("%v encoded without an unsupported-value error: %v", row[0], err)
				}
				row[0] = saved
				break
			}
		}
	})
}

func values0(values [][]float64) float64 {
	for _, row := range values {
		if len(row) > 0 {
			return row[0]
		}
	}
	return 0
}
