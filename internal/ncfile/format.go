// Package ncfile implements a NetCDF-classic-like binary container for
// dense n-dimensional scientific arrays. It is the repository's stand-in
// for NetCDF/HDF5: structural metadata (dimensions and variables) is
// encoded alongside the data in a single file, and all data access happens
// through logical coordinates (hyperslabs) rather than byte offsets —
// exactly the property SciHadoop and SIDR rely on.
//
// The on-disk layout is:
//
//	magic "NCFG" | u16 version | header | per-variable row-major payload
//
// Values are stored per the variable's declared type (float64 or int64)
// and surfaced to callers as float64, which is sufficient for every
// operator in this repository and keeps the public API small.
package ncfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"sidr/internal/coords"
)

// fileMagic identifies an ncfile container.
var fileMagic = [4]byte{'N', 'C', 'F', 'G'}

// formatVersion is the current format version.
const formatVersion uint16 = 1

// dataType enumerates supported element types.
type dataType uint8

const (
	// Float64 stores IEEE-754 doubles.
	Float64 dataType = iota + 1
	// int64Type stores signed 64-bit integers.
	int64Type
)

// size returns the element size in bytes.
func (d dataType) size() int64 {
	switch d {
	case Float64, int64Type:
		return 8
	default:
		return 0
	}
}

// String names the data type in metadata dumps.
func (d dataType) String() string {
	switch d {
	case Float64:
		return "double"
	case int64Type:
		return "int64"
	default:
		return fmt.Sprintf("dataType(%d)", uint8(d))
	}
}

// Dimension is a named axis of the dataset, e.g. time = 365.
type Dimension struct {
	Name   string
	Length int64
}

// Attribute is a free-form name/value metadata entry, mirroring NetCDF
// attributes ("units" = "m/s", "origin" = "25N 85W", ...).
type Attribute struct {
	Name  string
	Value string
}

// Variable is a typed array defined over an ordered list of dimensions.
type Variable struct {
	Name string
	Type dataType
	Dims []string // names into Header.Dims, slowest-varying first

	// Origin optionally records the variable's global position when the
	// file holds a dense sub-array of a larger logical dataset (paper
	// §4.4: "coordinates of individual points are relative to the origin
	// of that dense array"). Nil means the variable is rooted at the
	// global origin. When present its rank must equal len(Dims).
	Origin []int64

	// Attrs carries per-variable metadata attributes.
	Attrs []Attribute

	// dataOffset is the absolute byte offset of the variable's payload;
	// populated when a header is encoded or decoded.
	dataOffset int64
}

// Header is the structural metadata of an ncfile container.
type Header struct {
	Dims []Dimension
	Vars []Variable
	// Attrs carries global metadata attributes.
	Attrs []Attribute
}

// Errors reported by the package.
var (
	errBadMagic   = errors.New("ncfile: bad magic")
	errBadVersion = errors.New("ncfile: unsupported version")
	errNoVariable = errors.New("ncfile: no such variable")
	errNoDim      = errors.New("ncfile: no such dimension")
	errOutOfBound = errors.New("ncfile: hyperslab outside variable bounds")
)

// dimLength returns the length of the named dimension.
func (h *Header) dimLength(name string) (int64, error) {
	for _, d := range h.Dims {
		if d.Name == name {
			return d.Length, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", errNoDim, name)
}

// variable returns the named variable.
func (h *Header) variable(name string) (*Variable, error) {
	for i := range h.Vars {
		if h.Vars[i].Name == name {
			return &h.Vars[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", errNoVariable, name)
}

// VarShape returns the full shape of the named variable.
func (h *Header) VarShape(name string) (coords.Shape, error) {
	v, err := h.variable(name)
	if err != nil {
		return nil, err
	}
	shape := make(coords.Shape, len(v.Dims))
	for i, dn := range v.Dims {
		l, err := h.dimLength(dn)
		if err != nil {
			return nil, err
		}
		shape[i] = l
	}
	return shape, nil
}

// validate checks internal consistency: unique names, positive lengths,
// variables referencing declared dimensions.
func (h *Header) validate() error {
	seen := make(map[string]bool, len(h.Dims))
	for _, d := range h.Dims {
		if d.Name == "" {
			return errors.New("ncfile: empty dimension name")
		}
		if d.Length <= 0 {
			return fmt.Errorf("ncfile: dimension %q has non-positive length %d", d.Name, d.Length)
		}
		if seen[d.Name] {
			return fmt.Errorf("ncfile: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
	}
	vseen := make(map[string]bool, len(h.Vars))
	for _, v := range h.Vars {
		if v.Name == "" {
			return errors.New("ncfile: empty variable name")
		}
		if vseen[v.Name] {
			return fmt.Errorf("ncfile: duplicate variable %q", v.Name)
		}
		vseen[v.Name] = true
		if v.Type.size() == 0 {
			return fmt.Errorf("ncfile: variable %q has unknown type", v.Name)
		}
		if len(v.Dims) == 0 {
			return fmt.Errorf("ncfile: variable %q has no dimensions", v.Name)
		}
		for _, dn := range v.Dims {
			if !seen[dn] {
				return fmt.Errorf("ncfile: variable %q references undeclared dimension %q", v.Name, dn)
			}
		}
		if v.Origin != nil && len(v.Origin) != len(v.Dims) {
			return fmt.Errorf("ncfile: variable %q origin rank %d != %d dims", v.Name, len(v.Origin), len(v.Dims))
		}
	}
	return nil
}

// Describe renders the header in the NetCDF-style notation of the
// paper's Figure 1:
//
//	dimensions:
//	        time = 365;
//	        lat = 250;
//	variables:
//	        double temperature(time, lat);
//	                temperature:units = "degC";
func (h *Header) Describe() string {
	var b strings.Builder
	b.WriteString("dimensions:\n")
	for _, d := range h.Dims {
		fmt.Fprintf(&b, "\t%s = %d;\n", d.Name, d.Length)
	}
	b.WriteString("variables:\n")
	for _, v := range h.Vars {
		fmt.Fprintf(&b, "\t%s %s(%s);\n", v.Type, v.Name, strings.Join(v.Dims, ", "))
		if v.Origin != nil {
			fmt.Fprintf(&b, "\t\t%s:origin = %v;\n", v.Name, v.Origin)
		}
		for _, a := range v.Attrs {
			fmt.Fprintf(&b, "\t\t%s:%s = %q;\n", v.Name, a.Name, a.Value)
		}
	}
	if len(h.Attrs) > 0 {
		b.WriteString("// global attributes:\n")
		for _, a := range h.Attrs {
			fmt.Fprintf(&b, "\t:%s = %q;\n", a.Name, a.Value)
		}
	}
	return b.String()
}

// headerSize returns the encoded byte size of the header including magic
// and version, so payload offsets can be assigned.
func (h *Header) headerSize() int64 {
	attrsSize := func(attrs []Attribute) int64 {
		n := int64(4)
		for _, a := range attrs {
			n += 2 + int64(len(a.Name)) + 2 + int64(len(a.Value))
		}
		return n
	}
	n := int64(4 + 2) // magic + version
	n += 4            // ndims
	for _, d := range h.Dims {
		n += 2 + int64(len(d.Name)) + 8
	}
	n += attrsSize(h.Attrs)
	n += 4 // nvars
	for _, v := range h.Vars {
		n += 2 + int64(len(v.Name)) + 1 + 4 + int64(4*len(v.Dims)) + 8
		n += 4 + int64(8*len(v.Origin)) // origin count + entries
		n += attrsSize(v.Attrs)
	}
	return n
}

// assignOffsets lays variables out back-to-back after the header.
func (h *Header) assignOffsets() error {
	off := h.headerSize()
	for i := range h.Vars {
		h.Vars[i].dataOffset = off
		shape, err := h.VarShape(h.Vars[i].Name)
		if err != nil {
			return err
		}
		off += shape.Size() * h.Vars[i].Type.size()
	}
	return nil
}

// totalSize returns the byte size of a complete file with this header.
func (h *Header) totalSize() (int64, error) {
	if err := h.assignOffsets(); err != nil {
		return 0, err
	}
	if len(h.Vars) == 0 {
		return h.headerSize(), nil
	}
	last := h.Vars[len(h.Vars)-1]
	shape, err := h.VarShape(last.Name)
	if err != nil {
		return 0, err
	}
	return last.dataOffset + shape.Size()*last.Type.size(), nil
}

// encode writes the header (with magic and version) to w.
func (h *Header) encode(w io.Writer) error {
	if err := h.validate(); err != nil {
		return err
	}
	if err := h.assignOffsets(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU16 := func(v uint16) { var b [2]byte; le.PutUint16(b[:], v); bw.Write(b[:]) }
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); bw.Write(b[:]) }
	writeU64 := func(v uint64) { var b [8]byte; le.PutUint64(b[:], v); bw.Write(b[:]) }
	writeStr := func(s string) { writeU16(uint16(len(s))); bw.WriteString(s) }

	writeAttrs := func(attrs []Attribute) {
		writeU32(uint32(len(attrs)))
		for _, a := range attrs {
			writeStr(a.Name)
			writeStr(a.Value)
		}
	}
	writeU16(formatVersion)
	writeU32(uint32(len(h.Dims)))
	for _, d := range h.Dims {
		writeStr(d.Name)
		writeU64(uint64(d.Length))
	}
	writeAttrs(h.Attrs)
	dimIndex := make(map[string]uint32, len(h.Dims))
	for i, d := range h.Dims {
		dimIndex[d.Name] = uint32(i)
	}
	writeU32(uint32(len(h.Vars)))
	for _, v := range h.Vars {
		writeStr(v.Name)
		bw.WriteByte(byte(v.Type))
		writeU32(uint32(len(v.Dims)))
		for _, dn := range v.Dims {
			writeU32(dimIndex[dn])
		}
		writeU32(uint32(len(v.Origin)))
		for _, o := range v.Origin {
			writeU64(uint64(o))
		}
		writeAttrs(v.Attrs)
		writeU64(uint64(v.dataOffset))
	}
	return bw.Flush()
}

// decodeHeader reads a header from r.
func decodeHeader(r io.Reader) (*Header, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("ncfile: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, errBadMagic
	}
	le := binary.LittleEndian
	readU16 := func() (uint16, error) {
		var b [2]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return le.Uint16(b[:]), nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return le.Uint32(b[:]), nil
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return le.Uint64(b[:]), nil
	}
	readStr := func() (string, error) {
		n, err := readU16()
		if err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	ver, err := readU16()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("%w: %d", errBadVersion, ver)
	}
	const maxEntries = 1 << 20 // guard against corrupt headers
	readAttrs := func() ([]Attribute, error) {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if n > maxEntries {
			return nil, fmt.Errorf("ncfile: implausible attribute count %d", n)
		}
		var out []Attribute
		for i := uint32(0); i < n; i++ {
			name, err := readStr()
			if err != nil {
				return nil, err
			}
			value, err := readStr()
			if err != nil {
				return nil, err
			}
			out = append(out, Attribute{Name: name, Value: value})
		}
		return out, nil
	}
	h := &Header{}
	ndims, err := readU32()
	if err != nil {
		return nil, err
	}
	if ndims > maxEntries {
		return nil, fmt.Errorf("ncfile: implausible dimension count %d", ndims)
	}
	for i := uint32(0); i < ndims; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		l, err := readU64()
		if err != nil {
			return nil, err
		}
		h.Dims = append(h.Dims, Dimension{Name: name, Length: int64(l)})
	}
	if h.Attrs, err = readAttrs(); err != nil {
		return nil, err
	}
	nvars, err := readU32()
	if err != nil {
		return nil, err
	}
	if nvars > maxEntries {
		return nil, fmt.Errorf("ncfile: implausible variable count %d", nvars)
	}
	for i := uint32(0); i < nvars; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		nd, err := readU32()
		if err != nil {
			return nil, err
		}
		if nd > coords.MaxRank {
			return nil, fmt.Errorf("ncfile: variable %q rank %d exceeds limit", name, nd)
		}
		dims := make([]string, nd)
		for j := uint32(0); j < nd; j++ {
			idx, err := readU32()
			if err != nil {
				return nil, err
			}
			if int(idx) >= len(h.Dims) {
				return nil, fmt.Errorf("ncfile: variable %q references dimension index %d of %d", name, idx, len(h.Dims))
			}
			dims[j] = h.Dims[idx].Name
		}
		norig, err := readU32()
		if err != nil {
			return nil, err
		}
		if norig > coords.MaxRank {
			return nil, fmt.Errorf("ncfile: variable %q origin rank %d exceeds limit", name, norig)
		}
		var origin []int64
		for j := uint32(0); j < norig; j++ {
			o, err := readU64()
			if err != nil {
				return nil, err
			}
			origin = append(origin, int64(o))
		}
		attrs, err := readAttrs()
		if err != nil {
			return nil, err
		}
		off, err := readU64()
		if err != nil {
			return nil, err
		}
		h.Vars = append(h.Vars, Variable{Name: name, Type: dataType(tb), Dims: dims, Origin: origin, Attrs: attrs, dataOffset: int64(off)})
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// encodeValues converts vals to the variable's stored representation,
// eight bytes each, into b.
func encodeValues(t dataType, vals []float64, b []byte) {
	switch t {
	case Float64:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
	case int64Type:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[i*8:], uint64(int64(v)))
		}
	}
}

// decodeValues converts len(out) stored elements of b back to float64s,
// branching on the type once per call rather than per element.
func decodeValues(t dataType, b []byte, out []float64) {
	switch t {
	case Float64:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	case int64Type:
		for i := range out {
			out[i] = float64(int64(binary.LittleEndian.Uint64(b[i*8:])))
		}
	default:
		clear(out)
	}
}
