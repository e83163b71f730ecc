package ncfile

import (
	"fmt"
	"io"
	"os"
	"sync"

	"sidr/internal/coords"
)

// File is an open ncfile container supporting coordinate-based hyperslab
// reads and writes. It is safe for concurrent reads (ReadSlab uses
// positional IO) but writes must be externally serialised per region.
type File struct {
	f      *os.File
	header *Header
}

// create writes a new container at path with the given header. The data
// payload is materialised immediately: fill holds the initial value for
// every element of every variable (the "sentinel" when building sparse
// output files; zero is typical for dense files about to be fully
// written).
func create(path string, h *Header, fill float64) (*File, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	if err := h.assignOffsets(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := h.encode(f); err != nil {
		f.Close()
		return nil, err
	}
	// Materialise every variable's payload with the fill value, streaming
	// a reused buffer so huge files do not require huge memory.
	const bufElems = 64 * 1024
	buf := make([]byte, bufElems*8)
	for _, v := range h.Vars {
		shape, err := h.VarShape(v.Name)
		if err != nil {
			f.Close()
			return nil, err
		}
		var one [8]byte
		encodeValues(v.Type, []float64{fill}, one[:])
		for i := 0; i < bufElems; i++ {
			copy(buf[i*8:], one[:])
		}
		remaining := shape.Size()
		for remaining > 0 {
			n := int64(bufElems)
			if remaining < n {
				n = remaining
			}
			if _, err := f.Write(buf[:n*8]); err != nil {
				f.Close()
				return nil, fmt.Errorf("ncfile: filling %q: %w", v.Name, err)
			}
			remaining -= n
		}
	}
	return &File{f: f, header: h}, nil
}

// CreateEmpty writes a new container whose payload space is allocated via
// truncation rather than explicit writes. On filesystems with sparse-file
// support this is nearly free — it models the cheap allocation of a dense
// output file that a task will fully overwrite, as opposed to create with
// a sentinel which pays for every byte.
func CreateEmpty(path string, h *Header) (*File, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	if err := h.assignOffsets(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := h.encode(f); err != nil {
		f.Close()
		return nil, err
	}
	total, err := h.totalSize()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(total); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, header: h}, nil
}

// Open opens an existing container read-write.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, header: h}, nil
}

// Header returns the container's structural metadata. Callers must not
// mutate it.
func (fl *File) Header() *Header { return fl.header }

// Close flushes and closes the underlying file.
func (fl *File) Close() error { return fl.f.Close() }

// Sync flushes file contents to stable storage.
func (fl *File) Sync() error { return fl.f.Sync() }

// size returns the current byte size of the file on disk.
func (fl *File) size() (int64, error) {
	st, err := fl.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// checkSlab reports whether slab lies inside a variable of shape full. It
// runs before anything is sized from the slab, so a request far outside
// the variable — or one whose point count overflows — fails with
// errOutOfBound instead of allocating.
func checkSlab(full coords.Shape, slab coords.Slab) error {
	if len(slab.Corner) != len(full) || len(slab.Shape) != len(full) {
		return coords.ErrRankMismatch
	}
	for i, n := range full {
		c, sh := slab.Corner[i], slab.Shape[i]
		if c < 0 || sh < 1 || c > n || sh > n-c {
			return fmt.Errorf("%w: %v in %v", errOutOfBound, slab, full)
		}
	}
	return nil
}

// locate resolves the named variable and its shape and checks that slab
// lies inside it — the common head of every hyperslab access.
func (fl *File) locate(varName string, slab coords.Slab) (*Variable, coords.Shape, error) {
	v, err := fl.header.variable(varName)
	if err != nil {
		return nil, nil, err
	}
	full, err := fl.header.VarShape(varName)
	if err != nil {
		return nil, nil, err
	}
	return v, full, checkSlab(full, slab)
}

// slabRuns invokes fn for every maximal contiguous element run of slab
// within a variable of shape full, passing the linear element offset of
// the run's start and its length: trailing dimensions the slab covers in
// full coalesce with the dimension before them, so a band of whole rows
// is one run. A run longer than maxLen elements is handed over in pieces.
// Runs follow row-major order, so concatenating them yields the slab's
// values in row-major order. slab must have passed checkSlab.
func slabRuns(full coords.Shape, slab coords.Slab, maxLen int64, fn func(offset, length int64) error) error {
	d := slab.Rank() - 1
	runLen := slab.Shape[d]
	for d > 0 && slab.Shape[d] == full[d] {
		d--
		runLen *= slab.Shape[d]
	}
	// One run per index of the dimensions before d.
	outer := coords.Slab{Corner: slab.Corner[:d], Shape: slab.Shape[:d]}
	for cur := slab.Corner.Clone(); ; {
		off, err := full.Linearize(cur)
		if err != nil {
			return err
		}
		for left := runLen; left > 0; off, left = off+maxLen, left-maxLen {
			if err := fn(off, min(left, maxLen)); err != nil {
				return err
			}
		}
		if !outer.Advance(cur[:d]) {
			return nil
		}
	}
}

// ioElems bounds one positional read or write, so the byte buffer stays
// small however long a coalesced run is. One scan batch is one piece.
const ioElems = coords.BatchPoints

var ioBufs = sync.Pool{New: func() any { b := make([]byte, ioElems*8); return &b }}

// ReadSlab reads the hyperslab of the named variable into a freshly
// allocated row-major []float64.
func (fl *File) ReadSlab(varName string, slab coords.Slab) ([]float64, error) {
	return fl.ReadSlabInto(varName, slab, nil)
}

// ReadSlabInto reads the hyperslab of the named variable into dst in
// row-major order and returns dst[:slab.Size()], allocating only when
// dst's capacity is short. Where the stored bytes are the in-memory
// float64s (rawBytes), each run is read straight into dst.
func (fl *File) ReadSlabInto(varName string, slab coords.Slab, dst []float64) ([]float64, error) {
	v, full, err := fl.locate(varName, slab)
	if err != nil {
		return nil, err
	}
	if n := slab.Size(); int64(cap(dst)) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	esz := v.Type.size()
	bufp := ioBufs.Get().(*[]byte)
	defer ioBufs.Put(bufp)
	out := dst
	err = slabRuns(full, slab, ioElems, func(off, n int64) error {
		buf, direct := rawBytes(v.Type, out[:n])
		if !direct {
			buf = (*bufp)[:n*esz]
		}
		if _, err := fl.f.ReadAt(buf, v.dataOffset+off*esz); err != nil {
			return fmt.Errorf("ncfile: reading %q at %d: %w", varName, off, err)
		}
		if !direct {
			decodeValues(v.Type, buf, out[:n])
		}
		out = out[n:]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// WriteSlab writes row-major values into the hyperslab of the named
// variable. len(values) must equal slab.Size().
func (fl *File) WriteSlab(varName string, slab coords.Slab, values []float64) error {
	v, full, err := fl.locate(varName, slab)
	if err != nil {
		return err
	}
	if int64(len(values)) != slab.Size() {
		return fmt.Errorf("ncfile: %d values for slab of %d elements", len(values), slab.Size())
	}
	esz := v.Type.size()
	bufp := ioBufs.Get().(*[]byte)
	defer ioBufs.Put(bufp)
	return slabRuns(full, slab, ioElems, func(off, n int64) error {
		buf, direct := rawBytes(v.Type, values[:n])
		if !direct {
			buf = (*bufp)[:n*esz]
			encodeValues(v.Type, values[:n], buf)
		}
		if _, err := fl.f.WriteAt(buf, v.dataOffset+off*esz); err != nil {
			return fmt.Errorf("ncfile: writing %q at %d: %w", varName, off, err)
		}
		values = values[n:]
		return nil
	})
}

var _ io.Closer = (*File)(nil)
