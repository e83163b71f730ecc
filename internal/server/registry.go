package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/query"
	"sidr/internal/sidx"
	"sidr/internal/wire"
)

// source is a registered dataset not yet opened.
type source struct {
	info  wire.DatasetInfo
	path  string                    // file datasets
	shape []int64                   // synthetic datasets
	fn    func(k []int64) float64   // synthetic datasets
	idx   map[string]*sidx.VarIndex // structural indexes by variable name
}

// handle is one refcounted open dataset, keyed by (dataset, variable).
type handle struct {
	ds   *sidr.Dataset
	refs int
}

// Registry maps dataset names to open sidr.Datasets. A name is
// registered once and never removed, so a dataset's contents are fixed
// for the registry's life. Handles are opened lazily on first Acquire,
// refcounted, and kept open across jobs so concurrent queries share one
// ncfile handle (positional reads make the files safe for concurrent
// readers). Close tears down idle handles immediately and busy ones as
// their last user releases them. It is the daemon's provider of datasets
// to the job manager.
type Registry struct {
	mu      sync.Mutex
	sources map[string]*source
	open    map[string]*handle // key: name + "\x00" + variable
	closing bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]*source), open: make(map[string]*handle)}
}

// AddFile registers an ncfile container under the given name, reading
// its header to list variables. Each variable's structural block-range
// index is built by one parallel scan and held in memory only, so it
// describes the file as registered; nothing is written beside the
// container. A failed build never fails registration — the variable
// just runs unpruned.
func (r *Registry) AddFile(name, path string) error {
	f, err := ncfile.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info := wire.DatasetInfo{Name: name, Kind: "file", Path: path}
	idx := make(map[string]*sidx.VarIndex)
	for _, v := range f.Header().Vars {
		shape, err := f.Header().VarShape(v.Name)
		if err != nil {
			return err
		}
		vi := wire.VariableInfo{Name: v.Name, Shape: shape, Splits: defaultSplitCount(shape), IndexStatus: "none"}
		start := time.Now()
		ix, err := sidx.BuildVar(v.Name, shape, &mapreduce.FileReader{File: f, Var: v.Name}, sidx.BuildOptions{})
		if err == nil {
			vi.IndexStatus = "built"
			vi.IndexBlocks = len(ix.Blocks)
			vi.IndexBytes = (&sidx.Index{Vars: []*sidx.VarIndex{ix}}).EncodedSize()
			vi.IndexBuildMs = float64(time.Since(start)) / float64(time.Millisecond)
			idx[v.Name] = ix
		}
		info.Variables = append(info.Variables, vi)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.sources[name] = &source{info: info, path: path, idx: idx}
	return nil
}

// defaultSplitCount reports how many Map input splits the default plan
// of a unit-tile extraction over the full variable generates; listed so
// clients can judge pruning ratios. A query's own extraction can change
// the count, as the planner rounds its split bands to the tile grid
// (DESIGN §8).
func defaultSplitCount(shape coords.Shape) int {
	slab := coords.Slab{Corner: make(coords.Coord, shape.Rank()), Shape: shape}
	_, splitPoints := core.RequestDefaults(&query.Query{Input: slab}, 0, 0)
	splits, err := mapreduce.GenerateSplits(slab, splitPoints, nil, "", 8)
	if err != nil {
		return 0
	}
	return len(splits)
}

// DatasetSpec describes a registered file dataset as the spec a cluster
// worker opens by itself: its path and the variable. A synthetic
// dataset's function lives only in this process, so workers cannot
// reproduce it.
func (r *Registry) DatasetSpec(name, variable string) (cluster.DatasetSpec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.sources[name]
	if !ok {
		return cluster.DatasetSpec{}, fmt.Errorf("server: unknown dataset %q", name)
	}
	if src.path == "" {
		return cluster.DatasetSpec{}, fmt.Errorf("server: synthetic dataset %q is not a file; cluster workers cannot open it", name)
	}
	return cluster.DatasetSpec{Kind: "file", Path: src.path, Variable: variable}, nil
}

// ScanDir registers every *.ncf file in dir under its basename (without
// extension), returning how many were added.
func (r *Registry) ScanDir(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ncf"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	n := 0
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".ncf")
		if err := r.AddFile(name, p); err != nil {
			return n, fmt.Errorf("server: registering %s: %w", p, err)
		}
		n++
	}
	return n, nil
}

// list returns the registered datasets sorted by name.
func (r *Registry) list() []wire.DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]wire.DatasetInfo, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DatasetVersion returns an opaque token pinning the dataset variable's
// contents: name, variable shape, and the structural index fingerprint
// (a content summary of a file's variable). Returns false for unknown
// datasets or variables — such requests bypass the result cache
// entirely.
func (r *Registry) DatasetVersion(name, variable string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.sources[name]
	if !ok {
		return "", false
	}
	var vi *wire.VariableInfo
	for i := range src.info.Variables {
		if src.info.Variables[i].Name == variable || src.info.Variables[i].Name == "*" {
			vi = &src.info.Variables[i]
			break
		}
	}
	if vi == nil {
		return "", false
	}
	var fp uint32
	if ix := src.idx[variable]; ix != nil {
		fp = ix.Fingerprint()
	}
	return fmt.Sprintf("%s|%v|%08x", name, vi.Shape, fp), true
}

// Acquire opens (or reuses) the dataset's handle for the variable and
// bumps its refcount; the returned release func must be called when the
// job is done with it.
func (r *Registry) Acquire(name, variable string) (*sidr.Dataset, func(), error) {
	key := name + "\x00" + variable
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return nil, nil, fmt.Errorf("server: registry closed")
	}
	if h, ok := r.open[key]; ok {
		h.refs++
		return h.ds, r.releaseFunc(key, h), nil
	}
	src, ok := r.sources[name]
	if !ok {
		return nil, nil, fmt.Errorf("server: unknown dataset %q", name)
	}
	var ds *sidr.Dataset
	var err error
	if src.fn != nil {
		ds, err = sidr.Synthetic(src.shape, src.fn)
	} else {
		ds, err = sidr.Open(src.path, variable)
	}
	if err != nil {
		return nil, nil, err
	}
	h := &handle{ds: ds, refs: 1}
	r.open[key] = h
	return ds, r.releaseFunc(key, h), nil
}

// releaseFunc returns a once-only decrement for the handle. Caller
// holds r.mu.
func (r *Registry) releaseFunc(key string, h *handle) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			h.refs--
			if h.refs > 0 {
				return
			}
			if r.closing {
				h.ds.Close()
				delete(r.open, key)
			}
		})
	}
}

// Index returns the structural block-range index for the dataset
// variable, or nil when none was built (a synthetic dataset has none).
func (r *Registry) Index(name, variable string) *sidx.VarIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if src, ok := r.sources[name]; ok {
		return src.idx[variable]
	}
	return nil
}

// indexBytes returns the total size of every registered structural
// index, as recorded at registration; the server exposes it as a gauge.
func (r *Registry) indexBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, src := range r.sources {
		for _, v := range src.info.Variables {
			total += v.IndexBytes
		}
	}
	return total
}

// openHandles returns the number of currently open dataset handles.
func (r *Registry) openHandles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// Close stops further Acquires and closes every handle whose refcount is
// zero; handles still in use close when their last user releases them.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closing = true
	var first error
	for key, h := range r.open {
		if h.refs <= 0 {
			if err := h.ds.Close(); err != nil && first == nil {
				first = err
			}
			delete(r.open, key)
		}
	}
	return first
}
