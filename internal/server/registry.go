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
	"sidr/internal/hdfs"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/query"
	"sidr/internal/sidx"
	"sidr/internal/wire"
)

// VariableInfo and DatasetInfo are the /v1/datasets wire forms; the
// documented JSON shape lives in internal/wire.
type (
	VariableInfo = wire.VariableInfo
	DatasetInfo  = wire.DatasetInfo
)

// source is a registered dataset not yet opened.
type source struct {
	info  DatasetInfo
	path  string                    // file datasets
	shape []int64                   // synthetic datasets
	fn    func(k []int64) float64   // synthetic datasets
	spec  *cluster.DatasetSpec      // generator-backed synthetics (cluster-resolvable)
	idx   map[string]*sidx.VarIndex // structural indexes by variable name
}

// handle is one refcounted open dataset, keyed by (dataset, variable).
type handle struct {
	ds      *sidr.Dataset
	refs    int
	retired bool // source removed or replaced; close on last release
}

// Registry maps dataset names to open sidr.Datasets. Handles are opened
// lazily on first Acquire, refcounted, and kept open across jobs so
// concurrent queries share one ncfile handle (positional reads make the
// files safe for concurrent readers). Close tears down idle handles
// immediately and busy ones as their last user releases them.
type Registry struct {
	mu      sync.Mutex
	sources map[string]*source
	open    map[string]*handle // key: name + "\x00" + variable
	// gens counts registrations per dataset name, surviving Remove:
	// re-registering a name always yields a new generation, so version
	// tokens from the old contents can never collide with the new.
	gens         map[string]uint64
	onInvalidate func(name string)
	closing      bool
	// ns, when set, mirrors every registered dataset as a logical HDFS
	// file so cluster jobs get block-location locality hints.
	ns *hdfs.Namespace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]*source), open: make(map[string]*handle), gens: make(map[string]uint64)}
}

// SetOnInvalidate installs the hook fired (outside the registry lock)
// whenever a dataset is removed — including the removal half of a
// re-registration. The server points it at the job manager's
// InvalidateDataset so cached results die with the dataset version
// that produced them.
func (r *Registry) SetOnInvalidate(fn func(name string)) {
	r.mu.Lock()
	r.onInvalidate = fn
	r.mu.Unlock()
}

// SetNamespace attaches a simulated HDFS namespace. Every dataset —
// already registered or added later — is mirrored into it as a logical
// file sized to its largest variable (row-major float64 layout), giving
// cluster jobs block-location locality hints. The namespace itself is
// handed on to the job manager via Namespace.
func (r *Registry) SetNamespace(ns *hdfs.Namespace) {
	r.mu.Lock()
	r.ns = ns
	sizes := make(map[string]int64, len(r.sources))
	for name, src := range r.sources {
		sizes[name] = datasetBytes(src)
	}
	r.mu.Unlock()
	if ns == nil {
		return
	}
	for name, size := range sizes {
		_ = ns.AddOrReplaceFile(name, size)
	}
}

// Namespace returns the attached block namespace (nil if none).
func (r *Registry) Namespace() *hdfs.Namespace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ns
}

// datasetBytes sizes a dataset's logical HDFS file: its largest
// variable's element count at 8 bytes per point — the same row-major
// layout GenerateSplits assumes when mapping splits to block ranges.
func datasetBytes(src *source) int64 {
	var max int64
	for _, v := range src.info.Variables {
		if n := coords.NewShape(v.Shape...).Size() * 8; n > max {
			max = n
		}
	}
	return max
}

// nsMirrorLocked registers one dataset in the attached namespace.
// Caller holds r.mu; the namespace has its own lock and never calls
// back into the registry.
func (r *Registry) nsMirrorLocked(name string, src *source) {
	if r.ns != nil {
		_ = r.ns.AddOrReplaceFile(name, datasetBytes(src))
	}
}

// AddFile registers an ncfile container under the given name, reading
// its header to list variables. Each variable gets a structural
// block-range index: a matching .sidx sidecar next to the container is
// loaded, otherwise the variable is scanned once (in parallel) and the
// fresh index persisted back to the sidecar best-effort. Index trouble
// never fails registration — the dataset just runs unpruned.
func (r *Registry) AddFile(name, path string) error {
	f, err := ncfile.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info := DatasetInfo{Name: name, Kind: "file", Path: path}
	idx := make(map[string]*sidx.VarIndex)
	sidecar := path + ".sidx"
	loaded := make(map[string]*sidx.VarIndex)
	if ix, lerr := sidx.Load(sidecar); lerr == nil {
		for _, vi := range ix.Vars {
			loaded[vi.Variable] = vi
		}
	}
	rebuilt := false
	for _, v := range f.Header().Vars {
		shape, err := f.Header().VarShape(v.Name)
		if err != nil {
			return err
		}
		vi := VariableInfo{Name: v.Name, Shape: shape, Splits: defaultSplitCount(shape), IndexStatus: "none"}
		start := time.Now()
		ix := loaded[v.Name]
		if ix != nil && ix.Shape.Equal(shape) {
			vi.IndexStatus = "loaded"
		} else {
			ix, err = sidx.BuildVar(v.Name, shape, &mapreduce.FileReader{File: f, Var: v.Name}, sidx.BuildOptions{})
			if err != nil {
				info.Variables = append(info.Variables, vi)
				continue
			}
			vi.IndexStatus = "built"
			rebuilt = true
		}
		vi.IndexBlocks = len(ix.Blocks)
		vi.IndexBytes = (&sidx.Index{Vars: []*sidx.VarIndex{ix}}).EncodedSize()
		vi.IndexBuildMs = float64(time.Since(start)) / float64(time.Millisecond)
		idx[v.Name] = ix
		info.Variables = append(info.Variables, vi)
	}
	if rebuilt {
		all := &sidx.Index{}
		for _, v := range f.Header().Vars { // header order keeps the sidecar deterministic
			if ix := idx[v.Name]; ix != nil {
				all.Vars = append(all.Vars, ix)
			}
		}
		_ = all.Save(sidecar) // best-effort; a read-only data dir is fine
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.gens[name]++
	src := &source{info: info, path: path, idx: idx}
	r.sources[name] = src
	r.nsMirrorLocked(name, src)
	return nil
}

// defaultSplitCount reports how many Map input splits the default
// granularity generates for a query over the full variable; listed so
// clients can judge pruning ratios.
func defaultSplitCount(shape coords.Shape) int {
	slab := coords.Slab{Corner: make(coords.Coord, shape.Rank()), Shape: shape}
	_, splitPoints := core.RequestDefaults(&query.Query{Input: slab}, 0, 0)
	splits, err := mapreduce.GenerateSplits(slab, splitPoints, nil, "", 8)
	if err != nil {
		return 0
	}
	return len(splits)
}

// buildSyntheticIndex scans a synthetic dataset once and summarises it;
// synthetic sources answer any variable name, so the index is filed
// under "*".
func buildSyntheticIndex(shape coords.Shape, fn func(coords.Coord) float64) (*sidx.VarIndex, error) {
	return sidx.BuildVar("*", shape, &mapreduce.FuncReader{Fn: fn}, sidx.BuildOptions{})
}

// syntheticInfo fills the "*" variable's registration metadata from a
// build attempt (ix nil means the source runs unpruned).
func syntheticInfo(shape []int64, ix *sidx.VarIndex, took time.Duration) VariableInfo {
	vi := VariableInfo{
		Name:   "*",
		Shape:  append([]int64(nil), shape...),
		Splits: defaultSplitCount(coords.NewShape(shape...)),
	}
	vi.IndexStatus = "none"
	if ix != nil {
		vi.IndexStatus = "built"
		vi.IndexBlocks = len(ix.Blocks)
		vi.IndexBytes = (&sidx.Index{Vars: []*sidx.VarIndex{ix}}).EncodedSize()
		vi.IndexBuildMs = float64(took) / float64(time.Millisecond)
	}
	return vi
}

// AddSynthetic registers a pure-function dataset of the given shape;
// any variable name resolves to it.
func (r *Registry) AddSynthetic(name string, shape []int64, fn func(k []int64) float64) error {
	if fn == nil {
		return fmt.Errorf("server: nil synthetic dataset function")
	}
	// No index for opaque functions: registration may not invoke caller
	// code (a fn may block, be expensive, or have side effects), so only
	// file and generator-backed datasets — whose data the registry owns —
	// are scanned. IndexStatus stays "none" and queries run unpruned.
	info := DatasetInfo{Name: name, Kind: "synthetic",
		Variables: []VariableInfo{syntheticInfo(shape, nil, 0)}}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.gens[name]++
	src := &source{info: info, shape: append([]int64(nil), shape...), fn: fn}
	r.sources[name] = src
	r.nsMirrorLocked(name, src)
	return nil
}

// AddGenerated registers a synthetic dataset backed by one of the
// deterministic datagen generators. Unlike AddSynthetic's opaque
// function, a generated dataset is described by a cluster.DatasetSpec,
// so sidr-worker processes can reproduce it bit-identically from the
// spec alone and cluster-routed jobs can use it.
func (r *Registry) AddGenerated(name string, spec cluster.DatasetSpec) error {
	if spec.Kind != "synthetic" {
		return fmt.Errorf("server: generated dataset %q needs kind \"synthetic\", got %q", name, spec.Kind)
	}
	if len(spec.Shape) == 0 {
		return fmt.Errorf("server: generated dataset %q needs a shape", name)
	}
	fn, err := cluster.GeneratorFunc(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	ix, _ := buildSyntheticIndex(coords.NewShape(spec.Shape...), fn)
	info := DatasetInfo{Name: name, Kind: "synthetic",
		Variables: []VariableInfo{syntheticInfo(spec.Shape, ix, time.Since(start))}}
	idx := make(map[string]*sidx.VarIndex)
	if ix != nil {
		idx["*"] = ix
	}
	specCopy := spec
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.gens[name]++
	src := &source{
		info:  info,
		shape: append([]int64(nil), spec.Shape...),
		fn:    func(k []int64) float64 { return fn(coords.Coord(k)) },
		spec:  &specCopy,
		idx:   idx,
	}
	r.sources[name] = src
	r.nsMirrorLocked(name, src)
	return nil
}

// DatasetSpec describes a registered dataset in a form a cluster worker
// can resolve by itself: file datasets by path+variable, generated
// synthetics by their generator spec. Opaque AddSynthetic functions are
// not describable. Implements jobs.DatasetSpecProvider.
func (r *Registry) DatasetSpec(name, variable string) (cluster.DatasetSpec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.sources[name]
	if !ok {
		return cluster.DatasetSpec{}, fmt.Errorf("server: unknown dataset %q", name)
	}
	switch {
	case src.spec != nil:
		return *src.spec, nil
	case src.path != "":
		return cluster.DatasetSpec{Kind: "file", Path: src.path, Variable: variable}, nil
	default:
		return cluster.DatasetSpec{}, fmt.Errorf("server: synthetic dataset %q has no generator spec; cluster workers cannot reproduce it", name)
	}
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

// List returns the registered datasets sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Remove unregisters the dataset and fires the invalidation hook. Open
// handles are retired: idle ones close immediately, busy ones close as
// their last user releases them — in-flight jobs finish against the
// contents they started with. Returns false for unknown names.
// Re-registration is Remove followed by Add*: the name's generation
// keeps counting up, so cached results keyed on the old version can
// never be served against the new contents.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	_, ok := r.sources[name]
	if !ok {
		r.mu.Unlock()
		return false
	}
	delete(r.sources, name)
	if r.ns != nil {
		_ = r.ns.Remove(name)
	}
	prefix := name + "\x00"
	for key, h := range r.open {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		h.retired = true
		if h.refs <= 0 {
			h.ds.Close()
		}
		delete(r.open, key)
	}
	fn := r.onInvalidate
	r.mu.Unlock()
	if fn != nil {
		fn(name)
	}
	return true
}

// DatasetVersion returns an opaque token pinning the dataset variable's
// current contents: registration generation, variable shape, and the
// structural index fingerprint (a content summary for file and
// generated datasets). Any re-registration bumps the generation, so the
// token changes whenever the answer to a query could. Implements
// jobs.VersionProvider. Returns false for unknown datasets or
// variables — such requests bypass the result cache entirely, which is
// also how opaque AddSynthetic functions without indexes stay safe:
// their token still changes per registration via the generation.
func (r *Registry) DatasetVersion(name, variable string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.sources[name]
	if !ok {
		return "", false
	}
	var vi *VariableInfo
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
	if src.idx != nil {
		if ix := src.idx[variable]; ix != nil {
			fp = ix.Fingerprint()
		} else if ix := src.idx["*"]; ix != nil {
			fp = ix.Fingerprint()
		}
	}
	return fmt.Sprintf("%s#%d|%v|%08x", name, r.gens[name], vi.Shape, fp), true
}

// Acquire opens (or reuses) the dataset's handle for the variable and
// bumps its refcount; the returned release func must be called when the
// job is done with it. Implements jobs.DatasetProvider.
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

// releaseFunc returns a once-only decrement for the handle. It captures
// the handle itself, not just the key: after a Remove and
// re-registration the key may map to a fresh handle, and releasing the
// retired one must not touch its replacement. Caller holds r.mu.
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
			if h.retired {
				// Already out of r.open (Remove evicted it); just close.
				h.ds.Close()
				return
			}
			if r.closing {
				h.ds.Close()
				if r.open[key] == h {
					delete(r.open, key)
				}
			}
		})
	}
}

// Index returns the structural block-range index for the dataset
// variable, or nil when none was built. Synthetic sources answer any
// variable name with their "*" index. Implements jobs.IndexProvider.
func (r *Registry) Index(name, variable string) *sidx.VarIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.sources[name]
	if !ok || src.idx == nil {
		return nil
	}
	if vi := src.idx[variable]; vi != nil {
		return vi
	}
	return src.idx["*"]
}

// IndexBytes returns the total serialized size of every registered
// structural index; the server exposes it as a gauge.
func (r *Registry) IndexBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, src := range r.sources {
		for _, ix := range src.idx {
			total += (&sidx.Index{Vars: []*sidx.VarIndex{ix}}).EncodedSize()
		}
	}
	return total
}

// OpenHandles returns the number of currently open dataset handles.
func (r *Registry) OpenHandles() int {
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
