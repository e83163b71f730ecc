// Package hdfs simulates the block-placement and locality metadata of a
// Hadoop Distributed File System: fixed-size blocks, n-way replication
// across datanodes, and byte-range → replica-host lookups. Only the
// metadata layer is modelled — actual bytes live in ordinary local files
// (or are purely synthetic for simulator-scale datasets) — because block
// placement is the only HDFS behaviour the paper's scheduling experiments
// depend on.
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// DefaultBlockSize matches the paper's HDFS configuration (128 MB).
const DefaultBlockSize = 128 << 20

// DefaultReplication matches the paper's HDFS configuration (3×).
const DefaultReplication = 3

// BlockLocation describes one block of a file and the datanodes holding
// its replicas.
type BlockLocation struct {
	Index  int      // block number within the file
	Offset int64    // first byte of the block
	Length int64    // bytes in this block (last block may be short)
	Hosts  []string // datanodes holding replicas, primary first
}

// fileMeta records a registered file's layout.
type fileMeta struct {
	size   int64
	blocks []BlockLocation
}

// Namespace is a simulated HDFS namespace: a set of datanodes and the
// block maps of registered files. It is safe for concurrent use.
type Namespace struct {
	mu          sync.RWMutex
	blockSize   int64
	replication int
	nodes       []string
	files       map[string]*fileMeta
	rng         *rand.Rand
}

// Config parametrises a Namespace.
type Config struct {
	BlockSize   int64 // defaults to DefaultBlockSize
	Replication int   // defaults to DefaultReplication
	Seed        int64 // placement RNG seed; fixed seed → deterministic layout
	// Rand, when set, is the placement RNG itself and overrides Seed.
	// Injecting one lets tests drive several namespaces from one known
	// stream, or share deterministic placement with a larger simulation.
	// The namespace takes ownership: placement draws are serialised under
	// its lock, but the caller must not draw from it concurrently.
	Rand *rand.Rand
}

// Errors reported by the package.
var (
	ErrNoNodes  = errors.New("hdfs: namespace has no datanodes")
	ErrNotFound = errors.New("hdfs: no such file")
	ErrExists   = errors.New("hdfs: file already exists")
)

// NewNamespace builds a namespace over the given datanodes.
func NewNamespace(nodes []string, cfg Config) (*Namespace, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	rep := cfg.Replication
	if rep <= 0 {
		rep = DefaultReplication
	}
	if rep > len(nodes) {
		rep = len(nodes)
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	ns := &Namespace{
		blockSize:   bs,
		replication: rep,
		nodes:       append([]string(nil), nodes...),
		files:       make(map[string]*fileMeta),
		rng:         rng,
	}
	return ns, nil
}

// AddFile registers a logical file of the given byte size and assigns
// block placements. Placement follows HDFS's spirit: the primary replica
// rotates across nodes to spread load; further replicas go to distinct
// randomly chosen nodes.
func (ns *Namespace) AddFile(name string, size int64) error {
	if size < 0 {
		return fmt.Errorf("hdfs: negative size %d for %q", size, name)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.files[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	meta := &fileMeta{size: size}
	nblocks := int((size + ns.blockSize - 1) / ns.blockSize)
	start := ns.rng.Intn(len(ns.nodes))
	for i := 0; i < nblocks; i++ {
		off := int64(i) * ns.blockSize
		length := ns.blockSize
		if off+length > size {
			length = size - off
		}
		primary := (start + i) % len(ns.nodes)
		hosts := []string{ns.nodes[primary]}
		// Pick replication-1 further distinct nodes.
		perm := ns.rng.Perm(len(ns.nodes))
		for _, p := range perm {
			if len(hosts) == ns.replication {
				break
			}
			if p == primary {
				continue
			}
			hosts = append(hosts, ns.nodes[p])
		}
		meta.blocks = append(meta.blocks, BlockLocation{Index: i, Offset: off, Length: length, Hosts: hosts})
	}
	ns.files[name] = meta
	return nil
}

// Has reports whether a file is registered.
func (ns *Namespace) Has(name string) bool {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	_, ok := ns.files[name]
	return ok
}

// LocateRange returns the blocks overlapping the byte range [off,
// off+length) of a file, in offset order.
func (ns *Namespace) LocateRange(name string, off, length int64) ([]BlockLocation, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("hdfs: invalid range [%d, %d)", off, off+length)
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	m, ok := ns.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if off >= m.size || length == 0 {
		return nil, nil
	}
	end := off + length
	if end > m.size {
		end = m.size
	}
	first := int(off / ns.blockSize)
	last := int((end - 1) / ns.blockSize)
	if last >= len(m.blocks) {
		last = len(m.blocks) - 1
	}
	return append([]BlockLocation(nil), m.blocks[first:last+1]...), nil
}

// RangeHosts returns the hosts holding data for the byte range, ranked by
// the number of bytes of the range they store locally (descending). This
// is the locality hint attached to input splits.
func (ns *Namespace) RangeHosts(name string, off, length int64) ([]string, error) {
	blocks, err := ns.LocateRange(name, off, length)
	if err != nil {
		return nil, err
	}
	byHost := make(map[string]int64)
	end := off + length
	for _, b := range blocks {
		lo := maxI64(off, b.Offset)
		hi := minI64(end, b.Offset+b.Length)
		if hi <= lo {
			continue
		}
		for _, h := range b.Hosts {
			byHost[h] += hi - lo
		}
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		if byHost[hosts[i]] != byHost[hosts[j]] {
			return byHost[hosts[i]] > byHost[hosts[j]]
		}
		return hosts[i] < hosts[j]
	})
	return hosts, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
